"""The flat-top fast path must agree with the adaptive ODE integrator."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qutritcr.calibrate as calibrate
import qutritcr.crpulse as crpulse
import qutritcr.device as device_mod
import qutritcr.propagate as propagate
from qutritcr.calibrate import calibrate_cr_gate
from qutritcr.crpulse import FlatTopCRPulse
from qutritcr.device import DeviceParams, FrameSpec, transition_frequencies
from qutritcr.errors import CalibrationFailed, InvalidParams
from qutritcr.experiments import cmd_rabi
from qutritcr.hamiltonian import rotating_frame_hamiltonian
from qutritcr.linalg import herm_defect, ket2, unitary_defect
from qutritcr.propagate import EvolveOptions, evolve_state, evolve_unitary, rwa_unitary
from qutritcr.pulses import (
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    build_cr_schedule,
    concat,
)


@pytest.fixture(scope="module")
def pulse(device):
    return FlatTopCRPulse(device, "01", amp=0.3)


class TestFastPath:
    def test_unitary_matches_ode(self, device, pulse):
        # dual-route check: Magnus edges + plateau eigendecomposition vs
        # a tight adaptive RWA integration of the same schedule
        width = 73.0
        sched = pulse.schedule(width)
        prov = rotating_frame_hamiltonian(device, pulse.frame, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        u_ode = evolve_unitary(prov, 0.0, sched.duration, opts)
        assert np.max(np.abs(pulse.unitary(width) - u_ode)) < 1e-7

    def test_bare_frame_conversion(self, device, pulse):
        width = 40.0
        sched = pulse.schedule(width)
        bare = FrameSpec.bare(device)
        prov = rotating_frame_hamiltonian(device, bare, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        psi_ode = evolve_state(prov, ket2(0, 0), 0.0, sched.duration, opts)
        psi_fast = pulse.unitary(width, frame=bare) @ ket2(0, 0)
        assert np.max(np.abs(psi_fast - psi_ode)) < 1e-6

    def test_unitarity(self, pulse):
        for width in (0.0, 11.5, 200.0):
            assert unitary_defect(pulse.unitary(width)) < 1e-8

    def test_plateau_hamiltonian_static(self, device, pulse):
        # in the drive frame the RWA plateau Hamiltonian is constant
        h = pulse.plateau_hamiltonian()
        assert herm_defect(h) < 1e-12
        sched = pulse.schedule(100.0)
        prov = rotating_frame_hamiltonian(device, pulse.frame, sched, rwa=True)
        for t in (30.0, 60.0, 100.0):
            assert np.max(np.abs(prov(t) - h)) < 1e-9

    def test_states_after_matches_unitary(self, pulse):
        widths = np.array([0.0, 25.0, 50.0])
        psi0 = ket2(1, 0)
        states = pulse.states_after(psi0, widths)
        for w, psi in zip(widths, states):
            assert np.max(np.abs(psi - pulse.unitary(w) @ psi0)) < 1e-10

    def test_width_additivity_on_plateau(self, pulse):
        # plateau is generated by a constant H: widths add
        u1 = pulse.unitary(30.0)
        u2 = pulse.unitary(70.0)
        # rise/fall cancel: U(w2) U(w1)^-1 = fall P(w2-w1) fall^-1
        m = u2 @ u1.conj().T
        assert unitary_defect(m) < 1e-8


class TestRWAUnitary:
    def test_drag_pulse_matches_bare_frame_ode(self, device):
        # the frame change must land in the bare frame: a bare-frame RWA
        # integration of the same DRAG pulse is the oracle
        carrier = transition_frequencies(device, dressed=True).of(2, "01")
        shape = DragGaussian(amp=0.05, sigma=8.0, duration=32.0, beta=0.4)
        sched = Schedule((Play(channel=2, start=0.0, shape=shape, carrier_freq=carrier),))
        bare = FrameSpec.bare(device)
        prov = rotating_frame_hamiltonian(device, bare, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        u_ode = evolve_unitary(prov, 0.0, sched.duration, opts)
        assert np.max(np.abs(rwa_unitary(device, sched) - u_ode)) <= 1e-9

    def test_matches_flat_top_fast_path(self, device, pulse):
        width = 40.0
        u_fast = pulse.unitary(width, frame=FrameSpec.bare(device))
        u_any = rwa_unitary(device, pulse.schedule(width))
        assert np.max(np.abs(u_fast - u_any)) <= 1e-9


def _schedules(p):
    """One schedule per envelope kind, a phase shift, and a two-play concat."""
    tf = transition_frequencies(p, dressed=True)
    gauss = Schedule((Play(2, 3.0, Gaussian(amp=0.04, sigma=6.0, duration=24.0), tf.w01_2, 0.3),))
    drag = Schedule(
        (
            PhaseShift(channel=2, subspace="12", angle=0.7, start=0.0),
            Play(2, 0.0, DragGaussian(amp=0.06, sigma=8.0, duration=32.0, beta=0.5), tf.w12_2),
        )
    )
    square = build_cr_schedule(p, "01", 0.3, 15.0, phase=-0.4)
    square_shape = GaussianSquare(amp=0.2, sigma=5.0, risefall=10.0, width=4.0)
    two = concat(drag, Schedule((Play(1, 0.0, square_shape, tf.w01_2),)))
    return {"gaussian": gauss, "drag_phase": drag, "square": square, "concat": two}


_DEVICE = DeviceParams()
_SCHEDULES = _schedules(_DEVICE)
_CARRIER = transition_frequencies(_DEVICE, dressed=True).w01_2


class TestStackedHamiltonian:
    """prov(ts) must equal the scalar evaluations stacked, time by time."""

    @pytest.mark.parametrize("name", sorted(_SCHEDULES))
    @pytest.mark.parametrize(
        "frame,rwa",
        [
            (FrameSpec(_CARRIER, _CARRIER), True),
            (FrameSpec(_CARRIER, _CARRIER), False),
            (FrameSpec.bare(_DEVICE), False),
            (FrameSpec.bare(_DEVICE), True),
        ],
    )
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=90.0), min_size=1, max_size=40))
    def test_stack_equals_scalar_loop(self, name, frame, rwa, times):
        sched = _SCHEDULES[name]
        prov = rotating_frame_hamiltonian(_DEVICE, frame, sched, rwa=rwa)
        # play windows' edges, where the scalar path switches terms on and off
        edges = [t for i in sched.plays() for t in (i.start, i.end)]
        ts = np.array(times + edges)
        got = prov(ts)
        want = np.stack([prov(t) for t in ts])
        assert got.shape == (len(ts), 9, 9)
        if all(term.freq == 0.0 for w in prov._windows for term in w.terms):
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_drive_frame_stack_is_bit_identical(self, device):
        # the Magnus node grid of a CR edge: every retained term is static
        sched = build_cr_schedule(device, "12", 0.41, 100.0)
        frame = FrameSpec(*(2 * [transition_frequencies(device, dressed=True).w12_2]))
        prov = rotating_frame_hamiltonian(device, frame, sched, rwa=True)
        mids = 0.04 + 0.08 * np.arange(250)
        ts = np.concatenate([mids - np.sqrt(15.0) / 10.0 * 0.08, mids, mids + np.sqrt(15.0) / 10.0 * 0.08])
        assert np.array_equal(prov(ts), np.stack([prov(t) for t in ts]))


def _count_magnus(monkeypatch):
    # the Magnus integrator that the flat-top split in propagate calls
    calls = []
    real = propagate._stepped_unitary

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(propagate, "_stepped_unitary", counted)
    crpulse.cr_pulse.cache_clear()
    return calls


class TestPulseReuse:
    def test_rabi_sweep_integrates_edges_once(self, config, tmp_path, monkeypatch):
        calls = _count_magnus(monkeypatch)
        cmd_rabi(config, "01", (0, 1, 2), 0.37, 300.0, 32, str(tmp_path))
        assert len(calls) == 1  # the rise, shared by the three control states; the fall mirrors it

    def test_cr_tuneup_shares_rate_scan_pulse(self, device, monkeypatch):
        # CR_MAX_EVALS = 1: stage 1 plus one Nelder-Mead evaluation at amp_default
        calls = _count_magnus(monkeypatch)
        monkeypatch.setattr(calibrate, "CR_MAX_EVALS", 1)
        try:
            calibrate_cr_gate(device, "01", np.pi, 0.35)
        except CalibrationFailed:
            pass
        assert len(calls) == 1

    def test_same_settings_same_pulse(self, device):
        assert crpulse.cr_pulse(device, "12", 0.2, 20.0) is crpulse.cr_pulse(device, "12", 0.2, 20.0)
        assert crpulse.cr_pulse(device, "12", 0.2, 20.0) is not crpulse.cr_pulse(device, "12", 0.21, 20.0)


def test_dressed_carrier_diagonalized_once(device, monkeypatch):
    calls = []
    real = device_mod._dressed_energies

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(device_mod, "_dressed_energies", counted)
    device_mod._dressed_frequencies.cache_clear()
    pulse = FlatTopCRPulse(device, "12", amp=0.2)
    for width in range(10):
        pulse.schedule(float(width))
    assert len(calls) <= 1


def test_flat_top_below_the_rwa_cutoff_is_rejected():
    # with omega1 + c <= RWA_CUTOFF_GHZ the RWA keeps the counter-rotating
    # drive, so the flat top is not constant; here the 12 carrier is 1.3 GHz
    # and omega1 0.6 GHz
    p = DeviceParams(omega1=0.6, omega2=1.6)
    with pytest.raises(InvalidParams, match="not constant"):
        FlatTopCRPulse(p, "12", 0.05)
    with pytest.raises(InvalidParams, match="not constant"):
        crpulse.cr_pulse(p, "12", 0.05)
    # with the 01 carrier, 1.6 GHz, it lies above the cutoff
    assert FlatTopCRPulse(p, "01", 0.05).unitary(100.0).shape == (9, 9)
    # a 1.2 GHz carrier has 2c above the cutoff but omega1 + c = 1.8 GHz below it
    with pytest.raises(InvalidParams, match="not constant"):
        FlatTopCRPulse(DeviceParams(omega1=0.6, omega2=1.2), "01", 0.05)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(omega1=st.floats(0.3, 6.0), omega2=st.floats(0.6, 6.0), subspace=st.sampled_from(["01", "12"]))
@example(omega1=0.6, omega2=1.6, subspace="12")
@example(omega1=0.6, omega2=1.6, subspace="01")
@example(omega1=0.6, omega2=1.2, subspace="01")
def test_flat_top_is_refused_exactly_where_the_mirror_rule_refuses_its_play(omega1, omega2, subspace):
    # the pulse's flat top is constant exactly where its play, the one of
    # build_cr_schedule in the frame rotating at its carrier, is time-symmetric
    assume(abs(omega1 - omega2) > 0.05)  # the dispersive check, with room for dressed labelling
    p = DeviceParams(omega1=omega1, omega2=omega2)
    schedule = build_cr_schedule(p, subspace, 0.05, 100.0)
    play = schedule.plays()[0]
    frame = FrameSpec(play.carrier_freq, play.carrier_freq)
    if propagate._time_symmetric(p, frame, play, schedule.plays()):
        assert FlatTopCRPulse(p, subspace, 0.05).frame == frame
    else:
        with pytest.raises(InvalidParams, match="not constant"):
            FlatTopCRPulse(p, subspace, 0.05)


@pytest.mark.parametrize("width", [-50.0, -1e-12, np.nan, np.inf, -np.inf])
def test_widths_the_schedule_rejects_are_rejected(device, pulse, width):
    # a flat top of negative or non-finite width has no schedule, so no
    # propagator or states either (a NaN width gave a NaN matrix)
    with pytest.raises(InvalidParams, match="width"):
        pulse.schedule(width)
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        pulse.unitary(width)
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        pulse.unitary(width, FrameSpec.bare(device))
    psi0 = ket2(1, 0)
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        pulse.plateau_states(psi0, [10.0, width])
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        pulse.states_after(psi0, [width])


@pytest.mark.parametrize("mode", ["pulsed", "plateau"])
def test_rabi_scan_rejects_a_negative_width(device, mode):
    # a -20 ns width would report a 20 ns pulse, shorter than its two 20 ns edges
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        calibrate.run_rabi_scan(device, "01", 0.3, 0, [-20.0, 10.0], mode=mode)
