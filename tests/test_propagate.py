"""Integrator correctness against analytic oracles."""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritcr import propagate
from qutritcr.crpulse import FlatTopCRPulse
from qutritcr.device import DeviceParams, FrameSpec, reframe, transition_frequencies
from qutritcr.hamiltonian import DriveSplit, RotatingFrameHamiltonian, rotating_frame_hamiltonian
from qutritcr.linalg import expm_unitary, ket2, unitary_defect
from qutritcr.propagate import (
    EvolveOptions,
    evolve_state,
    evolve_trace,
    evolve_unitary,
    full_model_unitary,
    rwa_unitary,
)
from qutritcr.experiments import GATE_SET
from qutritcr.pulses import DragGaussian, Gaussian, GaussianSquare, PhaseShift, Play, Schedule, build_cr_schedule, concat

TWO_PI = 2.0 * np.pi

_DEVICE = DeviceParams()
# drive period T = 1/(2c) of a CR tone at the target's dressed transition c
_PERIOD = {sub: 0.5 / transition_frequencies(_DEVICE, dressed=True).of(2, sub) for sub in ("01", "12")}
ORACLE_OPTIONS = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13)
EDGE_ORACLE_OPTIONS = EvolveOptions(rel_tol=1e-12, abs_tol=1e-14)
# max |U - U_oracle| of full_model_unitary on a CR play: the DOP853 period's
# error, raised to the n-th power (the stored cr01_pi reads 2.5e-8; the
# whole-schedule DOP853 that preceded it read 4.9e-8)
FULL_MODEL_ERR = 4.9e-8


def const(h):
    return lambda t: h


def random_hamiltonian(rng, scale=0.1):
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    return TWO_PI * scale * (a + a.conj().T) / 2.0


class TestEvolveState:
    def test_zero_hamiltonian(self):
        # [TRIVIAL: null generator]
        psi = evolve_state(const(np.zeros((9, 9))), ket2(1, 2), 0.0, 50.0)
        assert np.allclose(psi, ket2(1, 2), atol=1e-12)

    def test_eigenstate_phase(self):
        # [TRIVIAL: eigenstate phase] constant diagonal entry E
        e = 0.83
        h = np.zeros((9, 9), dtype=complex)
        h[4, 4] = e
        psi = evolve_state(const(h), ket2(1, 1), 0.0, 30.0)
        assert abs(psi[4] - np.exp(-1j * e * 30.0)) < 1e-8

    def test_analytic_rabi(self):
        # [DERIVED] analytic Rabi formula: P1 = sin^2(Omega t / 2)
        omega = TWO_PI * 0.01
        h = np.zeros((9, 9), dtype=complex)
        h[0, 1] = h[1, 0] = omega / 2.0
        psi = evolve_state(const(h), ket2(0, 0), 0.0, 25.0)
        p1 = abs(psi[1]) ** 2
        assert abs(p1 - np.sin(omega * 25.0 / 2.0) ** 2) < 1e-6
        assert abs(p1 - 0.5) < 1e-6

    def test_norm_drift_over_1us(self, rng):
        # norm preserved to 1e-8 over a microsecond of generic evolution
        h = random_hamiltonian(rng)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13)
        psi = evolve_state(const(h), ket2(0, 0), 0.0, 1000.0, opts)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-8

    def test_composition(self, rng):
        # evolve [0,T] == evolve [0,T/2] then [T/2,T] (spec 1e-8)
        h = random_hamiltonian(rng)
        full = evolve_state(const(h), ket2(0, 1), 0.0, 80.0)
        half = evolve_state(const(h), ket2(0, 1), 0.0, 40.0)
        split = evolve_state(const(h), half, 40.0, 80.0)
        assert np.max(np.abs(full - split)) < 1e-8

    def test_time_reversal(self, rng):
        # forward then under the time-reversed provider returns psi0 (1e-6)
        h = random_hamiltonian(rng)

        def forward(t):
            return h * np.cos(0.05 * t)

        def backward(t):
            return -forward(80.0 - t)

        psi1 = evolve_state(forward, ket2(2, 0), 0.0, 80.0)
        psi0 = evolve_state(backward, psi1, 0.0, 80.0)
        assert np.max(np.abs(psi0 - ket2(2, 0))) < 1e-6


class TestEvolveUnitary:
    def test_zero_hamiltonian(self):
        # [TRIVIAL]
        u = evolve_unitary(const(np.zeros((9, 9))), 0.0, 10.0)
        assert np.allclose(u, np.eye(9), atol=1e-10)

    def test_matches_expm(self, rng):
        # [DERIVED] oracle: eigendecomposition exponential, within 1e-7
        h = random_hamiltonian(rng)
        u = evolve_unitary(const(h), 0.0, 60.0)
        assert np.max(np.abs(u - expm_unitary(h, 60.0))) < 1e-7

    def test_column_consistency(self, rng):
        # [TRIVIAL: definition consistency] columns = evolved basis states
        h = random_hamiltonian(rng)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13)
        u = evolve_unitary(const(h), 0.0, 40.0, opts)
        for k in (0, 4, 8):
            e = np.zeros(9, dtype=complex)
            e[k] = 1.0
            col = evolve_state(const(h), e, 0.0, 40.0, opts)
            assert np.max(np.abs(u[:, k] - col)) < 1e-9


class TestFrameIndependence:
    def test_populations_frame_invariant(self, device):
        # populations agree between bare frame and drive frame on a CR pulse
        from qutritcr.hamiltonian import rotating_frame_hamiltonian
        from qutritcr.pulses import build_cr_schedule

        sched = build_cr_schedule(device, "01", 0.2, 60.0)
        psi0 = ket2(0, 0)
        carrier = sched.plays()[0].carrier_freq
        results = []
        for frame in (FrameSpec.bare(device), FrameSpec(carrier, carrier)):
            prov = rotating_frame_hamiltonian(device, frame, sched, rwa=True)
            psi = evolve_state(prov, psi0, 0.0, sched.duration, EvolveOptions(max_step=0.1))
            results.append(np.abs(psi) ** 2)
        assert np.max(np.abs(results[0] - results[1])) < 1e-8


class TestTraceAndPopulations:
    def test_trace_grid(self, rng):
        h = random_hamiltonian(rng)
        grid = np.linspace(0.0, 50.0, 11)
        states = evolve_trace(const(h), ket2(0, 0), grid)
        assert states.shape == (11, 9)
        assert np.max(np.abs(states[-1] - evolve_state(const(h), ket2(0, 0), 0.0, 50.0))) < 1e-7


def _stepped(split, t0, t1, step=propagate._MAGNUS_STEP):
    """Magnus over the whole ``_grid`` of [t0, t1] at steps of at most ``step`` ns."""
    return propagate._stepped_unitary(split, *propagate._grid(t0, t1, step))


def _magnus_calls(model, *args):
    """model(*args), and the (t0, t1, steps, dt) of every Magnus call it
    made: the [t0, t1] of the latest ``_grid``, the slice of that grid's
    steps that the call was handed (None for all of them) and its dt.  Each
    call must step a contiguous run of that grid at the grid's dt."""
    grids, calls = [], []
    grid, stepped = propagate._grid, propagate._stepped_unitary

    def spy_grid(t0, t1, step):
        dt, mids = grid(t0, t1, step)
        grids.append((t0, t1, dt, mids))
        return dt, mids

    def spy_stepped(split, dt, mids):
        t0, t1, grid_dt, grid_mids = grids[-1]
        k = int(np.searchsorted(grid_mids, mids[0]))
        assert dt == grid_dt and np.array_equal(mids, grid_mids[k : k + len(mids)])
        calls.append((t0, t1, None if len(mids) == len(grid_mids) else slice(k, k + len(mids)), dt))
        return stepped(split, dt, mids)

    with mock.patch.object(propagate, "_grid", spy_grid), mock.patch.object(propagate, "_stepped_unitary", spy_stepped):
        u = model(*args)
    return u, calls


def _traced_pieces(p, sched):
    """full_model_unitary's propagator, the [t0, t1] of every Magnus piece it
    stepped and of every DOP853 piece it ran."""
    with mock.patch.object(propagate, "evolve_unitary", wraps=propagate.evolve_unitary) as dop853:
        u, magnus = _magnus_calls(full_model_unitary, p, sched)
    return u, [call[:2] for call in magnus], [call.args[1:3] for call in dop853.call_args_list]


def _other_schedule(case):
    """A DRAG gate, two plays on two channels, or two DRAG gates in a row."""
    carrier = transition_frequencies(_DEVICE, dressed=True)
    drag = Schedule((Play(1, 0.0, DragGaussian(0.06, 2.0, 8.0, 0.4), carrier.w01_1),))
    if case == "drag":
        return drag
    if case == "two_plays":
        square = GaussianSquare(0.3, 1.5, 3.0, 2.0)
        return Schedule((Play(1, 0.0, square, carrier.w01_2), Play(2, 1.0, DragGaussian(0.05, 2.0, 8.0), carrier.w01_2)))
    second = Schedule((Play(1, 0.0, DragGaussian(0.08, 2.0, 8.0, -0.3), carrier.w12_1),))
    return concat(drag, second)


@st.composite
def _cr_plays(draw):
    sub = draw(st.sampled_from(["01", "12"]))
    period = _PERIOD[sub]
    whole = st.builds(lambda k, d: k * period + d, st.integers(1, 60), st.sampled_from([-1e-12, 0.0, 1e-12]))
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, period, exclude_max=True), whole, st.floats(0.0, 6.0)))
    return (
        sub,
        draw(st.floats(0.05, 0.5)),
        draw(st.floats(-np.pi, np.pi)),
        draw(st.sampled_from([0.0, 0.75, 2.5])),
        draw(st.floats(2.0, 6.0)),
        width,
    )


class TestFullModelUnitary:
    @pytest.mark.parametrize("sub,phase", [("01", 0.0), ("12", 0.0), ("01", 1.1), ("12", -2.3)])
    def test_drive_frame_hamiltonian_is_periodic_on_the_plateau(self, sub, phase):
        sched = build_cr_schedule(_DEVICE, sub, 0.4, 30.0, 4.0, phase)
        carrier = sched.plays()[0].carrier_freq
        prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec(carrier, carrier), sched, rwa=False)
        period = _PERIOD[sub]
        assert period == 0.5 / carrier
        ts = np.linspace(4.0, 34.0 - period, 61)
        h = np.array([prov(t) for t in ts])
        shifted = np.array([prov(t + period) for t in ts])
        assert np.max(np.abs(shifted - h)) <= 1e-12 * np.max(np.abs(h))

    @settings(max_examples=6, deadline=None)
    @given(_cr_plays())
    @example(("01", 0.4, 0.0, 0.0, 4.0, 0.0))
    @example(("12", 0.11, 1.0, 0.75, 3.0, 0.4 * _PERIOD["12"]))
    @example(("01", 0.3, -2.0, 0.0, 2.0, 37 * _PERIOD["01"]))
    @example(("01", 0.3, 2.0, 2.5, 2.0, 37 * _PERIOD["01"] + 1e-12))
    @example(("12", 0.2, 0.5, 0.0, 6.0, 23 * _PERIOD["12"] - 1e-12))
    @example(("01", 0.5, 0.0, 0.75, 2.1875, 0.0))  # 9.2e-8 with a step across the play start
    def test_matches_the_bare_frame_oracle(self, case):
        sub, amp, phase, start, risefall, width = case
        sched = build_cr_schedule(_DEVICE, sub, amp, width, risefall, phase).shifted(start)
        u, magnus, dop853 = _traced_pieces(_DEVICE, sched)
        u_oracle = evolve_unitary(
            rotating_frame_hamiltonian(_DEVICE, FrameSpec.bare(_DEVICE), sched, rwa=False),
            0.0, sched.duration, ORACLE_OPTIONS,
        )
        assert np.max(np.abs(u - u_oracle)) <= FULL_MODEL_ERR

        # Magnus steps the rise (split where the play starts), remainder and
        # fall; DOP853 runs at most one period, which the n whole periods
        # follow; they tile [0, duration] and never pass the plateau end
        a, b, period = start + risefall, start + risefall + width, _PERIOD[sub]
        *rise, rest, fall = magnus
        assert rise == ([(0.0, start), (start, a)] if start else [(0.0, a)])
        assert rest[1] == b and fall == (b, sched.duration)
        assert a <= rest[0] <= b and b - rest[0] < period + 1e-9
        assert dop853 == ([(a, a + period)] if rest[0] > a else [])

    @pytest.mark.parametrize("case", ["drag", "two_plays", "h3_concat"])
    def test_other_schedules_are_stepped_whole(self, case):
        # the whole-schedule DOP853 that preceded Magnus reads 2.1e-10, 1.8e-9
        # and 7.0e-10 here.  two_plays drives the control with a 0.3 GHz
        # square; there the rel-1e-11 oracle is itself 2.8e-10 off a rel-1e-13
        # one, and Magnus 1.9e-9 (DOP853 1.5e-9)
        bound = {"drag": 1e-10, "two_plays": 2.5e-9, "h3_concat": 1e-10}[case]
        # no DOP853, and a step boundary at every play's start and end
        pieces = {"drag": [(0.0, 8.0)], "two_plays": [(0.0, 1.0), (1.0, 8.0), (8.0, 9.0)], "h3_concat": [(0.0, 8.0), (8.0, 16.0)]}
        sched = _other_schedule(case)
        u, magnus, dop853 = _traced_pieces(_DEVICE, sched)
        assert magnus == pieces[case] and dop853 == []
        prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec.bare(_DEVICE), sched, rwa=False)
        u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
        assert np.max(np.abs(u - u_oracle)) <= bound

    def test_magnus_error_falls_as_the_sixth_power_of_the_step(self, monkeypatch):
        # doubling the step to 0.01 ns raises a sixth-order error 64x
        sched = _other_schedule("drag")
        prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec.bare(_DEVICE), sched, rwa=False)
        u_oracle = evolve_unitary(prov, 0.0, sched.duration, EDGE_ORACLE_OPTIONS)
        errors = []
        for step in (2.0 * propagate._FULL_MODEL_STEP, propagate._FULL_MODEL_STEP):
            monkeypatch.setattr(propagate, "_FULL_MODEL_STEP", step)
            errors.append(np.max(np.abs(full_model_unitary(_DEVICE, sched) - u_oracle)))
        assert errors[0] >= 32.0 * errors[1]

    def test_stored_gates_match_the_bare_frame_oracle(self, device, cal_store):
        # the whole-schedule DOP853 that preceded Magnus read 2.4e-10 on
        # x01_pi_1, 2.2e-10 on h3_1, 3.6e-8 on cr01_pi and 8.7e-9 on csx12
        bounds = {"cr01_pi": 3e-8, "csx12": 8.7e-9}
        for name in GATE_SET:
            sched = cal_store.get(name).schedule
            prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=False)
            u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
            err = np.max(np.abs(full_model_unitary(device, sched) - u_oracle))
            assert err <= bounds.get(name, 1e-10), (name, err)


class TestRWAUnitary:
    def test_stored_gates_match_the_bare_frame_oracle(self, device, cal_store):
        # the split CR gates, the DRAG gates and the two-carrier h3_1
        for name in GATE_SET:
            sched = cal_store.get(name).schedule
            prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=True)
            u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
            assert np.max(np.abs(rwa_unitary(device, sched) - u_oracle)) <= 1e-7, name

    @pytest.mark.parametrize(
        "omega1,carrier,steps",
        [(None, None, [(0.0, 20.0)]), (None, 0.9, [(0.0, 20.0)]), (0.6, 0.9, [(0.0, 190.0)])],
    )
    def test_magnus_steps_a_flat_top_only_where_it_is_not_constant(self, omega1, carrier, steps):
        # with omega1 + c <= RWA_CUTOFF_GHZ (0.6 + 0.9 GHz) the counter-rotating
        # term is kept, so the plateau is not constant and the whole play is
        # stepped; at 4.9 + 0.9 GHz the RWA drops it, and a 0.9 GHz carrier's
        # co-rotating term too
        device = _DEVICE if omega1 is None else DeviceParams(omega1=omega1, omega2=1.6)
        sched = build_cr_schedule(_DEVICE, "01", 0.3, 150.0)
        if carrier is not None:
            sched = Schedule((Play(1, 0.0, sched.plays()[0].shape, carrier),))
        _, calls = _magnus_calls(rwa_unitary, device, sched)
        assert [call[:2] for call in calls] == steps

    def test_schedule_without_a_play(self, device):
        # a hand-edited store can hold one: integrated in the bare frame
        assert np.allclose(rwa_unitary(device, Schedule(())), np.eye(9), rtol=0.0, atol=1e-15)
        sched = Schedule((PhaseShift(channel=1, subspace="01", angle=0.3, start=5.0),))
        prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=True)
        u_oracle = evolve_unitary(prov, 0.0, 5.0, ORACLE_OPTIONS)
        assert np.max(np.abs(rwa_unitary(device, sched) - u_oracle)) <= 1e-9

    def test_back_to_back_plays_are_stepped_apart(self, device):
        # at 32.1 ns the edge between the plays falls inside a 0.08 ns step
        # unless the steps split there: 1.3e-4 off when they straddle it
        tf = transition_frequencies(device, dressed=True)
        drag = DragGaussian(0.06, 8.0, 32.1, 0.4)
        sched = Schedule((Play(1, 0.0, drag, tf.w01_1), Play(1, 32.1, drag, tf.w12_1)))
        prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=True)
        u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
        assert np.max(np.abs(rwa_unitary(device, sched) - u_oracle)) <= 1e-7

    @pytest.mark.parametrize("second", [0.0, 10.0, 32.0], ids=["parallel", "staggered", "back_to_back"])
    def test_plays_on_two_channels_each_run_in_their_own_frame(self, device, second):
        # with both transmons rotating at channel 1's carrier, channel 2's
        # drive oscillates at the 0.6 GHz detuning: 1.25e-7 off under the
        # RWA.  The full model keeps that one frame, where it reads 2.3e-10
        # (2.7e-10 in per-channel frames)
        tf = transition_frequencies(device, dressed=True)
        sched = Schedule((
            Play(1, 0.0, DragGaussian(0.06, 8.0, 32.0, 0.4), tf.w01_1),
            Play(2, second, DragGaussian(0.05, 8.0, 32.0, -0.3), tf.w01_2),
        ))
        assert propagate._drive_frame(device, sched.plays()) == FrameSpec(tf.w01_1, tf.w01_2)
        for model, rwa, bound in ((rwa_unitary, True, 2e-9), (full_model_unitary, False, 2.5e-10)):
            prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=rwa)
            u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
            assert np.max(np.abs(model(device, sched) - u_oracle)) <= bound, model.__name__

    @pytest.mark.parametrize("carrier,bound", [(2.5, 8.5e-6), (3.0, 2.6e-6)])
    def test_terms_are_kept_by_their_bare_frame_frequency(self, device, carrier, bound):
        # channel 2's drive, 3.0 or 2.5 GHz below w2, is dropped and the
        # coupling, 0.6 GHz in the bare frame, is kept, though the drive
        # frame puts it at 2.4 or 1.9 GHz; kept or dropped by those
        # frequencies the terms landed 3.7e-2 and 4.5e-2 off.  The ~1e-5 left
        # is the kept coupling's oscillation against the 0.08 ns step: it
        # falls 64x per halving of the step
        tf = transition_frequencies(device, dressed=True)
        sched = Schedule((
            Play(1, 0.0, DragGaussian(0.06, 8.0, 32.0, 0.4), tf.w01_1),
            Play(2, 0.0, DragGaussian(0.05, 8.0, 32.0, -0.3), carrier),
        ))
        prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=True)
        u_oracle = evolve_unitary(prov, 0.0, sched.duration, ORACLE_OPTIONS)
        assert np.max(np.abs(rwa_unitary(device, sched) - u_oracle)) <= bound

    @pytest.mark.parametrize("sub", ["01", "12"])
    @pytest.mark.parametrize("amp", [0.2, 0.35, 0.5])
    def test_cr_edges_match_a_tight_oracle(self, sub, amp):
        # the rise and fall Magnus propagators against drive-frame DOP853
        pulse = FlatTopCRPulse(_DEVICE, sub, amp)
        u_rise, u_fall, _, _ = pulse._pieces
        sched = pulse.schedule(100.0)
        prov = rotating_frame_hamiltonian(_DEVICE, pulse.frame, sched, rwa=True)
        rise = evolve_unitary(prov, 0.0, 20.0, EDGE_ORACLE_OPTIONS)
        fall = evolve_unitary(prov, 120.0, sched.duration, EDGE_ORACLE_OPTIONS)
        assert np.max(np.abs(u_rise - rise)) <= 1.5e-9
        assert np.max(np.abs(u_fall - fall)) <= 1.5e-9

    @pytest.mark.parametrize("sub", ["01", "12"])
    @pytest.mark.parametrize(
        "amp,phase,start,shift_at",
        [
            (0.11, 0.0, 0.0, None),
            (0.4025, 0.7, 0.0, None),
            (-0.5, -2.1, 3.3, None),
            (0.4025, 0.7, 2.0, 0.5),  # a PhaseShift before the play adds to its phase
            (-0.5, 0.7, 2.0, 150.0),  # one after it leaves an idle stretch at the end
        ],
    )
    def test_mirrored_fall_matches_the_stepped_fall(self, sub, amp, phase, start, shift_at):
        c = transition_frequencies(_DEVICE, dressed=True).of(2, sub)
        play = Play(1, start, GaussianSquare(amp=amp, sigma=10.0, risefall=20.0, width=57.3), c, phase)
        shifts = () if shift_at is None else (PhaseShift(1, sub, 0.4, shift_at),)
        sched = Schedule((*shifts, play))
        u_rise, u_fall, _, _ = propagate._rwa_flat_top(_DEVICE, sched)
        prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec(c, c), sched, rwa=True)
        fall = _stepped(prov.drive_split(), start + 77.3, play.end)
        rise = _stepped(prov.drive_split(), start, start + 20.0)
        if sched.duration > play.end:
            fall = expm_unitary(prov(sched.duration), sched.duration - play.end) @ fall
        if start > 0.0:
            rise = rise @ expm_unitary(prov(0.0), start)
        assert np.max(np.abs(u_fall - fall)) <= 1e-13
        assert np.max(np.abs(u_rise - rise)) <= 1e-13

    def test_magnus_error_falls_as_the_sixth_power_of_the_step(self):
        # halving h cuts a sixth-order error 64x (a fourth-order one 16x)
        pulse = FlatTopCRPulse(_DEVICE, "01", 0.35)
        prov = rotating_frame_hamiltonian(_DEVICE, pulse.frame, pulse.schedule(100.0), rwa=True)
        rise = evolve_unitary(prov, 0.0, 20.0, EDGE_ORACLE_OPTIONS)
        errors = []
        for step in (0.4, 0.2):
            errors.append(np.max(np.abs(_stepped(prov.drive_split(), 0.0, 20.0, step) - rise)))
        assert errors[0] >= 32.0 * errors[1]


def _anti_hermitian_stack(rng, norms):
    """-i H for random Hermitian 9x9 H, one per 1-norm in ``norms``."""
    a = rng.normal(size=(len(norms), 9, 9)) + 1j * rng.normal(size=(len(norms), 9, 9))
    omega = -0.5j * (a + a.conj().transpose(0, 2, 1))
    return omega * (np.asarray(norms) / np.abs(omega).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 7, 128])
def test_pairwise_product_matches_the_loop(rng, n):
    steps = propagate._unitary_exp(_anti_hermitian_stack(rng, np.full(n, 1.0)))
    want = steps[0]
    for step in steps[1:]:
        want = step @ want
    assert np.max(np.abs(propagate._ordered_product(steps) - want)) <= 1e-14


def test_one_product_commutator_matches_two(rng):
    a, b = _anti_hermitian_stack(rng, np.geomspace(1e-3, 2.0, 8)), _anti_hermitian_stack(rng, np.geomspace(2.0, 1e-3, 8))
    got, want = propagate._commutator(a, b), a @ b - b @ a
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(got, -got.conj().transpose(0, 2, 1))


class TestUnitaryExp:
    def test_matches_scipy_expm(self, rng):
        # 1-norms past theta_18 = 1.09 are scaled and squared (8 takes three squarings)
        omega = _anti_hermitian_stack(rng, np.repeat(np.geomspace(1e-3, 8.0, 12), 4))
        got = propagate._unitary_exp(omega)
        for r, om in zip(got, omega):
            assert np.max(np.abs(r - scipy.linalg.expm(om))) <= 1e-14
            assert unitary_defect(r) <= 1e-14

    def test_each_step_is_independent_of_its_stack(self, rng):
        # one step that needs squaring among steps that do not
        omega = _anti_hermitian_stack(rng, [0.08, 1.13, 6.0, 0.08, 2.0])
        stacked = propagate._unitary_exp(omega)
        for k in range(len(omega)):
            assert np.array_equal(stacked[k], propagate._unitary_exp(omega[k : k + 1])[0])

    def test_taylor_branch_matches_scipy_expm(self, rng):
        # every 1-norm up to theta_9 = 0.0896 takes the degree-9 Taylor branch
        # (the top one a hair below it: rescaling to a norm rounds)
        top = propagate._THETA_TAYLOR9 * (1.0 - 1e-12)
        omega = _anti_hermitian_stack(rng, np.repeat(np.geomspace(1e-4, top, 12), 4))
        got = propagate._unitary_exp(omega)
        assert np.array_equal(got, propagate._taylor(omega, 9))
        for r, om in zip(got, omega):
            assert np.max(np.abs(r - scipy.linalg.expm(om))) <= 1e-15
            assert unitary_defect(r) <= 1e-15

    def test_degree_18_branch_matches_scipy_expm(self, rng):
        # every 1-norm in (theta_9, theta_18] takes T_18 unsquared; the
        # [9/9] Pade approximant it replaced read 6.7e-16 and 1.3e-15 here
        theta9, theta18 = propagate._THETA_TAYLOR9, propagate._THETA_TAYLOR18
        omega = _anti_hermitian_stack(rng, rng.uniform(theta9 * (1.0 + 1e-6), theta18 * (1.0 - 1e-12), 4096))
        got = propagate._unitary_exp(omega)
        assert np.array_equal(got, propagate._taylor(omega, 18))
        assert max(np.max(np.abs(r - scipy.linalg.expm(om))) for r, om in zip(got, omega)) <= 3e-16
        assert max(unitary_defect(r) for r in got) <= 8.9e-16

    def test_each_matrix_takes_the_branch_of_its_own_norm(self, rng):
        theta = propagate._THETA_TAYLOR9
        norms = [theta * (1.0 + 1e-6), theta * (1.0 - 1e-6), 0.03, 1.1, 3.0]
        omega = _anti_hermitian_stack(rng, norms)
        stacked = propagate._unitary_exp(omega)
        for k, norm in enumerate(norms):
            lone = omega[k : k + 1]
            assert np.array_equal(stacked[k], propagate._unitary_exp(lone)[0])
            want = propagate._taylor(lone, 9) if norm <= theta else propagate._squared_taylor18(lone, np.abs(lone).sum(axis=-2).max(axis=-1))
            assert np.array_equal(stacked[k], want[0])
        # 1.1 and 3.0 lie above theta_18 = 1.09: scaled by 2^-1 and 2^-2, then squared
        big = omega[3:]
        squared = propagate._taylor(big * np.array([0.5, 0.25])[:, None, None], 18)
        assert np.array_equal(stacked[3], squared[0] @ squared[0])
        assert np.array_equal(stacked[4], (squared[1] @ squared[1]) @ (squared[1] @ squared[1]))


def test_full_model_steps_take_the_taylor_branch_and_rwa_steps_do_not(device, cal_store, monkeypatch):
    # on the default device a full-model step's 1-norm is ~0.03-0.08 and an
    # RWA step's ~0.45-1.1; theta_9 = 0.0896 sits between them
    norms = []
    real = propagate._unitary_exp

    def spy(omega, *work):
        norms.append(np.abs(omega).sum(axis=-2).max(axis=-1))
        return real(omega, *work)

    monkeypatch.setattr(propagate, "_unitary_exp", spy)
    for model, beyond_theta in ((full_model_unitary, False), (rwa_unitary, True)):
        for name in GATE_SET:
            norms.clear()
            model(device, cal_store.get(name).schedule)
            steps = np.concatenate(norms)
            assert len(steps) > 0, name
            assert np.all((steps > propagate._THETA_TAYLOR9) == beyond_theta), (model.__name__, name)


def test_end_state_only_matches_the_full_history(device, cal_store, monkeypatch):
    # evolve_unitary asks solve_ivp for t1 alone instead of every step's state
    kept = [full_model_unitary(device, cal_store.get(name).schedule) for name in GATE_SET]
    solve = propagate._solve
    monkeypatch.setattr(propagate, "_solve", lambda rhs, y0, t0, t1, opts, t_eval=None: solve(rhs, y0, t0, t1, opts))
    for name, u in zip(GATE_SET, kept):
        history = full_model_unitary(device, cal_store.get(name).schedule)
        assert np.max(np.abs(u - history)) <= 1e-15, name


def _reference_stepped_unitary(prov, t0, t1, step):
    """The Magnus kernel before its buffers: three ``prov(ts)`` stacks of H
    at every step's nodes, the alphas from differences of H, a fresh array
    for every term, then the same exponential and pairwise products."""
    n = max(int(np.ceil((t1 - t0) / step)), 1)
    dt = (t1 - t0) / n
    offset = np.sqrt(15.0) / 10.0 * dt
    mids = t0 + dt * np.arange(n) + dt / 2.0
    block = propagate._BLOCK
    commutator = propagate._commutator
    u = None
    for k in range(0, n, block):
        h1 = prov(mids[k : k + block] - offset)
        h2 = prov(mids[k : k + block])
        h3 = prov(mids[k : k + block] + offset)
        alpha1 = (-1j * dt) * h2
        alpha2 = (-1j * np.sqrt(15.0) * dt / 3.0) * (h3 - h1)
        alpha3 = (-1j * 10.0 * dt / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = commutator(alpha1, alpha2)
        c2 = commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
        omega = alpha1 + alpha3 / 12.0 + commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
        product = propagate._ordered_product(propagate._unitary_exp(omega))
        u = product if u is None else product @ u
    return u


def _commutator_route(prov):
    """``prov``'s split with zero operators of zero envelopes added up to
    m = 3: the same H(t), stepped by ``_stepped_unitary`` through the
    per-step commutators."""
    split = prov.drive_split()
    pad = max(3 - len(split.ops), 0)
    return DriveSplit(
        split.h_s,
        np.concatenate([split.ops, np.zeros((pad, 9, 9), complex)]),
        lambda ts: np.concatenate([split.envelopes(ts), np.zeros((pad, len(ts)))]),
    )


@st.composite
def _short_plays(draw):
    """One or two short DRAG or Gaussian-square plays near the device's
    transitions: a second play on the same channel follows the first, one
    on the other channel may overlap it."""
    tf = transition_frequencies(_DEVICE, dressed=True)
    plays = []
    for _ in range(draw(st.integers(1, 2))):
        amp = draw(st.floats(-0.3, 0.3))
        if draw(st.booleans()):
            shape = DragGaussian(amp, 2.0, draw(st.floats(4.0, 10.0)), draw(st.floats(-1.0, 1.0)))
        else:
            shape = GaussianSquare(amp, 1.0, 2.0, draw(st.floats(0.0, 4.0)))
        carrier = draw(st.sampled_from([tf.w01_1, tf.w12_1, tf.w01_2, tf.w12_2])) + draw(st.floats(-0.05, 0.05))
        channel = draw(st.sampled_from([1, 2]))
        start = draw(st.floats(0.0, 6.0))
        if plays and plays[0].channel == channel:
            start += plays[0].end
        plays.append(Play(channel, start, shape, carrier, draw(st.floats(-np.pi, np.pi))))
    return Schedule(tuple(plays))


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(sched=_short_plays())
def test_kernel_matches_the_node_stack_reference(rwa, sched):
    # the coefficient table and the buffers change only roundoff
    plays = sched.plays()
    frame = propagate._drive_frame(_DEVICE, plays if rwa else plays[:1])
    prov = rotating_frame_hamiltonian(_DEVICE, frame, sched, rwa=rwa)
    step = propagate._MAGNUS_STEP if rwa else propagate._FULL_MODEL_STEP
    got = _stepped(prov.drive_split(), 0.0, sched.duration, step)
    assert np.max(np.abs(got - _reference_stepped_unitary(prov, 0.0, sched.duration, step))) <= 1e-13


@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    sub=st.sampled_from(["01", "12"]),
    amp=st.floats(0.02, 0.9),
    phase=st.floats(-np.pi, np.pi),
    risefall=st.floats(4.0, 40.0),
    lead=st.floats(0.0, 2.0),
)
def test_closed_form_rise_matches_the_commutator_path(sub, amp, phase, risefall, lead):
    # a CR rise, after an idle lead where the envelope is 0, stepped by the
    # exponent table (one real envelope) and by the per-step commutators
    sched = build_cr_schedule(_DEVICE, sub, amp, 10.0, risefall, phase).shifted(lead)
    carrier = sched.plays()[0].carrier_freq
    prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec(carrier, carrier), sched, rwa=True)
    assert len(prov.drive_split().ops) == 1
    closed = _stepped(prov.drive_split(), 0.0, lead + risefall)
    stepped = _stepped(_commutator_route(prov), 0.0, lead + risefall)
    assert np.max(np.abs(closed - stepped)) <= 1e-13


@pytest.mark.parametrize("m, words, monomials", [(1, 11, 12), (2, 72, 80)])
def test_exponent_table_sizes(m, words, monomials):
    table = propagate._exponent_table(m)
    assert len(table.words) == words
    assert table.coef.shape[1:] == (monomials, words)


_LEADS = st.one_of(st.just(0.0), st.floats(0.1, 3.0))


@st.composite
def _one_channel_plays(draw, channel):
    """One or two Gaussian, Gaussian-square or DRAG plays on one channel,
    near any transition: the first after an idle lead or none, the second
    after a gap or touching the first."""
    tf = transition_frequencies(_DEVICE, dressed=True)
    plays, start = [], draw(_LEADS)
    for _ in range(draw(st.integers(1, 2))):
        amp = draw(st.floats(-0.4, 0.4))
        kind = draw(st.sampled_from(["gaussian", "square", "drag"]))
        if kind == "gaussian":
            shape = Gaussian(amp, 1.5, draw(st.floats(3.0, 8.0)))
        elif kind == "square":
            shape = GaussianSquare(amp, 1.0, 2.0, draw(st.floats(0.0, 4.0)))
        else:
            shape = DragGaussian(amp, 2.0, draw(st.floats(4.0, 8.0)), draw(st.floats(-1.0, 1.0)))
        carrier = draw(st.sampled_from([tf.w01_1, tf.w12_1, tf.w01_2, tf.w12_2])) + draw(st.floats(-0.05, 0.05))
        plays.append(Play(channel, start, shape, carrier, draw(st.floats(-np.pi, np.pi))))
        start = plays[-1].end + draw(_LEADS)
    return plays


def _model_provider(sched, rwa):
    """The provider and step that rwa_unitary or full_model_unitary steps."""
    plays = sched.plays()
    frame = propagate._drive_frame(_DEVICE, plays if rwa else plays[:1])
    step = propagate._MAGNUS_STEP if rwa else propagate._FULL_MODEL_STEP
    return rotating_frame_hamiltonian(_DEVICE, frame, sched, rwa=rwa), step


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(plays=st.sampled_from([1, 2]).flatmap(_one_channel_plays))
def test_exponent_table_matches_the_commutator_path(rwa, plays):
    # every step's Omega, and the stepped product, agree between the
    # bracket-expanded table and the per-step commutators
    sched = Schedule(tuple(plays))
    prov, step = _model_provider(sched, rwa)
    split = prov.drive_split()
    assert len(split.ops) <= 2
    n = int(np.ceil(sched.duration / step))
    dt = sched.duration / n
    mids = dt * np.arange(n) + dt / 2.0
    matrices = propagate._exponent_matrices(split, dt)
    for k in range(0, n, propagate._BLOCK):
        mid = mids[k : k + propagate._BLOCK]
        terms = propagate._node_terms(split, mid, dt)
        want = propagate._commutator_exponents(split, terms, dt)
        got = propagate._table_exponents(terms, matrices, np.empty((len(mid), 9, 9), complex))
        scale = np.maximum(np.abs(want).sum(axis=-2).max(axis=-1), 1.0)
        assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * scale), k
    table = _stepped(split, 0.0, sched.duration, step)
    stepped = _stepped(_commutator_route(prov), 0.0, sched.duration, step)
    assert np.max(np.abs(table - stepped)) <= 1e-13


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    plays=_one_channel_plays(1),
    other=_one_channel_plays(2),
    case=st.sampled_from(["two_channels", "bare_frame", "split_frame"]),
)
def test_providers_on_two_operators_take_the_commutators(rwa, plays, other, case):
    # plays on both channels drive two operators; a frame that rotates the
    # transmons at different frequencies makes the coupling oscillate.
    # Either way the split has m > 2, and the steps take the per-step
    # commutators, not the exponent table
    carrier = plays[0].carrier_freq
    frames = {
        "two_channels": FrameSpec(carrier, other[0].carrier_freq),
        "bare_frame": FrameSpec.bare(_DEVICE),
        "split_frame": FrameSpec(carrier, carrier + 0.3),
    }
    sched = Schedule(tuple(plays + other)) if case == "two_channels" else Schedule(tuple(plays))
    prov = rotating_frame_hamiltonian(_DEVICE, frames[case], sched, rwa=rwa)
    assert len(prov.drive_split().ops) > 2
    step = propagate._MAGNUS_STEP if rwa else propagate._FULL_MODEL_STEP
    with (
        mock.patch.object(propagate, "_commutator_exponents", wraps=propagate._commutator_exponents) as commutators,
        mock.patch.object(propagate, "_table_exponents", wraps=propagate._table_exponents) as table,
    ):
        _stepped(prov.drive_split(), 0.0, 1.0, step)
    assert commutators.called and not table.called


@st.composite
def _two_channel_plays(draw):
    """A DRAG or Gaussian play on each channel, near any dressed transition
    and at any phase.  The second starts with the first, inside its window,
    at its end, or after a gap.  A Gaussian square is left out: among
    several plays its kinks fall inside steps."""
    tf = transition_frequencies(_DEVICE, dressed=True)
    first = draw(st.sampled_from([1, 2]))
    timing = draw(st.sampled_from(["parallel", "staggered", "touch", "apart"]))
    plays = []
    for channel in (first, 3 - first):
        start = draw(st.floats(0.0, 2.0))
        if plays:
            lead = plays[0]
            start = {
                "parallel": lead.start,
                "staggered": lead.start + draw(st.floats(0.1, 0.9)) * lead.duration,
                "touch": lead.end,
                "apart": lead.end + draw(st.floats(0.1, 3.0)),
            }[timing]
        amp = draw(st.floats(-0.3, 0.3))
        if draw(st.booleans()):
            shape = DragGaussian(amp, 2.0, draw(st.floats(4.0, 10.0)), draw(st.floats(-1.0, 1.0)))
        else:
            shape = Gaussian(amp, 1.5, draw(st.floats(3.0, 8.0)))
        carrier = draw(st.sampled_from([tf.w01_1, tf.w12_1, tf.w01_2, tf.w12_2])) + draw(st.floats(-0.05, 0.05))
        plays.append(Play(channel, start, shape, carrier, draw(st.floats(-np.pi, np.pi))))
    return Schedule(tuple(plays))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(sched=_two_channel_plays())
def test_plays_on_both_channels_match_the_oracle(sched):
    # the m > 2 route (``_commutator_exponents``) in both models against
    # bare-frame DOP853.  Over 520 random draws the RWA read at most 1.9e-7
    # (a median of ~4e-10: the 0.08 ns step against a 1.5 ns Gaussian in a
    # frame that rotates the transmons apart) and the full model 4.3e-9.
    # These 20 draws read 4.6e-8 and 7.0e-10, and 3.8e-6 and 7.3e-8 with
    # C_2 twice its size
    for model, rwa, bound in ((rwa_unitary, True, 3e-7), (full_model_unitary, False, 1e-8)):
        prov, _ = _model_provider(sched, rwa)
        assert len(prov.drive_split().ops) > 2
        oracle = rotating_frame_hamiltonian(_DEVICE, FrameSpec.bare(_DEVICE), sched, rwa=rwa)
        u_oracle = evolve_unitary(oracle, 0.0, sched.duration, ORACLE_OPTIONS)
        assert np.max(np.abs(model(_DEVICE, sched) - u_oracle)) <= bound, model.__name__


def test_kernel_buffers_are_kept_per_thread():
    # four threads on two cores step CR rises at once, each in its own
    # buffers: every result equals the serial one
    pulses = [FlatTopCRPulse(_DEVICE, sub, amp) for sub in ("01", "12") for amp in (0.2, 0.45)]
    splits = [rotating_frame_hamiltonian(_DEVICE, p.frame, p.schedule(100.0), rwa=True).drive_split() for p in pulses]
    grid = propagate._grid(0.0, 20.0, propagate._MAGNUS_STEP)
    want = [propagate._stepped_unitary(split, *grid) for split in splits]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(propagate._stepped_unitary, split, *grid) for split in splits * 5]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, u in enumerate(got):
        assert np.array_equal(u, want[k % len(want)]), k


def _spied_rwa_unitary(p, sched):
    """rwa_unitary's propagator and the (t0, t1, steps) of every Magnus call."""
    u, calls = _magnus_calls(rwa_unitary, p, sched)
    return u, [call[:3] for call in calls]


def _stepped_whole(p, sched):
    """rwa_unitary with every segment stepped whole: no mirror."""
    plays = sched.plays()
    drive = propagate._drive_frame(p, plays)
    prov = rotating_frame_hamiltonian(p, drive, sched, rwa=True)
    u = propagate._split_at_edges(prov.drive_split(), 0.0, sched.duration, plays, propagate._MAGNUS_STEP)
    return reframe(u, drive, FrameSpec.bare(p), sched.duration)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    channel=st.sampled_from([1, 2]),
    sub=st.sampled_from(["01", "12"]),
    amp=st.floats(-0.1, 0.1),
    beta=st.floats(-2.0, 2.0),
    phase=st.floats(-np.pi, np.pi),
    n=st.integers(2, 500),
    short=st.floats(0.05, 0.95),
    start=st.sampled_from([0.0, 0.37, 5.0, 48.1]),
)
def test_a_lone_drag_play_is_mirrored_about_its_middle(channel, sub, amp, beta, phase, n, short, start):
    # n Magnus steps, odd or even: the first n // 2 are stepped, the rest
    # mirrored, and an odd count's middle step is stepped on its own
    duration = (n - short) * propagate._MAGNUS_STEP
    carrier = transition_frequencies(_DEVICE, dressed=True).of(channel, sub)
    shape = DragGaussian(amp=amp, sigma=duration / 4.0, duration=duration, beta=beta)
    sched = Schedule((Play(channel, start, shape, carrier, phase),))
    u, calls = _spied_rwa_unitary(_DEVICE, sched)
    end = sched.plays()[0].end
    assert len(propagate._grid(start, end, propagate._MAGNUS_STEP)[1]) == n
    mirrored = [(start, end, slice(0, n // 2))] + ([(start, end, slice(n // 2, n // 2 + 1))] if n % 2 else [])
    assert calls == ([(0.0, start, None)] if start else []) + mirrored
    assert np.max(np.abs(u - _stepped_whole(_DEVICE, sched))) <= 1e-13


def test_a_play_off_its_own_frame_is_stepped_whole():
    # h3_1's second play (1-2 carrier) in its first play's frame (0-1
    # carrier) oscillates at the carriers' difference, so only the first
    # is mirrored; the frame does not rotate at the second's carrier
    tf = transition_frequencies(_DEVICE, dressed=True)
    first = Schedule((Play(1, 0.0, DragGaussian(0.0325, 8.0, 32.0, 0.31), tf.w01_1),))
    second = Schedule((Play(1, 0.0, DragGaussian(0.0256, 8.0, 32.0, -0.47), tf.w12_1, 0.4),))
    sched = concat(first, second)
    u, calls = _spied_rwa_unitary(_DEVICE, sched)
    assert calls == [(0.0, 32.0, slice(0, 200)), (32.0, 64.0, None)]
    assert np.max(np.abs(u - _stepped_whole(_DEVICE, sched))) <= 1e-13

    plays = sched.plays()
    drive = propagate._drive_frame(_DEVICE, plays)
    assert not propagate._time_symmetric(_DEVICE, drive, plays[1], plays)


# the default device, and one whose RWA drops the coupling (omega2 - omega1
# = 2.5 GHz is above the cutoff)
_MIRROR_DEVICES = (_DEVICE, DeviceParams(omega1=4.5, omega2=7.0))


@st.composite
def _mirror_schedules(draw, p):
    """1-3 plays of every shape on either channel, at the device's four
    dressed transitions or at 3.0 GHz (whose drive the RWA drops on the
    default device's channel 2), each after the last with a gap, touching
    it or overlapping it on the other channel, and never before the end of
    its own channel's last play.  Durations are shared by
    every shape, so that two windows can coincide."""
    tf = transition_frequencies(p, dressed=True)
    carriers = [tf.of(ch, sub) for ch in (1, 2) for sub in ("01", "12")] + [3.0]
    plays = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["gaussian", "square", "drag"]))
        amp = draw(st.floats(-0.1, 0.1))
        duration = draw(st.sampled_from([8.0, 12.5, 20.0]))
        if kind == "square":
            risefall = draw(st.sampled_from([2.5, 4.0]))
            shape = GaussianSquare(amp, risefall / 2.0, risefall, duration - 2.0 * risefall)
        elif kind == "gaussian":
            shape = Gaussian(amp, duration / 4.0, duration)
        else:
            shape = DragGaussian(amp, duration / 4.0, duration, draw(st.floats(-2.0, 2.0)))
        how = draw(st.sampled_from(["gapped", "touching", "overlapping"])) if plays else None
        if how is None:
            channel, start = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0.0, 1.3]))
        elif how == "overlapping":
            channel = 3 - plays[-1].channel
            start = plays[-1].end - draw(st.sampled_from([0.3, 1.0])) * plays[-1].duration
        else:
            channel = draw(st.sampled_from([1, 2]))
            start = plays[-1].end + (2.1 if how == "gapped" else 0.0)
        # never before the end of the channel's last play
        start = max([start] + [q.end for q in plays if q.channel == channel])
        plays.append(Play(channel, start, shape, draw(st.sampled_from(carriers)), draw(st.floats(-np.pi, np.pi))))
    return Schedule(tuple(plays))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from(_MIRROR_DEVICES))
def test_every_mirror_the_rule_allows_is_exact(data, p):
    # the mirror of every play that passes _time_symmetric is the stepped
    # propagator to roundoff; a wrong rule (a frame off the play's carrier,
    # another play on inside its window) lands 1e-2 or more off
    sched = data.draw(_mirror_schedules(p))
    plays = sched.plays()
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare):
        # the flat-top route, whose plateau is exponentiated exactly: its
        # fall edge is its rise's mirror
        play, c = plays[0], plays[0].carrier_freq
        prov = rotating_frame_hamiltonian(p, FrameSpec(c, c), sched, rwa=True)
        _, u_fall, _, _ = propagate._rwa_flat_top(p, sched)
        fall = _stepped(prov.drive_split(), play.end - play.shape.risefall, play.end)
        assert np.max(np.abs(u_fall - fall)) <= 1e-13
    else:
        assert np.max(np.abs(rwa_unitary(p, sched) - _stepped_whole(p, sched))) <= 1e-13


@pytest.mark.parametrize("shape", [DragGaussian(0.05, 8.0, 32.0, 0.3), Gaussian(0.05, 8.0, 32.0)])
def test_a_play_the_rwa_drops_leaves_the_static_propagator(shape):
    # omega2 - c = 2.5 GHz and omega2 + c are above the cutoff, so the split
    # has no envelope at all and H is H_s throughout (the play is mirrored,
    # which once failed on the empty split)
    sched = Schedule((Play(2, 0.0, shape, 3.0),))
    drive = FrameSpec(3.0, 3.0)
    prov = rotating_frame_hamiltonian(_DEVICE, drive, sched, rwa=True)
    want = reframe(expm_unitary(prov(0.0), 32.0), drive, FrameSpec.bare(_DEVICE), 32.0)
    assert np.max(np.abs(rwa_unitary(_DEVICE, sched) - want)) <= 1e-12
    assert prov.drive_split().ops.shape == (0, 9, 9)
    assert propagate._time_symmetric(_DEVICE, drive, sched.plays()[0], sched.plays())


def _contract_schedule(case):
    """A CR gate after an idle lead, or one of ``_other_schedule``'s."""
    if case == "cr":
        return build_cr_schedule(_DEVICE, "01", 0.3, 30.0, 4.0, 0.7).shifted(0.75)
    return _other_schedule(case)


def _flat_top_pieces():
    return FlatTopCRPulse(_DEVICE, "12", 0.3)._pieces


_MODEL_CALLS = [
    (model, case, step)
    for model, step in ((rwa_unitary, propagate._MAGNUS_STEP), (full_model_unitary, propagate._FULL_MODEL_STEP))
    for case in ("cr", "drag", "two_plays", "h3_concat")
] + [(_flat_top_pieces, None, propagate._MAGNUS_STEP)]


@pytest.mark.parametrize("model,case,step", _MODEL_CALLS, ids=lambda x: getattr(x, "__name__", x))
def test_each_model_call_builds_one_split_and_names_its_step(model, case, step):
    # the split is built once and handed to every piece; no Magnus step is
    # longer than the model's, and each call is handed a contiguous run of
    # its piece's grid (``_magnus_calls``)
    real = RotatingFrameHamiltonian.drive_split
    with mock.patch.object(RotatingFrameHamiltonian, "drive_split", autospec=True, side_effect=real) as builds:
        _, calls = _magnus_calls(model, *(() if case is None else (_DEVICE, _contract_schedule(case))))
    assert builds.call_count == 1
    assert calls and all(dt <= step for *_, dt in calls)
