"""Integrator correctness against analytic oracles."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritcr import propagate
from qutritcr.crpulse import FlatTopCRPulse
from qutritcr.device import DeviceParams, FrameSpec, transition_frequencies
from qutritcr.hamiltonian import rotating_frame_hamiltonian
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
from qutritcr.pulses import DragGaussian, GaussianSquare, PhaseShift, Play, Schedule, build_cr_schedule, concat

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


def _traced_pieces(p, sched):
    """full_model_unitary's propagator, the [t0, t1] of every Magnus piece it
    stepped and of every DOP853 piece it ran."""
    with (
        mock.patch.object(propagate, "_stepped_unitary", wraps=propagate._stepped_unitary) as magnus,
        mock.patch.object(propagate, "evolve_unitary", wraps=propagate.evolve_unitary) as dop853,
    ):
        u = full_model_unitary(p, sched)
    return u, [call.args[1:3] for call in magnus.call_args_list], [call.args[1:3] for call in dop853.call_args_list]


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

    @pytest.mark.parametrize("carrier,steps", [(None, [(0.0, 20.0), (170.0, 190.0)]), (0.9, [(0.0, 190.0)])])
    def test_magnus_steps_a_flat_top_only_where_it_is_not_constant(self, monkeypatch, carrier, steps):
        # at 2c <= RWA_CUTOFF_GHZ the counter-rotating term is kept, so the
        # plateau is not constant and the whole play is stepped
        sched = build_cr_schedule(_DEVICE, "01", 0.3, 150.0)
        if carrier is not None:
            sched = Schedule((Play(1, 0.0, sched.plays()[0].shape, carrier),))
        calls = []
        real = propagate._stepped_unitary

        def spy(prov, t0, t1):
            calls.append((t0, t1))
            return real(prov, t0, t1)

        monkeypatch.setattr(propagate, "_stepped_unitary", spy)
        rwa_unitary(_DEVICE, sched)
        assert calls == steps

    def test_schedule_without_a_play(self, device):
        # a hand-edited store can hold one: integrated in the bare frame
        assert np.allclose(rwa_unitary(device, Schedule(())), np.eye(9), rtol=0.0, atol=1e-15)
        sched = Schedule((PhaseShift(channel=1, subspace="01", angle=0.3, start=5.0),))
        prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched, rwa=True)
        u_oracle = evolve_unitary(prov, 0.0, 5.0, ORACLE_OPTIONS)
        assert np.max(np.abs(rwa_unitary(device, sched) - u_oracle)) <= 1e-9

    def test_magnus_blocks_leave_the_product_bit_identical(self, device, monkeypatch):
        tf = transition_frequencies(device, dressed=True)
        drag = DragGaussian(0.06, 8.0, 32.0, 0.4)
        sched = Schedule((Play(1, 0.0, drag, tf.w01_1), Play(1, 32.0, drag, tf.w12_1)))
        prov = rotating_frame_hamiltonian(device, FrameSpec(tf.w01_1, tf.w01_1), sched, rwa=True)
        blocked = propagate._stepped_unitary(prov, 0.0, sched.duration)
        monkeypatch.setattr(propagate, "_MAGNUS_BLOCK", 10**6)
        assert np.array_equal(blocked, propagate._stepped_unitary(prov, 0.0, sched.duration))

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

    def test_magnus_error_falls_as_the_sixth_power_of_the_step(self, monkeypatch):
        # halving h cuts a sixth-order error 64x (a fourth-order one 16x)
        pulse = FlatTopCRPulse(_DEVICE, "01", 0.35)
        prov = rotating_frame_hamiltonian(_DEVICE, pulse.frame, pulse.schedule(100.0), rwa=True)
        rise = evolve_unitary(prov, 0.0, 20.0, EDGE_ORACLE_OPTIONS)
        errors = []
        for step in (0.4, 0.2):
            monkeypatch.setattr(propagate, "_MAGNUS_STEP", step)
            errors.append(np.max(np.abs(propagate._stepped_unitary(prov, 0.0, 20.0) - rise)))
        assert errors[0] >= 32.0 * errors[1]


def _anti_hermitian_stack(rng, norms):
    """-i H for random Hermitian 9x9 H, one per 1-norm in ``norms``."""
    a = rng.normal(size=(len(norms), 9, 9)) + 1j * rng.normal(size=(len(norms), 9, 9))
    omega = -0.5j * (a + a.conj().transpose(0, 2, 1))
    return omega * (np.asarray(norms) / np.abs(omega).sum(axis=-2).max(axis=-1))[:, None, None]


class TestUnitaryExp:
    def test_matches_scipy_expm(self, rng):
        # 1-norms past theta_9 = 2.1 are scaled and squared (8 takes two squarings)
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


def test_end_state_only_matches_the_full_history(device, cal_store, monkeypatch):
    # evolve_unitary asks solve_ivp for t1 alone instead of every step's state
    kept = [full_model_unitary(device, cal_store.get(name).schedule) for name in GATE_SET]
    solve = propagate._solve
    monkeypatch.setattr(propagate, "_solve", lambda rhs, y0, t0, t1, opts, t_eval=None: solve(rhs, y0, t0, t1, opts))
    for name, u in zip(GATE_SET, kept):
        history = full_model_unitary(device, cal_store.get(name).schedule)
        assert np.max(np.abs(u - history)) <= 1e-15, name
