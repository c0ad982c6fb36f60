"""The operator-coefficient provider against the term-by-term formula it replaced."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcr.device import DeviceParams, FrameSpec, lowering_operator, number_diagonal, static_diagonal
from qutritcr.hamiltonian import RWA_CUTOFF_GHZ, TWO_PI, _nearest_subspace, rotating_frame_hamiltonian
from qutritcr.linalg import dag
from qutritcr.propagate import FULL_MODEL_OPTIONS, evolve_unitary
from qutritcr.pulses import (
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    concat,
)


class ReferenceHamiltonian:
    """Oracle: H_rot(t) summed term by term, one 9x9 block plus its adjoint per term.

    Each term is ``(op, matrix, freq, env, t0, span)`` and contributes
    ``env(t) exp(-2pi i freq t) matrix + h.c.`` while 0 <= t - t0 <= span,
    which for a play is its envelope's own domain; ``op`` names the operator
    the matrix is a multiple of.  The RWA drops a term by its frequency in
    the bare frame, whatever the frame.
    """

    def __init__(self, p, frame, schedule, rwa=False, cutoff=RWA_CUTOFF_GHZ):
        self.rwa, self.cutoff = rwa, cutoff
        self.const = np.diag(TWO_PI * (static_diagonal(p) - number_diagonal(frame))).astype(complex)
        self.terms = []
        a1, a2 = lowering_operator(1), lowering_operator(2)
        coupling = TWO_PI * p.coupling_j * (dag(a1) @ a2)
        self._add("J", coupling, frame.frame2 - frame.frame1, p.omega2 - p.omega1, None, 0.0, np.inf)
        for instr in schedule.plays():
            f_ch = frame.frame1 if instr.channel == 1 else frame.frame2
            sub = _nearest_subspace(p, instr.channel, instr.carrier_freq)
            phase = instr.carrier_phase + schedule.virtual_phase(instr.channel, sub, instr.start)
            shape, start = instr.shape, instr.start
            ph_co = np.pi * cmath.exp(1j * phase)
            ph_ctr = np.pi * cmath.exp(-1j * phase)

            def env_co(t, _shape=shape, _start=start, _ph=ph_co):
                return _shape.sample(t - _start).conjugate() * _ph

            def env_counter(t, _shape=shape, _start=start, _ph=ph_ctr):
                return _shape.sample(t - _start) * _ph

            low = lowering_operator(instr.channel)
            w_ch = p.omega1 if instr.channel == 1 else p.omega2
            c = instr.carrier_freq
            self._add(instr.channel, low, f_ch - c, w_ch - c, env_co, start, instr.duration)
            self._add(instr.channel, low, f_ch + c, w_ch + c, env_counter, start, instr.duration)

    def _add(self, op, m, freq, bare_freq, env, t0, span):
        if not (self.rwa and abs(bare_freq) > self.cutoff):
            self.terms.append((op, np.asarray(m, dtype=complex), freq, env, t0, span))

    def one_term_per_operator(self) -> bool:
        ops = [term[0] for term in self.terms]
        return len(ops) == len(set(ops))

    def __call__(self, t):
        h = self.const.copy()
        for _, matrix, freq, env, t0, span in self.terms:
            if not 0.0 <= t - t0 <= span:
                continue
            c = env(t) if env is not None else 1.0
            if c == 0.0:
                continue
            block = (c * cmath.exp(-2j * cmath.pi * freq * t)) * matrix
            h += block
            h += block.conj().T
        return h


_DEVICE = DeviceParams()
_CARRIERS = [
    _DEVICE.omega1,
    _DEVICE.omega1 + _DEVICE.delta1,
    _DEVICE.omega2,
    _DEVICE.omega2 + _DEVICE.delta2,
]


@st.composite
def _plays(draw, channel=None, start=None):
    channel = channel or draw(st.sampled_from([1, 2]))
    start = draw(st.floats(0.0, 10.0)) if start is None else start
    amp = draw(st.floats(-0.3, 0.3))
    kind = draw(st.sampled_from(["gaussian", "drag", "square"]))
    if kind == "square":
        rf = draw(st.floats(4.0, 12.0))
        shape = GaussianSquare(amp=amp, sigma=rf / 2.0, risefall=rf, width=draw(st.floats(0.0, 20.0)))
    else:
        duration = draw(st.floats(8.0, 40.0))
        sigma = duration / 4.0
        if kind == "gaussian":
            shape = Gaussian(amp=amp, sigma=sigma, duration=duration)
        else:
            shape = DragGaussian(amp=amp, sigma=sigma, duration=duration, beta=draw(st.floats(-1.0, 1.0)))
    carrier = draw(st.sampled_from(_CARRIERS)) + draw(st.floats(-0.05, 0.05))
    return Play(channel, start, shape, carrier, draw(st.floats(-np.pi, np.pi)))


@st.composite
def _schedules(draw):
    """A play alone, plays on both channels at once, a phase shift, or a two-play concat."""
    kind = draw(st.sampled_from(["single", "simultaneous", "phase_shift", "concat"]))
    if kind == "single":
        return Schedule((draw(_plays()),))
    if kind == "simultaneous":
        return Schedule((draw(_plays(channel=1)), draw(_plays(channel=2))))
    if kind == "phase_shift":
        play = draw(_plays(start=0.0))
        sub = draw(st.sampled_from(["01", "12"]))
        shift = PhaseShift(play.channel, sub, draw(st.floats(-np.pi, np.pi)), start=0.0)
        return Schedule((shift, play))
    first, second = draw(_plays(start=0.0)), draw(_plays(start=0.0))
    return concat(Schedule((first,)), Schedule((second,)))


@st.composite
def _cases(draw):
    sched = draw(_schedules())
    if draw(st.booleans()):
        frame = FrameSpec.bare(_DEVICE)
    else:
        carrier = sched.plays()[0].carrier_freq
        frame = FrameSpec(carrier, carrier)
    rwa = draw(st.booleans())
    end = sched.duration
    times = draw(st.lists(st.floats(-5.0, end + 5.0), min_size=1, max_size=20))
    # window edges, where terms switch on and off, and times outside every window
    edges = [t for i in sched.plays() for t in (i.start, i.end)]
    return sched, frame, rwa, np.array(times + edges + [-1.0, end + 1.0])


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_matches_term_by_term_sum(self, case):
        sched, frame, rwa, ts = case
        prov = rotating_frame_hamiltonian(_DEVICE, frame, sched, rwa=rwa)
        ref = ReferenceHamiltonian(_DEVICE, frame, sched, rwa=rwa)
        want = np.stack([ref(t) for t in ts.tolist()])
        scalar = np.stack([prov(t) for t in ts.tolist()])
        stacked = prov(ts)
        tol = 1e-15 * np.max(np.abs(want))
        if ref.one_term_per_operator():
            # each entry of H then carries one product: the same rounding
            assert np.array_equal(scalar, want)
        else:
            assert np.max(np.abs(scalar - want)) <= tol
        if ref.one_term_per_operator() and all(term[2] == 0.0 for term in ref.terms):
            assert np.array_equal(stacked, want)
        else:
            assert np.max(np.abs(stacked - want)) <= tol

    def test_full_model_propagator_matches(self):
        shape = DragGaussian(amp=0.06, sigma=8.0, duration=32.0, beta=0.4)
        sched = Schedule((Play(2, 0.0, shape, _DEVICE.omega2, 0.3),))
        frame = FrameSpec.bare(_DEVICE)
        u_new = evolve_unitary(rotating_frame_hamiltonian(_DEVICE, frame, sched), 0.0, 32.0, FULL_MODEL_OPTIONS)
        u_ref = evolve_unitary(ReferenceHamiltonian(_DEVICE, frame, sched), 0.0, 32.0, FULL_MODEL_OPTIONS)
        assert np.max(np.abs(u_new - u_ref)) <= 1e-9

    def test_play_end_is_inside_its_window(self):
        # start + duration rounds up here, so end - start > duration: the window
        # must follow the envelope's own domain instead of raising OutOfRange
        shape = Gaussian(amp=0.1, sigma=3.7233564513689115, duration=14.893425805475646)
        play = Play(1, 1.5882182599679986, shape, _DEVICE.omega1)
        assert play.end - play.start > shape.duration
        prov = rotating_frame_hamiltonian(_DEVICE, FrameSpec.bare(_DEVICE), Schedule((play,)))
        ts = np.array([play.start, play.end])
        assert np.array_equal(prov(ts), np.stack([prov(t) for t in ts.tolist()]))


class TestDriveSplit:
    @pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
    @pytest.mark.parametrize("carrier_frame", [True, False], ids=["carrier_frame", "bare_frame"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sched=_schedules(), times=st.lists(st.floats(0.0, 120.0), min_size=1, max_size=20))
    def test_split_reproduces_h(self, rwa, carrier_frame, sched, times):
        # every provider splits: one real envelope for a lone Gaussian or
        # Gaussian-square play under the RWA in its carrier frame, and two
        # per operator with a time-varying term otherwise (the reference's
        # kept terms that are a play's or oscillate in this frame)
        carrier = sched.plays()[0].carrier_freq
        frame = FrameSpec(carrier, carrier) if carrier_frame else FrameSpec.bare(_DEVICE)
        prov = rotating_frame_hamiltonian(_DEVICE, frame, sched, rwa=rwa)
        plays = sched.plays()
        ref = ReferenceHamiltonian(_DEVICE, frame, sched, rwa=rwa)
        varying = [term for term in ref.terms if term[3] is not None or term[2] != 0.0]
        lone_real_play = len(plays) == 1 and not isinstance(plays[0].shape, DragGaussian)
        split = prov.drive_split()
        if len(varying) == 1 and varying[0][2] == 0.0 and lone_real_play:
            assert len(split.ops) == 1
        else:
            assert len(split.ops) == 2 * len({term[0] for term in varying})
        assert len(split.ops) == 1 or not (rwa and carrier_frame and lone_real_play)
        # window edges, where the plays switch on and off
        edges = [t for play in plays for t in (play.start, play.end)]
        ts = np.array(times + edges + [sched.duration + 1.0])
        want = prov(ts)
        got = split.h_s + np.einsum("in,ijk->njk", split.envelopes(ts), split.ops)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
