"""Time-dependent rotating-frame Hamiltonian built from a pulse schedule.

The provider represents H_rot(t) = R(t) (H0 + H_drive(t)) R(t)† - F with
R(t) = exp(i F t), F = 2pi (frame1 n1 + frame2 n2).  Because F is diagonal,
every matrix element just picks up a known oscillation frequency, so the
Hamiltonian decomposes into a static diagonal plus a short list of terms
``coeff(t) * exp(-2pi i f t) * M + h.c.``.  Only three operators M occur:
the coupling a1† a2 and each channel's lowering operator.  The terms of one
operator sum to a complex coefficient z(t), and

    H(t) = const + Re z (M + M†) + Im z i(M - M†)

summed over the operators: one small product of the coefficients with a
constant table.  The optional RWA drops terms whose total oscillation
frequency exceeds RWA_CUTOFF_GHZ.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .device import (
    DeviceParams,
    FrameSpec,
    lowering_operator,
    number_diagonal,
    static_diagonal,
)
from .linalg import PAIR_DIM, dag
from .pulses import Play, PulseShape, Schedule

TWO_PI = 2.0 * np.pi

RWA_CUTOFF_GHZ = 2.0

# Operator indices: the coupling a1† a2, then the lowering operator of channel 1 and of 2.
_COUPLING = 0


@dataclass(frozen=True)
class _OscTerm:
    op: int  # index of the operator M this term multiplies
    freq: float  # GHz; adds scale * env(t) * exp(-2pi i freq t) to the coefficient of M
    scale: complex  # rad/ns
    conj: bool  # the envelope enters conjugated


@dataclass(frozen=True)
class _Window:
    """Terms that share one envelope sample: a play's co- and counter-rotating parts."""

    shape: PulseShape | None  # None means constant 1
    t0: float
    span: float  # on while 0 <= t - t0 <= span: the envelope's own domain
    terms: tuple[_OscTerm, ...]


def _scaled(env: np.ndarray, term: _OscTerm) -> np.ndarray:
    """(conj(env) if term.conj else env) * term.scale for an array of envelope
    samples, each rounded as Python rounds that complex product.  numpy's
    complex multiply may fuse it (FMA) and differ in the last bit."""
    er, ei = env.real, (-env.imag if term.conj else env.imag)
    sr, si = term.scale.real, term.scale.imag
    c = np.empty(len(er), dtype=complex)
    c.real = er * sr - ei * si
    c.imag = er * si + ei * sr
    return c


def _nearest_subspace(p: DeviceParams, channel: int, carrier: float) -> str:
    """Which virtual-phase frame a pulse belongs to, by carrier proximity."""
    w01 = p.omega1 if channel == 1 else p.omega2
    w12 = w01 + (p.delta1 if channel == 1 else p.delta2)
    return "01" if abs(carrier - w01) <= abs(carrier - w12) else "12"


class RotatingFrameHamiltonian:
    """Callable t (ns) -> 9x9 Hermitian H_rot(t) in rad/ns; an array of n times
    gives the (n, 9, 9) stack."""

    def __init__(
        self,
        p: DeviceParams,
        frame: FrameSpec,
        schedule: Schedule | None = None,
        rwa: bool = False,
    ):
        self.params = p
        self.frame = frame
        self.schedule = schedule or Schedule()
        self.rwa = rwa

        a1, a2 = lowering_operator(1), lowering_operator(2)
        ops = (TWO_PI * p.coupling_j * (dag(a1) @ a2), a1, a2)
        # rows 2k and 2k+1 pair with Re z_k and Im z_k of the real view of z
        table = np.stack([m for op in ops for m in (op + dag(op), 1j * (op - dag(op)))])
        self._table = table.reshape(len(table), PAIR_DIM * PAIR_DIM).view(float)
        diagonal = TWO_PI * (static_diagonal(p) - number_diagonal(frame))
        self._const = np.diag(diagonal).astype(complex).reshape(-1)
        self._nops = len(ops)
        self._windows: list[_Window] = []

        # Exchange coupling J (a1† a2 + h.c.); a1† rotates at +frame1, a2 at -frame2.
        self._add_window(None, 0.0, np.inf, [_OscTerm(_COUPLING, frame.frame2 - frame.frame1, 1.0, False)])
        for instr in self.schedule.plays():
            self._add_play(instr)
        self._terms = [term for w in self._windows for term in w.terms]

    def _add_window(self, shape, t0, span, terms):
        kept = tuple(term for term in terms if not (self.rwa and abs(term.freq) > RWA_CUTOFF_GHZ))
        if kept:
            self._windows.append(_Window(shape, t0, span, kept))

    def _add_play(self, instr: Play):
        p = self.params
        f_ch = self.frame.frame1 if instr.channel == 1 else self.frame.frame2
        sub = _nearest_subspace(p, instr.channel, instr.carrier_freq)
        phase = instr.carrier_phase + self.schedule.virtual_phase(instr.channel, sub, instr.start)
        # Lab drive 2pi Re[env e^{-i(2pi f_c t + phase)}] (a + a†); in the frame the
        # lowering part rotates at -f_ch.  Split into co- and counter-rotating pieces.
        op = instr.channel
        co = _OscTerm(op, f_ch - instr.carrier_freq, np.pi * cmath.exp(1j * phase), True)
        counter = _OscTerm(op, f_ch + instr.carrier_freq, np.pi * cmath.exp(-1j * phase), False)
        self._add_window(instr.shape, instr.start, instr.duration, [co, counter])

    def __call__(self, t):
        """H_rot(t) for a float t; for a 1-d numpy array of times, the (n, 9, 9) stack.

        Both paths take each envelope from the same ``sample``: the float path
        one float at a time, the stack once per window on all its nodes, with
        the same exp and operations, so the samples agree bit for bit.  The
        stack scales them by each term's factor as Python rounds a complex
        product, and both paths sum the same operator coefficients through
        the same product.  Every matrix of the stack therefore equals the
        float evaluation at that time up to the last bit of the oscillation
        factors (bit-identical when all of them are 1, as in a drive frame
        under the RWA).
        """
        if isinstance(t, np.ndarray) and t.ndim:
            return self._stack(t.astype(float, copy=False))
        z = [0j] * self._nops
        for w in self._windows:
            s = t - w.t0
            if not 0.0 <= s <= w.span:
                continue
            env = 1.0 if w.shape is None else w.shape.sample(s)
            if env == 0.0:
                continue
            for term in w.terms:
                c = (env.conjugate() if term.conj else env) * term.scale
                z[term.op] += c * cmath.exp(-2j * cmath.pi * term.freq * t)
        return self._assemble(np.array(z))

    def _stack(self, ts: np.ndarray) -> np.ndarray:
        z = np.zeros((len(ts), self._nops), dtype=complex)
        for w in self._windows:
            s = ts - w.t0
            on = (0.0 <= s) & (s <= w.span)
            if not on.any():
                continue
            # a window open at every node takes the basic slice: no gather/scatter copies
            rows = slice(None) if on.all() else on
            t_on = ts[rows]
            env = None if w.shape is None else w.shape.sample(s[rows])
            for term in w.terms:
                coef = np.exp(-2j * np.pi * term.freq * t_on)
                if env is not None:
                    coef = _scaled(env, term) * coef
                z[rows, term.op] += coef
        return self._assemble(z)

    def _assemble(self, z: np.ndarray) -> np.ndarray:
        """const + [Re z, Im z] @ table for coefficients z of shape (..., n_ops)."""
        h = (z.view(float) @ self._table).view(complex)
        h += self._const
        return h.reshape(*z.shape[:-1], PAIR_DIM, PAIR_DIM)


def rotating_frame_hamiltonian(
    p: DeviceParams,
    frame: FrameSpec,
    schedule: Schedule | None = None,
    rwa: bool = False,
) -> RotatingFrameHamiltonian:
    """Build the time-dependent Hamiltonian provider for a schedule."""
    return RotatingFrameHamiltonian(p, frame, schedule, rwa=rwa)
