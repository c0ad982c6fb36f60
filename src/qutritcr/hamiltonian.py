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
constant table.  The optional RWA drops terms whose oscillation frequency in
the bare frame (FrameSpec.bare) exceeds RWA_CUTOFF_GHZ, whatever frame H is
written in: omega_ch -/+ c for a play's co- and counter-rotating parts at
carrier c, omega2 - omega1 for the coupling.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .device import (
    DeviceParams,
    FrameSpec,
    lowering_operator,
    number_diagonal,
    static_diagonal,
    transition_frequencies,
)
from .linalg import PAIR_DIM, dag
from .pulses import Gaussian, GaussianSquare, Play, PulseShape, Schedule

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
    tf = transition_frequencies(p)
    return "01" if abs(carrier - tf.of(channel, "01")) <= abs(carrier - tf.of(channel, "12")) else "12"


def _rwa_keeps(bare_freq: float) -> bool:
    """The RWA keeps a term whose bare-frame frequency is within the cutoff."""
    return abs(bare_freq) <= RWA_CUTOFF_GHZ


def _bare_drive_frequencies(p: DeviceParams, channel: int, carrier: float) -> tuple[float, float]:
    """Bare-frame frequencies (GHz) of a drive's co- and counter-rotating
    parts: omega_ch - c and omega_ch + c."""
    w_ch = transition_frequencies(p).of(channel, "01")
    return w_ch - carrier, w_ch + carrier


def keeps_counter_rotating(p: DeviceParams, channel: int, carrier: float) -> bool:
    """Whether the RWA keeps the counter-rotating part of a drive at carrier
    c on a channel.  In the frame rotating at c on both transmons it is the
    one retained term of a lone play that oscillates (at 2c), so a
    Gaussian-square play's flat top is constant there exactly when it is
    dropped."""
    return _rwa_keeps(_bare_drive_frequencies(p, channel, carrier)[1])


def play_phase(p: DeviceParams, schedule: Schedule, instr: Play) -> float:
    """Drive phase of a play for its whole window: its carrier phase plus the
    virtual phase of its nearest subspace accumulated by its start."""
    sub = _nearest_subspace(p, instr.channel, instr.carrier_freq)
    return instr.carrier_phase + schedule.virtual_phase(instr.channel, sub, instr.start)


@dataclass(frozen=True)
class DriveSplit:
    """H(t) = h_s + sum_i envelopes(t)[i] ops[i] (``RotatingFrameHamiltonian.drive_split``)."""

    h_s: np.ndarray  # (9, 9) Hermitian, rad/ns
    ops: np.ndarray  # (m, 9, 9) Hermitian, rad/ns per unit envelope
    envelopes: Callable[[np.ndarray], np.ndarray]  # 1-d times -> (m, n) real


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
        coupling = _OscTerm(_COUPLING, frame.frame2 - frame.frame1, 1.0, False)
        self._add_window(None, 0.0, np.inf, [(coupling, p.omega2 - p.omega1)])
        for instr in self.schedule.plays():
            self._add_play(instr)

    def _add_window(self, shape, t0, span, terms):
        """Add (term, bare-frame frequency) pairs as one window; the RWA keeps
        a term by its bare-frame frequency, not by its frequency here."""
        kept = tuple(term for term, bare in terms if not self.rwa or _rwa_keeps(bare))
        if kept:
            self._windows.append(_Window(shape, t0, span, kept))

    def _add_play(self, instr: Play):
        f_ch = self.frame.frame1 if instr.channel == 1 else self.frame.frame2
        phase = play_phase(self.params, self.schedule, instr)
        # Lab drive 2pi Re[env e^{-i(2pi f_c t + phase)}] (a + a†); in the frame the
        # lowering part rotates at -f_ch.  Split into co- and counter-rotating pieces.
        op = instr.channel
        co = _OscTerm(op, f_ch - instr.carrier_freq, np.pi * cmath.exp(1j * phase), True)
        counter = _OscTerm(op, f_ch + instr.carrier_freq, np.pi * cmath.exp(-1j * phase), False)
        bare = _bare_drive_frequencies(self.params, instr.channel, instr.carrier_freq)
        self._add_window(instr.shape, instr.start, instr.duration, list(zip((co, counter), bare)))

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
            return self._assemble(self._coefficients(t.astype(float, copy=False), self._windows))
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

    def _coefficients(self, ts: np.ndarray, windows) -> np.ndarray:
        """The operator coefficients z(t) that the given windows contribute
        at a 1-d array of times, shape (n, n_ops): with every window,
        H(t) = ``_assemble(z(t))``."""
        z = np.zeros((len(ts), self._nops), dtype=complex)
        for w in windows:
            s = ts - w.t0
            on = (0.0 <= s) & (s <= w.span)
            if not on.any():
                continue
            # a window open at every node takes the basic slice: no gather/scatter copies
            rows = slice(None) if on.all() else on
            t_on = ts[rows]
            env = None if w.shape is None else w.shape.sample(s[rows])
            for term in w.terms:
                # a term static in this frame has the factor exp(0) = 1
                if env is None:
                    coef = term.scale if term.freq == 0.0 else np.exp(-2j * np.pi * term.freq * t_on)
                else:
                    coef = _scaled(env, term)
                    if term.freq != 0.0:
                        coef *= np.exp(-2j * np.pi * term.freq * t_on)
                z[rows, term.op] += coef
        return z

    def drive_split(self) -> DriveSplit:
        """H(t) = H_s + sum_i e_i(t) H_i for t >= 0 with m real envelopes e_i
        and fixed Hermitian H_i.  H_s holds every term static in this frame;
        each operator M with a term that varies in time (a play's, or one
        oscillating in this frame, the coupling's too) adds H_i.

        - m = 1: one such term, static here, with a real envelope (a lone
          Gaussian or Gaussian-square play under the RWA in its carrier
          frame).  H_1 is its scale times M, plus the conjugate.
        - m = 2 per operator otherwise: M + M^dagger and i (M - M^dagger),
          with envelopes Re z and Im z of the operator's coefficient z(t)
          over the varying terms.  A drive on one channel in a frame that
          rotates both transmons alike has m = 2; plays on both channels,
          or a frame that rotates the transmons apart, have m = 4 or 6.

        ``envelopes`` maps a 1-d array of times to the (m, n) real samples,
        0 outside every play's window."""
        static = [w.shape is None and all(term.freq == 0.0 for term in w.terms) for w in self._windows]
        driven = [w for w, fixed in zip(self._windows, static) if not fixed]
        ops = sorted({term.op for w in driven for term in w.terms})
        z = np.zeros(self._nops, dtype=complex)
        for w, fixed in zip(self._windows, static):
            for term in w.terms if fixed else ():
                z[term.op] += term.scale
        # M + M^dagger and i (M - M^dagger) of each operator
        pairs = self._table.view(complex).reshape(-1, PAIR_DIM, PAIR_DIM)[[2 * op + k for op in ops for k in (0, 1)]]
        terms = [term for w in driven for term in w.terms]
        if len(terms) == 1 and terms[0].freq == 0.0 and isinstance(driven[0].shape, (Gaussian, GaussianSquare)):
            play, scale = driven[0], terms[0].scale

            def envelopes(ts: np.ndarray) -> np.ndarray:
                s = ts - play.t0
                on = (0.0 <= s) & (s <= play.span)
                e = np.zeros((1, len(ts)))
                e[0, on] = play.shape.sample(s[on]).real
                return e

            return DriveSplit(self._assemble(z), (scale.real * pairs[0] + scale.imag * pairs[1])[None], envelopes)

        def envelopes(ts: np.ndarray) -> np.ndarray:
            # rows Re z, Im z of each operator in turn, as ``pairs``
            coef = self._coefficients(ts, driven)[:, ops].T
            return np.stack([coef.real, coef.imag], axis=1).reshape(-1, len(ts))

        return DriveSplit(self._assemble(z), pairs, envelopes)

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
