"""Time-dependent rotating-frame Hamiltonian built from a pulse schedule.

The provider represents H_rot(t) = R(t) (H0 + H_drive(t)) R(t)† - F with
R(t) = exp(i F t), F = 2pi (frame1 n1 + frame2 n2).  Because F is diagonal,
every matrix element just picks up a known oscillation frequency, so the
Hamiltonian decomposes into a static diagonal plus a short list of terms
``coeff(t) * exp(-2pi i f t) * M + h.c.``.  The optional RWA drops terms
whose total oscillation frequency exceeds a cutoff (default 2 GHz).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .device import (
    DeviceParams,
    FrameSpec,
    destroy,
    lowering_operator,
    number_diagonal,
    static_diagonal,
)
from .linalg import PAIR_DIM, QUTRIT_DIM, dag, kron
from .pulses import Play, Schedule

TWO_PI = 2.0 * np.pi

RWA_CUTOFF_GHZ = 2.0


@dataclass
class _OscTerm:
    matrix: np.ndarray  # rad/ns scale included
    freq: float  # GHz; contribution matrix * env(t) * exp(-2pi i freq t) + h.c.
    env: Callable[[float], complex] | None  # None means constant 1
    t0: float
    t1: float

    def active(self, t: float) -> bool:
        return self.t0 <= t <= self.t1


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
        cutoff: float = RWA_CUTOFF_GHZ,
    ):
        self.params = p
        self.frame = frame
        self.schedule = schedule or Schedule()
        self.rwa = rwa
        self.cutoff = cutoff

        self._const = np.diag(TWO_PI * (static_diagonal(p) - number_diagonal(frame))).astype(
            complex
        )
        self._terms: list[_OscTerm] = []

        # Exchange coupling J (a1† a2 + h.c.); a1† rotates at +frame1, a2 at -frame2.
        a1, a2 = lowering_operator(1), lowering_operator(2)
        self._add_term(
            TWO_PI * p.coupling_j * (dag(a1) @ a2),
            frame.frame2 - frame.frame1,
            None,
            0.0,
            np.inf,
        )

        for instr in self.schedule.plays():
            self._add_play(instr)

    def _add_term(self, m, freq, env, t0, t1):
        if self.rwa and abs(freq) > self.cutoff:
            return
        self._terms.append(_OscTerm(np.asarray(m, dtype=complex), freq, env, t0, t1))

    def _add_play(self, instr: Play):
        p = self.params
        f_ch = self.frame.frame1 if instr.channel == 1 else self.frame.frame2
        low = lowering_operator(instr.channel)
        sub = _nearest_subspace(p, instr.channel, instr.carrier_freq)
        phase = instr.carrier_phase + self.schedule.virtual_phase(instr.channel, sub, instr.start)
        shape, start = instr.shape, instr.start
        # Lab drive 2pi Re[env e^{-i(2pi f_c t + phase)}] (a + a†); in the frame the
        # lowering part rotates at -f_ch.  Split into co- and counter-rotating pieces.

        ph_co = np.pi * cmath.exp(1j * phase)
        ph_ctr = np.pi * cmath.exp(-1j * phase)

        def env_co(t, _shape=shape, _start=start, _ph=ph_co):
            return _shape.sample(t - _start).conjugate() * _ph

        def env_counter(t, _shape=shape, _start=start, _ph=ph_ctr):
            return _shape.sample(t - _start) * _ph

        self._add_term(low, f_ch - instr.carrier_freq, env_co, start, instr.end)
        self._add_term(low, f_ch + instr.carrier_freq, env_counter, start, instr.end)

    def __call__(self, t):
        """H_rot(t) for a float t; for a 1-d numpy array of times, the (n, 9, 9) stack.

        The stack is assembled term by term exactly as the scalar path adds
        them, with each envelope sampled by its scalar ``sample``, so every
        matrix equals the scalar evaluation at that time up to the last bit of
        the oscillation factors (bit-identical when all of them are 1, as in
        a drive frame under the RWA).  Floats keep the scalar loop, which is
        the faster of the two for one time.
        """
        if isinstance(t, np.ndarray) and t.ndim:
            return self._stack(t.astype(float, copy=False))
        h = self._const.copy()
        for term in self._terms:
            if not term.active(t):
                continue
            c = term.env(t) if term.env is not None else 1.0
            if c == 0.0:
                continue
            block = (c * cmath.exp(-2j * cmath.pi * term.freq * t)) * term.matrix
            h += block
            h += block.conj().T
        return h

    def _stack(self, ts: np.ndarray) -> np.ndarray:
        hs = np.repeat(self._const[None], len(ts), axis=0)
        for term in self._terms:
            on = (term.t0 <= ts) & (ts <= term.t1)
            if term.env is None:
                c = np.ones(len(ts), dtype=complex)
            else:
                c = np.zeros(len(ts), dtype=complex)
                c[on] = [term.env(t) for t in ts[on].tolist()]
            on &= c != 0.0
            if not on.any():
                continue
            # a term on at every node takes the basic slice: no gather/scatter copies
            rows = slice(None) if on.all() else on
            coef = c[rows] * np.exp(-2j * np.pi * term.freq * ts[rows])
            block = coef[:, None, None] * term.matrix
            hs[rows] += block
            hs[rows] += block.conj().transpose(0, 2, 1)
        return hs


def rotating_frame_hamiltonian(
    p: DeviceParams,
    frame: FrameSpec,
    schedule: Schedule | None = None,
    rwa: bool = False,
    cutoff: float = RWA_CUTOFF_GHZ,
) -> RotatingFrameHamiltonian:
    """Build the time-dependent Hamiltonian provider for a schedule."""
    return RotatingFrameHamiltonian(p, frame, schedule, rwa=rwa, cutoff=cutoff)
