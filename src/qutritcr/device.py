"""Two coupled three-level Duffing transmons: parameters and Hamiltonians.

Conventions
-----------
* Configuration and reporting use cyclic units (GHz, ns); internal dynamics
  use angular rad/ns.  The factor 2*pi is applied exactly once, when a
  Hamiltonian matrix is built.
* H0 / 2pi = sum_i [omega_i n_i + (delta_i/2) n_i (n_i - 1)]
             + J (a1† a2 + a1 a2†),
  truncated to three levels per transmon, a|n> = sqrt(n)|n-1>.
  Under this convention the 1->2 transition of transmon i sits at
  omega_i + delta_i (delta negative).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import InvalidParams
from .linalg import PAIR_DIM, QUTRIT_DIM, dag, kron

TWO_PI = 2.0 * np.pi

_CONFIG_KEYS = {
    "omega1_ghz": "omega1",
    "omega2_ghz": "omega2",
    "delta1_ghz": "delta1",
    "delta2_ghz": "delta2",
    "j_ghz": "coupling_j",
    "levels": "levels",
}


def read_json_object(path: str) -> dict:
    """The JSON object in the config file at path; InvalidParams if the file
    holds bad JSON or another JSON value."""
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InvalidParams(f"config {path} must hold a JSON object")
    return d


@dataclass(frozen=True)
class DeviceParams:
    """Device parameters in cyclic GHz (omega_i = w_i/2pi, etc.)."""

    omega1: float = 4.9
    omega2: float = 5.5
    delta1: float = -0.4
    delta2: float = -0.3
    coupling_j: float = 0.0027
    levels: int = 3

    def __post_init__(self):
        for key, attr in _CONFIG_KEYS.items():
            value = getattr(self, attr)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise InvalidParams(f"device {key} must be a finite number, got {value!r}")
        if self.levels != 3:
            raise InvalidParams(f"only 3-level transmons supported, got levels={self.levels}")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise InvalidParams("transmon frequencies must be positive")
        if self.delta1 >= 0 or self.delta2 >= 0:
            raise InvalidParams("anharmonicities must be negative")
        if self.coupling_j <= 0:
            raise InvalidParams("coupling strength must be positive")
        if abs(self.coupling_j) >= abs(self.omega1 - self.omega2) / 10.0:
            raise InvalidParams("coupling too strong for the dispersive regime")

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceParams":
        if not isinstance(d, dict):
            raise InvalidParams(f"device config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise InvalidParams(f"unknown device config keys: {sorted(unknown)}")
        kwargs = {attr: d[key] for key, attr in _CONFIG_KEYS.items() if key in d}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "DeviceParams":
        return cls.from_dict(read_json_object(path))

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for key, attr in _CONFIG_KEYS.items()}


@dataclass(frozen=True)
class FrameSpec:
    """Rotating-frame frequencies (GHz) applied to each transmon's number operator."""

    frame1: float
    frame2: float

    def __post_init__(self):
        if not (np.isfinite(self.frame1) and np.isfinite(self.frame2)):
            raise InvalidParams("frame frequencies must be finite")
        if self.frame1 < 0 or self.frame2 < 0:
            raise InvalidParams("frame frequencies must be non-negative")

    @classmethod
    def bare(cls, p: DeviceParams) -> "FrameSpec":
        return cls(p.omega1, p.omega2)


def destroy() -> np.ndarray:
    """Single-transmon annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, QUTRIT_DIM)).astype(complex), k=1)


def lowering_operator(which: int) -> np.ndarray:
    """a on the chosen transmon, identity on the other (9x9)."""
    if which == 1:
        return kron(destroy(), np.eye(QUTRIT_DIM))
    if which == 2:
        return kron(np.eye(QUTRIT_DIM), destroy())
    raise InvalidParams(f"transmon index must be 1 or 2, got {which}")


def drive_operator(p: DeviceParams, which: int) -> np.ndarray:
    """Charge drive operator (a + a†) on one transmon, 9x9.

    Matrix elements: 1 on 0<->1 and sqrt(2) on 1<->2 of the driven transmon.
    """
    low = lowering_operator(which)
    return low + dag(low)


# Total excitation number n1 + n2 per basis index 3 q1 + q2.  The coupling
# conserves it, so a carrier-phase shift phi on both transmons is
# conjugation by diag(exp(-i phi N)).
EXCITATIONS = np.add.outer(np.arange(QUTRIT_DIM), np.arange(QUTRIT_DIM)).reshape(PAIR_DIM).astype(float)


def number_diagonal(frame: FrameSpec) -> np.ndarray:
    """Diagonal of frame1*n1 + frame2*n2 over the 9 basis states (GHz)."""
    n = np.arange(QUTRIT_DIM, dtype=float)
    return (frame.frame1 * n[:, None] + frame.frame2 * n[None, :]).reshape(PAIR_DIM)


def reframe(u: np.ndarray, src: FrameSpec, dst: FrameSpec, duration: float) -> np.ndarray:
    """Re-express a propagator over [0, duration] from frame src in frame dst.

    A state in frame F is exp(i 2pi N_F t) times the lab-frame state, so
    U_dst = exp(i 2pi (N_dst - N_src) duration) U_src.
    """
    delta = number_diagonal(dst) - number_diagonal(src)
    return np.exp(1j * TWO_PI * delta * duration)[:, None] * u


def static_diagonal(p: DeviceParams) -> np.ndarray:
    """Bare (J=0) energies of the 9 basis states in cyclic GHz."""
    n = np.arange(QUTRIT_DIM, dtype=float)
    e1 = p.omega1 * n + 0.5 * p.delta1 * n * (n - 1)
    e2 = p.omega2 * n + 0.5 * p.delta2 * n * (n - 1)
    return (e1[:, None] + e2[None, :]).reshape(PAIR_DIM)


def build_static_hamiltonian(p: DeviceParams) -> np.ndarray:
    """Static two-transmon Hamiltonian, 9x9, angular units (rad/ns)."""
    a1 = lowering_operator(1)
    a2 = lowering_operator(2)
    h = np.diag(static_diagonal(p)).astype(complex)
    h += p.coupling_j * (dag(a1) @ a2 + a1 @ dag(a2))
    return TWO_PI * h


@dataclass(frozen=True)
class TransitionFrequencies:
    """0-1 and 1-2 transition frequencies of both transmons, cyclic GHz."""

    w01_1: float
    w12_1: float
    w01_2: float
    w12_2: float

    def of(self, which: int, subspace: str) -> float:
        if which not in (1, 2) or subspace not in ("01", "12"):
            raise InvalidParams(f"need transmon 1 or 2 and subspace '01' or '12', got {which!r}, {subspace!r}")
        return getattr(self, f"w{subspace}_{which}")


def _dressed_energies(p: DeviceParams) -> np.ndarray:
    """Eigenenergies (GHz) labelled by bare state via maximum overlap."""
    h = build_static_hamiltonian(p) / TWO_PI
    w, v = scipy.linalg.eigh(h)
    labels = np.argmax(np.abs(v) ** 2, axis=0)
    if len(set(labels.tolist())) != PAIR_DIM:
        raise InvalidParams("dressed-state labelling is ambiguous for these parameters")
    e = np.empty(PAIR_DIM)
    e[labels] = w
    return e


def transition_frequencies(p: DeviceParams, dressed: bool = False) -> TransitionFrequencies:
    """Transition frequencies, bare or from exact diagonalization (GHz)."""
    if not dressed:
        return TransitionFrequencies(
            w01_1=p.omega1,
            w12_1=p.omega1 + p.delta1,
            w01_2=p.omega2,
            w12_2=p.omega2 + p.delta2,
        )
    return _dressed_frequencies(p)


@lru_cache(maxsize=16)
def _dressed_frequencies(p: DeviceParams) -> TransitionFrequencies:
    """Dressed transitions, diagonalized once per (frozen, hashable) device."""
    e = _dressed_energies(p)

    def idx(q1, q2):
        return 3 * q1 + q2

    return TransitionFrequencies(
        w01_1=e[idx(1, 0)] - e[idx(0, 0)],
        w12_1=e[idx(2, 0)] - e[idx(1, 0)],
        w01_2=e[idx(0, 1)] - e[idx(0, 0)],
        w12_2=e[idx(0, 2)] - e[idx(0, 1)],
    )
