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
import reprlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams
from .linalg import PAIR_DIM, QUTRIT_DIM, dag, kron, read_only

TWO_PI = 2.0 * np.pi


def finite_float(value, name: str) -> float:
    """value as a float; InvalidParams unless it is a real number, not a
    bool, that is finite as a float (an integer past 1.8e308 is not)."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer or fraction past the float range
        pass
    raise InvalidParams(f"{name} must be a finite number, got {reprlib.repr(value)}")


class ConfigRecord:
    """Reader and writer of a frozen dataclass kept as a JSON object: the
    device and the experiment configuration.  A subclass maps each number's
    JSON key to its field (``_KEYS``), names the integer fields
    (``_INTEGERS``), each nested record's key, also its field, and class
    (``_RECORDS``) and its messages' prefix (``_PREFIX``), and calls
    ``_check_numbers`` first in ``__post_init__``.
    """

    _RECORDS = {}
    _PREFIX = ""

    def _check_numbers(self):
        """Store each number field as a Python int or float, so that 20, 20.0
        and a numpy scalar name one configuration; InvalidParams unless it is
        an integer or passes ``finite_float``."""
        for key, attr in self._KEYS.items():
            value, name, integer = getattr(self, attr), f"{self._PREFIX}{key}", attr in self._INTEGERS
            if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise InvalidParams(f"{name} must be an integer, got {reprlib.repr(value)}")
            object.__setattr__(self, attr, int(value) if integer else finite_float(value, name))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise InvalidParams(f"{cls._PREFIX}config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls._KEYS) - set(cls._RECORDS)
        if unknown:
            raise InvalidParams(f"unknown {cls._PREFIX}config keys: {sorted(unknown)}")
        kwargs = {key: record.from_dict(d[key]) for key, record in cls._RECORDS.items() if key in d}
        return cls(**kwargs, **{attr: d[key] for key, attr in cls._KEYS.items() if key in d})

    @classmethod
    def from_json(cls, path: str):
        """The record in the config file at path; InvalidParams if the file
        holds bad JSON or another JSON value."""
        with open(path) as f:
            try:
                d = json.load(f)
            except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
                raise InvalidParams(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(d, dict):
            raise InvalidParams(f"config {path} must hold a JSON object")
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        nested = {key: getattr(self, key).to_dict() for key in self._RECORDS}
        return nested | {key: getattr(self, attr) for key, attr in self._KEYS.items()}


@dataclass(frozen=True)
class DeviceParams(ConfigRecord):
    """Device parameters in cyclic GHz (omega_i = w_i/2pi, etc.)."""

    omega1: float = 4.9
    omega2: float = 5.5
    delta1: float = -0.4
    delta2: float = -0.3
    coupling_j: float = 0.0027
    levels: int = 3

    _KEYS = {
        "omega1_ghz": "omega1",
        "omega2_ghz": "omega2",
        "delta1_ghz": "delta1",
        "delta2_ghz": "delta2",
        "j_ghz": "coupling_j",
        "levels": "levels",
    }
    _INTEGERS = ("levels",)
    _PREFIX = "device "

    def __post_init__(self):
        self._check_numbers()
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


@dataclass(frozen=True)
class FrameSpec:
    """Rotating-frame frequencies (GHz) applied to each transmon's number operator."""

    frame1: float
    frame2: float

    def __post_init__(self):
        if finite_float(self.frame1, "frame1") < 0 or finite_float(self.frame2, "frame2") < 0:
            raise InvalidParams("frame frequencies must be non-negative")

    @classmethod
    def bare(cls, p: DeviceParams) -> "FrameSpec":
        return cls(p.omega1, p.omega2)


def destroy() -> np.ndarray:
    """Single-transmon annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, QUTRIT_DIM)).astype(complex), k=1)


@lru_cache(maxsize=None)
def lowering_operator(which: int) -> np.ndarray:
    """a on the chosen transmon, identity on the other (9x9): built once per
    transmon and shared, so it is read-only."""
    if which == 1:
        return read_only(kron(destroy(), np.eye(QUTRIT_DIM)))
    if which == 2:
        return read_only(kron(np.eye(QUTRIT_DIM), destroy()))
    raise InvalidParams(f"transmon index must be 1 or 2, got {which}")


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
    w, v = np.linalg.eigh(h)
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
