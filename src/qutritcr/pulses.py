"""Pulse envelopes, timed instructions, and per-channel schedules.

Envelopes use the lifted-Gaussian convention: the Gaussian is shifted and
rescaled so it is exactly zero at both endpoints and reaches ``amp`` at its
peak.  This keeps the drive continuous at pulse boundaries, which the
adaptive integrator rewards.  The DRAG envelope lifts only its in-phase
part: its quadrature, beta times the Gaussian's slope, is not zero at the
endpoints, so a DRAG drive switches on and off with a small jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Union, get_args

import numpy as np

from .device import transition_frequencies
from .errors import InvalidParams, OutOfRange

AMP_CAP_GHZ = 1.0

# Defaults for Gaussian-square edges (the source material gives none).
DEFAULT_RISEFALL_NS = 20.0


def _gaussian(d, var2):
    """exp(-d^2 / var2) for an offset d from the center and var2 = 2 sigma^2.

    ``d`` is a float or an array, and both take ``np.exp`` and the same
    operations: an array sample then equals the float samples bit for bit,
    which ``math.exp`` would not promise (it differs from ``np.exp`` in the
    last bit on some inputs).  A float stays a Python float.
    """
    g = np.exp(-(d * d) / var2)
    return g if isinstance(d, np.ndarray) else float(g)


class _Lifted:
    """The lifted Gaussian amp (exp(-d^2 / 2 sigma^2) - edge) / (1 - edge),
    with edge its value at the offset ``_reach`` from the center, where it is
    lifted to 0."""

    @cached_property
    def _var2(self) -> float:
        return 2.0 * self.sigma * self.sigma

    @cached_property
    def _edge(self) -> float:
        return _gaussian(self._reach, self._var2)

    def _lifted(self, d):
        return self.amp * (_gaussian(d, self._var2) - self._edge) / (1.0 - self._edge)


@dataclass(frozen=True)
class Gaussian(_Lifted):
    """Plain Gaussian envelope; amp in GHz, sigma/duration in ns."""

    amp: float
    sigma: float
    duration: float

    def __post_init__(self):
        _check_shape(self.amp, self.sigma, self.duration)

    @cached_property
    def _reach(self) -> float:
        return self.duration / 2.0

    def sample(self, t):
        """Envelope at t ns (a float, or an array of them) inside [0, duration]."""
        _check_window(t, self.duration)
        return self._lifted(t - self._reach)


@dataclass(frozen=True)
class GaussianSquare(_Lifted):
    """Flat-top envelope with lifted-Gaussian rise and fall edges."""

    amp: float
    sigma: float
    risefall: float
    width: float

    def __post_init__(self):
        if not (0.0 < self.risefall < math.inf and 0.0 <= self.width < math.inf):
            raise InvalidParams("risefall must be finite and > 0, and width finite and >= 0")
        _check_shape(self.amp, self.sigma, self.duration)

    @property
    def duration(self) -> float:
        return self.width + 2.0 * self.risefall

    @cached_property
    def _reach(self) -> float:
        return self.risefall

    def sample(self, t):
        """Envelope at t ns (a float, or an array of them) inside [0, duration]."""
        _check_window(t, self.duration)
        fall = self.risefall + self.width
        if isinstance(t, np.ndarray):
            d = np.where(t <= self.risefall, t - self.risefall, t - fall)
            return np.where((self.risefall < t) & (t < fall), complex(self.amp), self._lifted(d))
        if self.risefall < t < fall:
            return complex(self.amp)
        return self._lifted(t - self.risefall if t <= self.risefall else t - fall)

    def area(self) -> float:
        """Integral of the envelope over its duration (GHz*ns)."""
        edge = np.linspace(0.0, self.risefall, 201)
        rise = self.amp * ((_gaussian(edge - self.risefall, self._var2) - self._edge) / (1.0 - self._edge))
        return 2.0 * float(np.trapezoid(rise, edge)) + self.amp * self.width


@dataclass(frozen=True)
class DragGaussian(_Lifted):
    """Gaussian with a quadrature-derivative component: g(t) + i beta g'(t).

    Only the in-phase g is lifted to zero at the window edges.  The
    quadrature is not: the envelope starts at i beta g'(0) and ends at
    -i beta g'(0) (1.17e-3j GHz for amp 0.06, sigma 8, duration 32,
    beta 0.5).
    """

    amp: float
    sigma: float
    duration: float
    beta: float = 0.0

    def __post_init__(self):
        _check_shape(self.amp, self.sigma, self.duration)
        if not math.isfinite(self.beta):
            raise InvalidParams(f"beta must be finite, got {self.beta}")

    @cached_property
    def _reach(self) -> float:
        return self.duration / 2.0

    def sample(self, t):
        """Envelope at t ns (a float, or an array of them) inside [0, duration]."""
        _check_window(t, self.duration)
        d = t - self._reach
        bare = _gaussian(d, self._var2)
        g = self.amp * (bare - self._edge) / (1.0 - self._edge)
        dg = self.amp * bare * (-d / (self.sigma * self.sigma)) / (1.0 - self._edge)
        return g + 1j * (self.beta * dg)

    def area(self) -> float:
        grid = np.linspace(0.0, self.duration, 801)
        return float(np.trapezoid(self.sample(grid).real, grid))


PulseShape = Union[Gaussian, GaussianSquare, DragGaussian]


def _check_shape(amp, sigma, duration):
    if not (0.0 < duration < math.inf and 0.0 < sigma < math.inf):
        raise InvalidParams("sigma and duration must be finite and positive")
    if not abs(amp) <= AMP_CAP_GHZ:
        raise InvalidParams(f"|amp| = {abs(amp):.3f} GHz: amp must be finite, within the {AMP_CAP_GHZ} GHz cap")


def _check_window(t, duration):
    """Raise OutOfRange unless t (a float, or every entry of an array) is in [0, duration]."""
    if isinstance(t, np.ndarray):
        out = (t < 0.0) | (t > duration)
        if out.any():
            raise OutOfRange(f"t = {t[out][0]} ns outside [0, {duration}] ns")
    elif t < 0.0 or t > duration:
        raise OutOfRange(f"t = {t} ns outside [0, {duration}] ns")


@dataclass(frozen=True)
class Play:
    """Timed pulse on a transmon drive channel."""

    channel: int  # transmon index, 1 or 2
    start: float  # ns
    shape: PulseShape
    carrier_freq: float  # GHz
    carrier_phase: float = 0.0  # rad

    def __post_init__(self):
        if self.start < 0:
            raise InvalidParams("instruction start must be >= 0")
        if self.channel not in (1, 2):
            raise InvalidParams("channel must be 1 or 2")

    @property
    def duration(self) -> float:
        return self.shape.duration

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PhaseShift:
    """Zero-duration virtual phase advance on one subspace of a channel."""

    channel: int
    subspace: str  # "01" or "12"
    angle: float  # rad
    start: float = 0.0

    def __post_init__(self):
        if self.start < 0:
            raise InvalidParams("instruction start must be >= 0")
        if self.subspace not in ("01", "12"):
            raise InvalidParams("subspace must be '01' or '12'")

    @property
    def duration(self) -> float:
        return 0.0

    @property
    def end(self) -> float:
        return self.start


Instruction = Union[Play, PhaseShift]


@dataclass(frozen=True)
class Schedule:
    """Ordered instruction list; duration is the maximum instruction end time."""

    instructions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        for ch in (1, 2):
            plays = sorted(
                (i for i in self.instructions if isinstance(i, Play) and i.channel == ch),
                key=lambda i: i.start,
            )
            for a, b in zip(plays, plays[1:]):
                if b.start < a.end - 1e-9:
                    raise InvalidParams(
                        f"overlapping pulses on channel {ch}: [{a.start}, {a.end}) and "
                        f"[{b.start}, {b.end})"
                    )

    @property
    def duration(self) -> float:
        return max((i.end for i in self.instructions), default=0.0)

    def shifted(self, dt: float) -> "Schedule":
        return Schedule(tuple(replace(i, start=i.start + dt) for i in self.instructions))

    def virtual_phase(self, channel: int, subspace: str, t: float) -> float:
        """Accumulated virtual phase on (channel, subspace) from shifts at start <= t."""
        return sum(
            i.angle
            for i in self.instructions
            if isinstance(i, PhaseShift)
            and i.channel == channel
            and i.subspace == subspace
            and i.start <= t + 1e-12
        )

    def plays(self, channel: int | None = None):
        return [
            i
            for i in self.instructions
            if isinstance(i, Play) and (channel is None or i.channel == channel)
        ]


def concat(*schedules: Schedule) -> Schedule:
    """Back-to-back concatenation; virtual phases carry across boundaries."""
    out = []
    offset = 0.0
    for s in schedules:
        out.extend(s.shifted(offset).instructions)
        offset += s.duration
    return Schedule(tuple(out))


def build_cr_schedule(p, subspace: str, amp: float, width: float, risefall: float = DEFAULT_RISEFALL_NS, phase: float = 0.0) -> Schedule:
    """Single Gaussian-square CR pulse on the control transmon's channel.

    The carrier sits at the target transmon's dressed 0-1 (or 1-2)
    transition frequency, which is what makes the drive a cross-resonance
    drive.
    """
    if subspace not in ("01", "12"):
        raise InvalidParams("subspace must be '01' or '12'")
    if width < 0:
        raise InvalidParams("width must be >= 0")
    carrier = transition_frequencies(p, dressed=True).of(2, subspace)
    shape = GaussianSquare(amp=amp, sigma=risefall / 2.0, risefall=risefall, width=width)
    return Schedule((Play(channel=1, start=0.0, shape=shape, carrier_freq=carrier, carrier_phase=phase),))


# --- serialization -----------------------------------------------------------

# The stored schedule format.  A record holds each dataclass field of an
# instruction or shape under its key here, one line per unit (fields not
# listed keep their name), a Play's shape as a nested record, and the kind
# of its type; a Play alone has no kind.
_KEYS = {
    "amp": "amp_ghz", "carrier_freq": "carrier_ghz",
    "sigma": "sigma_ns", "duration": "duration_ns", "risefall": "risefall_ns", "width": "width_ns",
    "beta": "beta_ns", "start": "start_ns",
    "carrier_phase": "phase_rad", "angle": "angle_rad",
}
_KINDS = {
    Gaussian: "gaussian", GaussianSquare: "gaussian_square", DragGaussian: "drag_gaussian",
    PhaseShift: "phase_shift", Play: None,
}


def _to_record(obj) -> dict:
    if type(obj) not in _KINDS:
        raise InvalidParams(f"cannot store a {type(obj).__name__}")
    record = {_KEYS.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, Play):
        record["shape"] = _to_record(obj.shape)
    else:
        record["kind"] = _KINDS[type(obj)]
    return record


def _from_record(record, union):
    """The member of ``union`` (PulseShape or Instruction) stored in record."""
    if not isinstance(record, dict):
        raise InvalidParams(f"a schedule record must be a JSON object, got {type(record).__name__}")
    kind = record.get("kind")
    cls = next((c for c in get_args(union) if _KINDS[c] == kind), None)
    if cls is None:
        raise InvalidParams(f"unknown schedule record kind {kind!r}")
    kwargs = {f.name: record[_KEYS.get(f.name, f.name)] for f in fields(cls)}
    if cls is Play:
        kwargs["shape"] = _from_record(kwargs["shape"], PulseShape)
    return cls(**kwargs)


def schedule_to_dicts(s: Schedule) -> list:
    return [_to_record(i) for i in s.instructions]


def schedule_from_dicts(items: list) -> Schedule:
    return Schedule(tuple(_from_record(d, Instruction) for d in items))
