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
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .device import transition_frequencies
from .errors import InvalidParams, OutOfRange

AMP_CAP_GHZ = 1.0

# Defaults for Gaussian-square edges (the source material gives none).
DEFAULT_RISEFALL_NS = 20.0


def _lifted_gaussian(t, center, sigma, cutoff):
    """exp(-(t-center)^2 / 2 sigma^2), lifted so it is 0 at distance ``cutoff``."""
    edge = np.exp(-(cutoff**2) / (2.0 * sigma**2))
    return (np.exp(-((t - center) ** 2) / (2.0 * sigma**2)) - edge) / (1.0 - edge)


@dataclass(frozen=True)
class Gaussian:
    """Plain Gaussian envelope; amp in GHz, sigma/duration in ns."""

    amp: float
    sigma: float
    duration: float

    def __post_init__(self):
        _check_shape(self.amp, self.sigma, self.duration)

    def sample(self, t: float) -> complex:
        _check_window(t, self.duration)
        c = self.duration / 2.0
        edge = math.exp(-(c * c) / (2.0 * self.sigma**2))
        return self.amp * (math.exp(-((t - c) ** 2) / (2.0 * self.sigma**2)) - edge) / (1.0 - edge)


@dataclass(frozen=True)
class GaussianSquare:
    """Flat-top envelope with lifted-Gaussian rise and fall edges."""

    amp: float
    sigma: float
    risefall: float
    width: float

    def __post_init__(self):
        if self.risefall <= 0 or self.width < 0:
            raise InvalidParams("risefall must be > 0 and width >= 0")
        _check_shape(self.amp, self.sigma, self.duration)

    @property
    def duration(self) -> float:
        return self.width + 2.0 * self.risefall

    def sample(self, t: float) -> complex:
        _check_window(t, self.duration)
        if self.risefall < t < self.risefall + self.width:
            return complex(self.amp)
        center = self.risefall if t <= self.risefall else self.risefall + self.width
        edge = math.exp(-(self.risefall**2) / (2.0 * self.sigma**2))
        g = math.exp(-((t - center) ** 2) / (2.0 * self.sigma**2))
        return self.amp * (g - edge) / (1.0 - edge)

    def area(self) -> float:
        """Integral of the envelope over its duration (GHz*ns)."""
        edge = np.linspace(0.0, self.risefall, 201)
        rise = self.amp * _lifted_gaussian(edge, self.risefall, self.sigma, self.risefall)
        return 2.0 * float(np.trapezoid(rise, edge)) + self.amp * self.width


@dataclass(frozen=True)
class DragGaussian:
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

    def sample(self, t: float) -> complex:
        _check_window(t, self.duration)
        c = self.duration / 2.0
        edge = math.exp(-(c * c) / (2.0 * self.sigma**2))
        bare = math.exp(-((t - c) ** 2) / (2.0 * self.sigma**2))
        g = self.amp * (bare - edge) / (1.0 - edge)
        dg = self.amp * bare * (-(t - c) / self.sigma**2) / (1.0 - edge)
        return g + 1j * self.beta * dg

    def area(self) -> float:
        grid = np.linspace(0.0, self.duration, 801)
        vals = np.array([self.sample(t).real for t in grid])
        return float(np.trapezoid(vals, grid))


PulseShape = Union[Gaussian, GaussianSquare, DragGaussian]


def _check_shape(amp, sigma, duration):
    if duration <= 0 or sigma <= 0:
        raise InvalidParams("sigma and duration must be positive")
    if abs(amp) > AMP_CAP_GHZ:
        raise InvalidParams(f"|amp| = {abs(amp):.3f} GHz exceeds the {AMP_CAP_GHZ} GHz cap")


def _check_window(t, duration):
    if t < 0.0 or t > duration:
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

def _shape_to_dict(shape: PulseShape) -> dict:
    if isinstance(shape, Gaussian):
        return {"kind": "gaussian", "amp_ghz": shape.amp, "sigma_ns": shape.sigma, "duration_ns": shape.duration}
    if isinstance(shape, GaussianSquare):
        return {
            "kind": "gaussian_square",
            "amp_ghz": shape.amp,
            "sigma_ns": shape.sigma,
            "risefall_ns": shape.risefall,
            "width_ns": shape.width,
        }
    if isinstance(shape, DragGaussian):
        return {
            "kind": "drag_gaussian",
            "amp_ghz": shape.amp,
            "sigma_ns": shape.sigma,
            "duration_ns": shape.duration,
            "beta_ns": shape.beta,
        }
    raise InvalidParams(f"unknown pulse shape {type(shape).__name__}")


def _shape_from_dict(d: dict) -> PulseShape:
    kind = d.get("kind")
    if kind == "gaussian":
        return Gaussian(amp=d["amp_ghz"], sigma=d["sigma_ns"], duration=d["duration_ns"])
    if kind == "gaussian_square":
        return GaussianSquare(amp=d["amp_ghz"], sigma=d["sigma_ns"], risefall=d["risefall_ns"], width=d["width_ns"])
    if kind == "drag_gaussian":
        return DragGaussian(amp=d["amp_ghz"], sigma=d["sigma_ns"], duration=d["duration_ns"], beta=d["beta_ns"])
    raise InvalidParams(f"unknown pulse shape kind {kind!r}")


def schedule_to_dicts(s: Schedule) -> list:
    out = []
    for i in s.instructions:
        if isinstance(i, Play):
            out.append(
                {
                    "channel": i.channel,
                    "start_ns": i.start,
                    "shape": _shape_to_dict(i.shape),
                    "carrier_ghz": i.carrier_freq,
                    "phase_rad": i.carrier_phase,
                }
            )
        else:
            out.append(
                {
                    "kind": "phase_shift",
                    "channel": i.channel,
                    "subspace": i.subspace,
                    "angle_rad": i.angle,
                    "start_ns": i.start,
                }
            )
    return out


def schedule_from_dicts(items: list) -> Schedule:
    instrs = []
    for d in items:
        if d.get("kind") == "phase_shift":
            instrs.append(
                PhaseShift(channel=d["channel"], subspace=d["subspace"], angle=d["angle_rad"], start=d["start_ns"])
            )
        else:
            instrs.append(
                Play(
                    channel=d["channel"],
                    start=d["start_ns"],
                    shape=_shape_from_dict(d["shape"]),
                    carrier_freq=d["carrier_ghz"],
                    carrier_phase=d["phase_rad"],
                )
            )
    return Schedule(tuple(instrs))

