"""Cosine fitting of Rabi-oscillation traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import NoOscillation

# Spectral peak must beat the median by this factor to count as an oscillation.
PEAK_OVER_MEDIAN = 3.0

# Fewest samples fit_rabi accepts for a frequency estimate.
MIN_SAMPLES = 16


@dataclass(frozen=True)
class FitResult:
    """y(t) = offset + amplitude * cos(2 pi freq t + phase)."""

    freq: float  # GHz (cyclic)
    phase: float  # rad
    amplitude: float
    offset: float
    rmse: float

    def __post_init__(self):
        if self.freq < 0 or self.rmse < 0:
            raise ValueError("freq and rmse must be non-negative")

    def to_dict(self) -> dict:
        return {
            "freq_ghz": self.freq,
            "phase_rad": self.phase,
            "amplitude": self.amplitude,
            "offset": self.offset,
            "rmse": self.rmse,
        }


def _model(t, offset, amplitude, freq, phase):
    return offset + amplitude * np.cos(2.0 * np.pi * freq * t + phase)


def fit_rabi(times: np.ndarray, values: np.ndarray) -> FitResult:
    """DFT-seeded least-squares cosine fit on a uniformly sampled trace.

    Raises NoOscillation when no spectral peak clears the median floor
    (near-identity traces) or when the least-squares fit does not converge.
    Spectral-peak ties resolve to the lower frequency.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a frequency estimate")
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-6 * steps[0]:
        raise ValueError("fit_rabi requires a uniform time grid")

    detrended = values - values.mean()
    spectrum = np.abs(np.fft.rfft(detrended))[1:]
    freqs = np.fft.rfftfreq(len(times), steps[0])[1:]
    peak = float(spectrum.max())
    median = float(np.median(spectrum))
    if peak < PEAK_OVER_MEDIAN * median or peak < 1e-12:
        raise NoOscillation(
            f"spectral peak {peak:.3e} below {PEAK_OVER_MEDIAN} x median {median:.3e}"
        )
    # lower-frequency tie-break among near-equal peaks
    k = int(np.flatnonzero(spectrum >= 0.99 * peak)[0])

    full = np.fft.rfft(detrended)[1:]
    p0 = [values.mean(), 2.0 * peak / len(times), freqs[k], float(np.angle(full[k]))]
    try:
        popt, _ = curve_fit(_model, times, values, p0=p0, maxfev=20000)
    except RuntimeError as exc:  # least squares gave up
        raise NoOscillation(f"cosine fit did not converge: {exc}") from exc
    offset, amplitude, freq, phase = popt
    if amplitude < 0:
        amplitude, phase = -amplitude, phase + np.pi
    phase = float(np.angle(np.exp(1j * phase)))  # wrap to (-pi, pi]
    rmse = float(np.sqrt(np.mean((_model(times, offset, amplitude, abs(freq), phase) - values) ** 2)))
    return FitResult(freq=abs(float(freq)), phase=phase, amplitude=float(amplitude), offset=float(offset), rmse=rmse)


def generalized_rabi_rate(fit: FitResult) -> float:
    """Drive-induced Rabi rate corrected for a static detuning.

    An off-resonance oscillation runs at sqrt(Omega^2 + delta^2) with
    contrast Omega^2 / (Omega^2 + delta^2); the bare rate is therefore
    freq * sqrt(peak-to-peak contrast).
    """
    contrast = min(2.0 * abs(fit.amplitude), 1.0)
    return fit.freq * float(np.sqrt(contrast))
