"""Cosine fitting of Rabi-oscillation traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoOscillation

# Spectral peak must beat the median by this factor to count as an oscillation.
PEAK_OVER_MEDIAN = 3.0

# Fewest samples fit_rabi accepts for a frequency estimate.
MIN_SAMPLES = 16

# Most points a Rabi sweep takes (cmd_rabi): ~100 MB of states and fits.
MAX_SAMPLES = 100_000


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


# Gauss-Newton steps that fit_rabi takes at most, and the relative size of
# the frequency step that ends them.
_MAX_STEPS = 100
_STEP_TOL = 1e-13

# A trial step raises the residual when it raises the sum of squares by more
# than this relative amount.  Smaller rises are roundoff in the sum: at the
# optimum of a scan trace it is noisy at up to ~6e-12 relative, while each
# Gauss-Newton step there is exact to ~1e-18 GHz.
_COST_SLACK = 1e-9


def _project(two_pi_u: np.ndarray, centred: np.ndarray, freq: float):
    """The exact least-squares fit of ``centred``, a trace less its mean,
    by cos and sin of freq * two_pi_u, each less its mean, and the
    Gauss-Newton step on freq from there.  Returns (sum of squared
    residuals, step, weights (c, s), means of cos and sin).  The times u
    are centred on 0, so the Gram matrix of the two is near diagonal even
    when the trace holds less than a period: cos is even and sin odd in u.

    The step takes the residual's derivative at fixed weights, projected
    off the basis (Kaufman, BIT 15, 49 (1975)).  It vanishes exactly where
    the derivative of the projected residual does, and its numerator takes
    the projected derivative, not the raw one, whose component along the
    basis would pick up the residual's roundoff there."""
    arg = freq * two_pi_u
    rows = np.empty((2, len(arg)))
    np.cos(arg, out=rows[0])
    np.sin(arg, out=rows[1])
    means = rows.sum(axis=1) / len(arg)
    basis = rows - means[:, None]
    (g00, g01), (_, g11) = (basis @ basis.T).tolist()
    det = g00 * g11 - g01 * g01

    def solve(rhs):  # the 2x2 system of the Gram matrix
        r0, r1 = rhs.tolist()
        return (g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det

    c, s = solve(basis @ centred)
    resid = centred - np.dot((c, s), basis)
    slope = np.dot((s, -c), rows)
    slope *= two_pi_u
    slope -= slope.sum() / len(arg)
    normal = slope - np.dot(solve(basis @ slope), basis)
    return resid @ resid, (normal @ resid) / (normal @ normal), (c, s), means.tolist()


def fit_rabi(times: np.ndarray, values: np.ndarray) -> FitResult:
    """DFT-seeded least-squares cosine fit on a trace sampled at uniform,
    strictly increasing times.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): at a trial frequency the offset and the cos/sin weights are
    the exact linear least squares (``_project``), so the fit searches the
    frequency alone.  It starts from Jacobsen's interpolation of the DFT
    peak and stays within one DFT bin of the peak and above 0.  Each
    Gauss-Newton step is taken on the squared frequency: a trace that holds
    less than a period depends on it nearly linearly (cos is 1 - x^2/2 to
    leading order), where steps on the frequency itself undershoot by ~2x.
    A step that leaves the bracket or raises the residual is halved.  The
    steps end at the least-squares optimum, when the next would move the
    frequency by at most ``_STEP_TOL`` relative.

    Raises NoOscillation when no spectral peak clears the median floor
    (near-identity traces) or when the steps do not converge within
    ``_MAX_STEPS``.  Spectral-peak ties resolve to the lower frequency.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a frequency estimate")
    steps = np.diff(times)
    if not (steps > 0.0).all():
        raise ValueError("fit_rabi requires strictly increasing times")
    if np.max(np.abs(steps - steps[0])) > 1e-6 * steps[0]:
        raise ValueError("fit_rabi requires a uniform time grid")
    if not np.isfinite(values).all():
        raise ValueError("fit_rabi requires finite values")

    mean = values.mean()
    centred = values - mean
    dft = np.fft.rfft(centred)
    spectrum = np.abs(dft[1:])
    peak = float(spectrum.max())
    ordered = np.sort(spectrum)
    half = len(ordered) // 2
    median = float(ordered[half] if len(ordered) % 2 else 0.5 * (ordered[half - 1] + ordered[half]))
    if peak < PEAK_OVER_MEDIAN * median or peak < 1e-12:
        raise NoOscillation(
            f"spectral peak {peak:.3e} below {PEAK_OVER_MEDIAN} x median {median:.3e}"
        )
    # lower-frequency tie-break among near-equal peaks
    k = int(np.argmax(spectrum >= 0.99 * peak))
    bin_width = 1.0 / (len(times) * steps[0])
    freq = (k + 1) * bin_width
    lo, hi = freq - bin_width, freq + bin_width
    if k + 2 < len(dft):
        # Jacobsen's estimator from the peak bin and its two neighbours
        # (Jacobsen & Kootsookos, IEEE Signal Process. Mag. 24(3), 123 (2007))
        below, at, above = dft[k : k + 3].tolist()
        seed = freq + bin_width * ((below - above) / (2.0 * at - below - above)).real
        if lo < seed < hi:
            freq = seed

    middle = 0.5 * (times[0] + times[-1])
    two_pi_u = (2.0 * np.pi) * (times - middle)
    fit = _project(two_pi_u, centred, freq)
    for _ in range(_MAX_STEPS):
        step = fit[1]
        while abs(step) > _STEP_TOL * freq:
            # the step on freq^2 that the step on freq makes to first order
            trial = math.sqrt(max(freq * (freq + 2.0 * step), 0.0))
            if lo < trial < hi:
                moved = _project(two_pi_u, centred, trial)
                if moved[0] <= fit[0] * (1.0 + _COST_SLACK):
                    break
            step /= 2.0
        else:  # no step above the tolerance lowers the residual: converged
            break
        freq, fit = trial, moved
    else:
        raise NoOscillation(f"cosine fit did not converge in {_MAX_STEPS} steps")
    cost, _, (c, s), (cos_mean, sin_mean) = fit
    offset = float(mean - (c * cos_mean + s * sin_mean))
    phase = math.remainder(math.atan2(-s, c) - 2.0 * math.pi * freq * middle, 2.0 * math.pi)
    rmse = math.sqrt(cost / len(times))
    return FitResult(freq=float(freq), phase=phase, amplitude=math.hypot(c, s), offset=offset, rmse=rmse)


def generalized_rabi_rate(fit: FitResult) -> float:
    """Drive-induced Rabi rate corrected for a static detuning.

    An off-resonance oscillation runs at sqrt(Omega^2 + delta^2) with
    contrast Omega^2 / (Omega^2 + delta^2); the bare rate is therefore
    freq * sqrt(peak-to-peak contrast).
    """
    contrast = min(2.0 * abs(fit.amplitude), 1.0)
    return fit.freq * float(np.sqrt(contrast))
