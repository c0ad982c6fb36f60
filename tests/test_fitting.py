from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from qutritcr.calibrate import run_rabi_scan
from qutritcr.device import DeviceParams
from qutritcr.errors import NoOscillation
from qutritcr.fitting import FitResult, fit_rabi, generalized_rabi_rate


@cache
def _scan_traces():
    """24 conditional-Rabi traces as cmd_rabi fits them: 128 points to
    600 ns, both tones, controls 0-2, four amplitudes."""
    widths = np.linspace(0.0, 560.0, 128)
    p = DeviceParams()
    return [
        run_rabi_scan(p, sub, amp, c, widths)
        for sub in ("01", "12")
        for amp in (0.2, 0.3, 0.41, 0.5)
        for c in (0, 1, 2)
    ]


def _curve_fit_reference(times, values):
    """scipy's curve_fit of the same cosine from the same DFT seed:
    (freq, phase, amplitude, rmse)."""
    full = np.fft.rfft(values - values.mean())[1:]
    spectrum = np.abs(full)
    k = int(np.flatnonzero(spectrum >= 0.99 * spectrum.max())[0])
    freq0 = np.fft.rfftfreq(len(times), times[1] - times[0])[1:][k]

    def model(t, offset, amplitude, freq, phase):
        return offset + amplitude * np.cos(2.0 * np.pi * freq * t + phase)

    p0 = [values.mean(), 2.0 * spectrum[k] / len(times), freq0, float(np.angle(full[k]))]
    (offset, amplitude, freq, phase), _ = curve_fit(model, times, values, p0=p0, maxfev=20000)
    rmse = float(np.sqrt(np.mean((model(times, offset, amplitude, freq, phase) - values) ** 2)))
    if amplitude < 0:
        amplitude, phase = -amplitude, phase + np.pi
    return abs(freq), phase, amplitude, rmse


def _phase_gap(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


class TestFitRabi:
    def test_recovers_3mhz(self):
        # [DERIVED] synthetic-data oracle: 0.003 GHz within 0.5%
        t = np.linspace(0.0, 1000.0, 101)
        y = 0.5 - 0.5 * np.cos(2.0 * np.pi * 0.003 * t)
        fit = fit_rabi(t, y)
        assert abs(fit.freq - 0.003) / 0.003 < 0.005
        assert fit.rmse < 1e-9

    def test_constant_trace_raises(self):
        # [TRIVIAL]
        t = np.linspace(0.0, 1000.0, 64)
        with pytest.raises(NoOscillation):
            fit_rabi(t, np.full(64, 0.25))

    def test_noisy_recovery(self):
        # [DERIVED] seeded synthetic noise sigma = 0.01, freq within 2%
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 1500.0, 151)
        y = 0.4 + 0.3 * np.cos(2.0 * np.pi * 0.004 * t + 0.7) + rng.normal(0.0, 0.01, t.size)
        fit = fit_rabi(t, y)
        assert abs(fit.freq - 0.004) / 0.004 < 0.02
        assert abs(fit.phase - 0.7) < 0.1
        assert fit.amplitude == pytest.approx(0.3, abs=0.02)

    def test_needs_16_samples(self):
        t = np.linspace(0.0, 100.0, 10)
        with pytest.raises(ValueError):
            fit_rabi(t, np.sin(t))

    def test_needs_uniform_grid(self):
        t = np.array([0.0, 1.0, 2.0, 4.0] + list(np.arange(5.0, 20.0)))
        with pytest.raises(ValueError):
            fit_rabi(t, np.sin(t))

    @pytest.mark.parametrize("t", [np.zeros(32), np.arange(32.0)[::-1]], ids=["zero_step", "decreasing"])
    def test_needs_increasing_times(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_rabi(t, np.sin(np.arange(32.0)))

    def test_amplitude_sign_normalized(self):
        # fits with negative seed amplitude fold the sign into the phase
        t = np.linspace(0.0, 1000.0, 101)
        y = 0.5 - 0.4 * np.cos(2.0 * np.pi * 0.005 * t)
        fit = fit_rabi(t, y)
        assert fit.amplitude > 0
        assert abs(abs(fit.phase) - np.pi) < 1e-6


class TestAgainstCurveFit:
    @pytest.mark.parametrize("index", range(24))
    def test_scan_trace_reaches_the_least_squares_optimum(self, index):
        # variable projection ends at the optimum that curve_fit approaches
        trace = _scan_traces()[index]
        fit = fit_rabi(trace.times, trace.observable)
        freq, phase, amplitude, rmse = _curve_fit_reference(trace.times, trace.observable)
        assert fit.rmse <= (1.0 + 1e-9) * rmse
        assert abs(fit.freq - freq) <= 1e-5 * freq
        assert abs(fit.amplitude - amplitude) <= 1e-5 * amplitude
        assert _phase_gap(fit.phase, phase) <= 1e-5

    @settings(max_examples=48, deadline=None, derandomize=True)
    @given(index=st.integers(0, 23), seed=st.integers(0, 2**32 - 1))
    def test_roundoff_in_the_trace_moves_no_parameter(self, index, seed):
        # the fit ends at the optimum, not wherever its tolerances stop it:
        # relative noise of 1e-15 on every sample moves it by roundoff only
        trace = _scan_traces()[index]
        values = trace.observable
        noisy = values * (1.0 + 1e-15 * np.random.default_rng(seed).standard_normal(len(values)))
        fit, moved = fit_rabi(trace.times, values), fit_rabi(trace.times, noisy)
        assert abs(moved.freq - fit.freq) <= 1e-11
        assert abs(moved.amplitude - fit.amplitude) <= 1e-11
        assert _phase_gap(moved.phase, fit.phase) <= 1e-11


class TestFitResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FitResult(freq=-0.1, phase=0.0, amplitude=1.0, offset=0.0, rmse=0.0)
        d = FitResult(0.003, 0.1, 0.5, 0.5, 1e-4).to_dict()
        assert d["freq_ghz"] == 0.003


class TestGeneralizedRabiRate:
    def test_full_contrast_identity(self):
        # full-contrast oscillation: rate equals the fitted frequency
        fit = FitResult(freq=0.004, phase=np.pi, amplitude=0.5, offset=0.5, rmse=0.0)
        assert generalized_rabi_rate(fit) == pytest.approx(0.004)

    def test_detuned_oscillation(self):
        # off resonance: freq = sqrt(f0^2 + d^2), contrast = f0^2/(f0^2+d^2);
        # the corrected rate recovers f0
        f0, d = 0.003, 0.002
        freq = np.hypot(f0, d)
        contrast = f0**2 / freq**2
        fit = FitResult(freq=freq, phase=np.pi, amplitude=contrast / 2.0, offset=contrast / 2.0, rmse=0.0)
        assert generalized_rabi_rate(fit) == pytest.approx(f0, rel=1e-12)
