"""Experiment pipelines: conditional Rabi scans, calibration, and the Bell
preparation, with deterministic CSV/JSON emission.

All outputs are reproducible byte-for-byte for a fixed config and seed: no
timestamps are written and floating-point formatting is fixed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .calibrate import (
    CalibrationStore,
    CalibratedGate,
    calibrate_cr_gate,
    calibrate_single_qutrit,
    compose_calibrated,
    config_fingerprint,
    refine_full_model,
    run_rabi_scan,
    SINGLE_QUTRIT_MIN_FID,
    _subspace_leakage,
)
from .crpulse import cr_pulse
from .device import ConfigRecord, DeviceParams, finite_float
from .effective import bell_state, ideal_ucr, on_transmon, rx_subspace
from .errors import BadDistribution, InvalidParams, NoOscillation
from .fitting import MAX_SAMPLES, MIN_SAMPLES, fit_rabi
from .linalg import ket2
from .metrics import MetricReport, concurrence, state_fidelity
from .propagate import full_model_unitary, rwa_unitary

H3_THETA1 = 2.0 * np.arccos(1.0 / np.sqrt(3.0))

# Gate names produced by cmd_calibrate.
GATE_SET = (
    "x01_pi_1",
    "x01_pi_2",
    "x12_pi_1",
    "x12_pi_2",
    "v_2",
    "h3_1",
    "cr01_pi",
    "csx12",
)

# How cmd_bell obtains each gate's propagator.
BELL_METHODS = ("full", "rwa", "store")

# The most shots numpy's binomial and multinomial draw: a C long (int64).
MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ExperimentConfig(ConfigRecord):
    """Device plus pipeline defaults.

    The CR amplitudes set the operating point of the Bell preparation: they
    were chosen so the two conditional gates land near a 480 ns combined
    length at good fidelity.  The scan amplitude drives the conditional-Rabi
    sweeps hard enough that all three control rates resolve on a few hundred
    nanoseconds.
    """

    device: DeviceParams = field(default_factory=DeviceParams)
    seed: int = 7
    shots: int = 100000
    cr01_amp: float = 0.35  # GHz
    cr12_amp: float = 0.11  # GHz
    scan_amp: float = 0.5  # GHz
    risefall: float = 20.0  # ns
    sq_duration: float = 32.0  # ns, single-qutrit pulse length
    sq_sigma: float = 8.0  # ns

    _KEYS = {
        "seed": "seed",
        "shots": "shots",
        "cr01_amp_ghz": "cr01_amp",
        "cr12_amp_ghz": "cr12_amp",
        "scan_amp_ghz": "scan_amp",
        "risefall_ns": "risefall",
        "sq_duration_ns": "sq_duration",
        "sq_sigma_ns": "sq_sigma",
    }
    _INTEGERS = ("seed", "shots")
    _RECORDS = {"device": DeviceParams}

    def __post_init__(self):
        self._check_numbers()
        if self.shots < 1:
            raise InvalidParams("shots must be >= 1")
        if self.shots > MAX_SHOTS:
            raise InvalidParams(f"shots must be <= {MAX_SHOTS}")
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")
        for a in (self.cr01_amp, self.cr12_amp, self.scan_amp):
            if not 0.0 < a <= 1.0:
                raise InvalidParams("amplitudes must be in (0, 1] GHz")
        if min(self.risefall, self.sq_duration, self.sq_sigma) <= 0:
            raise InvalidParams("risefall_ns, sq_duration_ns and sq_sigma_ns must be > 0")

    def calibration_defaults(self) -> dict:
        """Pulse-affecting defaults; seed, shots and the Rabi-scan amplitude do
        not enter the hash, and the device enters it on its own."""
        return {k: v for k, v in self.to_dict().items() if k not in ("device", "seed", "shots", "scan_amp_ghz")}

    def fingerprint(self) -> str:
        return config_fingerprint(self.device, self.calibration_defaults())


@dataclass(frozen=True)
class ExperimentResult:
    pipeline: str
    metrics: tuple
    duration_ns: float
    config_hash: str
    seed: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration_ns < 0:
            raise InvalidParams("duration must be >= 0")

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "metrics": [m.to_dict() for m in self.metrics],
            "duration_ns": float(self.duration_ns),
            "config_hash": self.config_hash,
            "seed": self.seed,
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# shot sampling


def sample_shots(probabilities, shots: int, seed: int) -> np.ndarray:
    """Deterministic multinomial draw over the 9 measurement outcomes."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (9,):
        raise BadDistribution(f"expected a 9-vector, got shape {probs.shape}")
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-6:
        raise BadDistribution(f"not a probability vector (sum {probs.sum():.8f})")
    if not 1 <= shots <= MAX_SHOTS:
        raise BadDistribution(f"shots must be in [1, {MAX_SHOTS}]")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


# ---------------------------------------------------------------------------
# calibration pipeline


def cmd_calibrate(config: ExperimentConfig, store_path: str, verbose: bool = True) -> CalibrationStore:
    """Calibrate the full gate set and persist it.

    Pulse parameters are tuned in the RWA (fast, exact on the flat top),
    then each gate's propagator and virtual phases are re-derived against
    the full non-RWA model.  A store whose fingerprint matches the config is
    reused as-is.
    """
    p = config.device
    fp = config.fingerprint()
    store = CalibrationStore.load(store_path, fp)
    if store is not None and all(n in store for n in GATE_SET):
        if verbose:
            _print_table(store)
        return store
    if not os.path.isdir(os.path.dirname(os.path.abspath(store_path))):
        raise FileNotFoundError(f"cannot write the store {store_path}: its directory does not exist")
    store = CalibrationStore(path=store_path, fingerprint=fp)

    def single(channel, subspace, theta, name):
        return calibrate_single_qutrit(p, channel, subspace, theta, config.sq_duration, config.sq_sigma, name=name)

    def refined(channel, subspace, theta, name):
        target = on_transmon(channel, rx_subspace(subspace, theta))
        g = refine_full_model(p, single(channel, subspace, theta, name), target, min_fidelity=SINGLE_QUTRIT_MIN_FID)
        return replace(g, leakage=_subspace_leakage(g.unitary, channel, subspace))

    store.put(refined(1, "01", np.pi, "x01_pi_1"))
    store.put(refined(2, "01", np.pi, "x01_pi_2"))
    store.put(refined(1, "12", np.pi, "x12_pi_1"))
    store.put(refined(2, "12", np.pi, "x12_pi_2"))
    store.put(refined(2, "12", -np.pi / 2.0, "v_2"))

    # qutrit-Hadamard equivalent on the control: two rotations whose phase
    # mismatch with the exact H3 is absorbed downstream by virtual phases.
    # The parts are tuned alone; the composite is refined as one schedule.
    parts = [
        single(1, "01", H3_THETA1, "h3_r01_1"),
        single(1, "12", np.pi / 2.0, "h3_r12_1"),
    ]
    h3_target = on_transmon(1, rx_subspace("12", np.pi / 2.0) @ rx_subspace("01", H3_THETA1))
    store.put(compose_calibrated(p, "h3_1", h3_target, parts))

    for subspace, theta, amp, name in (
        ("01", np.pi, config.cr01_amp, "cr01_pi"),
        ("12", np.pi / 2.0, config.cr12_amp, "csx12"),
    ):
        g = calibrate_cr_gate(p, subspace, theta, amp, config.risefall, name=name)
        store.put(refine_full_model(p, g, ideal_ucr(subspace, theta)))

    store.save()
    if verbose:
        _print_table(store)
    return store


def _leakage_text(g: CalibratedGate) -> str:
    """A gate's leakage as printed: n/a where none was measured (the CR
    gates and the h3_1 composite)."""
    return "n/a" if g.leakage is None else f"{g.leakage:.2e}"


def _print_table(store: CalibrationStore) -> None:
    print(f"{'gate':<10} {'fidelity':>10} {'leakage':>10} {'duration_ns':>12}")
    for name in GATE_SET:
        g = store.get(name)
        print(f"{name:<10} {g.fidelity:>10.6f} {_leakage_text(g):>10} {g.duration:>12.2f}")


# ---------------------------------------------------------------------------
# Bell pipeline


def _propagate_gate(p, gate: CalibratedGate, psi: np.ndarray, method: str) -> np.ndarray:
    """One circuit segment: pre virtual phases, pulse propagation, post."""
    if method == "store" or not gate.schedule.instructions:
        return gate.unitary @ psi
    propagator = rwa_unitary if method == "rwa" else full_model_unitary
    psi = propagator(p, gate.schedule) @ (np.exp(1j * gate.pre_phases) * psi)
    return np.exp(1j * gate.post_phases) * psi


def cmd_bell(config: ExperimentConfig, store: CalibrationStore, out_dir: str | None = None, method: str = "full") -> ExperimentResult:
    """Prepare (|00> + |11> + |22>)/sqrt(3) from calibrated pulses.

    method: "full" re-propagates every segment without the RWA, "rwa" with
    it, "store" applies the stored full-model propagators.  The final
    control-phase correction is read off the state's diagonal amplitudes,
    standing in for the phase calibration a hardware run would do.
    """
    if method not in BELL_METHODS:
        raise InvalidParams(f"method must be one of {', '.join(BELL_METHODS)}, got {method!r}")
    p = config.device
    sequence = ("h3_1", "cr01_pi", "csx12", "v_2", "x01_pi_2")
    psi = ket2(0, 0)
    duration = 0.0
    for name in sequence:
        g = store.get(name)
        psi = _propagate_gate(p, g, psi, method)
        duration += g.duration

    diag = np.diag(psi.reshape(3, 3))
    angles = -np.angle(diag / diag[0])
    correction = np.exp(1j * angles).repeat(3)
    psi = correction * psi

    target = bell_state()
    fid = state_fidelity(psi, target)
    conc = concurrence(psi)

    # shot estimate of the fidelity: the target's count in a measurement in a
    # basis holding it, drawn as numpy's multinomial draws its first outcome.
    # <psi|psi> is off 1 by the CR gates' DOP853 unitarity defect.
    p_target = min(fid / np.vdot(psi, psi).real, 1.0)
    f_hat = np.random.default_rng(config.seed).binomial(config.shots, p_target) / config.shots
    f_err = float(np.sqrt(max(f_hat * (1.0 - f_hat), 1e-12) / config.shots))

    # concurrence uncertainty: parametric bootstrap over measured populations
    # with plug-in phases (the simulation is pure; see docs for the caveat)
    pops = np.abs(psi) ** 2
    pops = pops / pops.sum()
    phases = np.exp(1j * np.angle(psi))
    phats = np.random.default_rng(config.seed + 1).multinomial(config.shots, pops, size=200) / config.shots
    c_err = float(np.std([concurrence(np.sqrt(phat) * phases) for phat in phats]))

    metrics = (
        MetricReport("bell_fidelity", float(fid), None, None, None),
        MetricReport("bell_fidelity_sampled", float(f_hat), f_err, config.shots, config.seed),
        MetricReport("bell_concurrence", float(conc), c_err, config.shots, config.seed),
    )
    result = ExperimentResult(
        pipeline="bell",
        metrics=metrics,
        duration_ns=duration,
        config_hash=config.fingerprint(),
        seed=config.seed,
        extras={
            "method": method,
            "correction_angles_rad": [float(a) for a in angles],
            "segments": list(sequence),
        },
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "bell_result.json"), "w") as f:
            json.dump(result.to_dict(), f, indent=2, sort_keys=True)
        with open(os.path.join(out_dir, "bell_metrics.jsonl"), "w") as f:
            for m in metrics:
                f.write(json.dumps(m.to_dict(), sort_keys=True) + "\n")
    return result


# ---------------------------------------------------------------------------
# conditional-Rabi pipeline (Fig.-2-style sweeps)


CSV_POP_HEADERS = "p00,p01,p02,p10,p11,p12,p20,p21,p22"

# One data row of a Rabi CSV: t_ns at full precision, so that it parses back
# to the simulated time, then the nine populations at ten decimals.
_RABI_ROW = "%r," + ",".join(["%.10f"] * 9) + "\n"


def _rabi_csv_rows(times: np.ndarray, populations: np.ndarray) -> str:
    """The data rows of a Rabi CSV, formatted by one %-format of the whole
    (points, 10) block.  The values pass through ``tolist()``: %r of an
    np.float64 prints np.float64(...) under numpy 2."""
    block = np.column_stack([times, populations])
    return (_RABI_ROW * len(block)) % tuple(block.ravel().tolist())


def cmd_rabi(
    config: ExperimentConfig,
    subspace: str,
    control_states=(0, 1, 2),
    amp: float | None = None,
    t_max: float = 600.0,
    points: int = 128,
    out_dir: str = ".",
) -> dict:
    """Sweep a CR tone's length for each control state; emit CSV + fits.

    One CSV per control state (columns t_ns, p00..p22) and one JSON sidecar
    with the fitted oscillation per control state plus cross-control
    summaries (rate ratios; the 0-vs-2 phase difference for 12 scans).
    """
    if amp is None:
        amp = config.scan_amp
    if np.isscalar(control_states):
        control_states = (int(control_states),)
    if any(c not in (0, 1, 2) for c in control_states):
        raise InvalidParams(f"control states must be 0, 1 or 2, got {tuple(control_states)}")
    t0 = 2.0 * config.risefall
    if finite_float(t_max, "t_max") <= t0 or points < MIN_SAMPLES:
        raise InvalidParams(f"need a finite t_max > {t0} ns and at least {MIN_SAMPLES} points")
    if points > MAX_SAMPLES:
        raise InvalidParams(f"at most {MAX_SAMPLES} points, got {points}")
    # the tone every sweep shares: its subspace, amplitude and flat top are checked here
    cr_pulse(config.device, subspace, amp, config.risefall)
    widths = np.linspace(0.0, t_max - t0, int(points))
    os.makedirs(out_dir, exist_ok=True)

    fits: dict = {}
    sidecar: dict = {"subspace": subspace, "amp_ghz": float(amp), "fits": {}}
    for c in control_states:
        trace = run_rabi_scan(config.device, subspace, amp, c, widths, config.risefall)
        path = os.path.join(out_dir, f"rabi_{subspace}_c{c}.csv")
        with open(path, "w") as f:
            f.write("t_ns," + CSV_POP_HEADERS + "\n")
            f.write(_rabi_csv_rows(trace.times, trace.populations))
        try:
            fit = fit_rabi(trace.times, trace.observable)
            fits[c] = fit
            sidecar["fits"][f"control_{c}"] = fit.to_dict()
        except NoOscillation as exc:
            fits[c] = None
            sidecar["fits"][f"control_{c}"] = {"error": "NoOscillation", "detail": str(exc)}

    summary: dict = {}
    if fits.get(0) is not None:
        f0 = fits[0].freq
        for c in (1, 2):
            if fits.get(c) is not None:
                summary[f"freq_ratio_{c}_over_0"] = fits[c].freq / f0
    if subspace == "12" and fits.get(0) is not None and fits.get(2) is not None:
        d = np.angle(np.exp(1j * (fits[2].phase - fits[0].phase)))
        summary["phase_diff_0_2_rad"] = float(d)
    sidecar["summary"] = summary
    with open(os.path.join(out_dir, f"rabi_{subspace}.json"), "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
    return sidecar


def cmd_gatefid(store: CalibrationStore, gate_name: str) -> float:
    g = store.get(gate_name)
    print(f"{g.name}: fidelity {g.fidelity:.6f}, leakage {_leakage_text(g)}, duration {g.duration:.2f} ns")
    return g.fidelity
