"""Gate calibration: single-qutrit pulses, CR rate scans, and the two-stage
cross-resonance tune-up.

All calibrated gates are stored as a pulse schedule plus virtual-phase
corrections.  The corrected unitary of a gate is

    diag(exp(i post)) @ U_pulse @ diag(exp(i pre))

where U_pulse is the bare-frame propagator of the schedule.  The pre/post
diagonals encode frame-tracking phases that hardware would apply as
zero-duration virtual Z rotations.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, minimize, minimize_scalar

from .crpulse import cr_pulse
from .device import EXCITATIONS, DeviceParams, FrameSpec, transition_frequencies
from .effective import ideal_ucr, rx_subspace
from .errors import CalibrationFailed, InvalidParams
from .fitting import fit_rabi
from .linalg import PAIR_DIM, dag, ket2, kron, unitary_defect
from .propagate import full_model_unitary, rwa_unitary
from .pulses import (
    DEFAULT_RISEFALL_NS,
    DragGaussian,
    GaussianSquare,
    Play,
    Schedule,
    concat,
    schedule_from_dicts,
    schedule_to_dicts,
)

# d(phase of term jk of the trace overlap S)/dx, row j*9 + k with j = 3a + b:
# the post Z phases of control level a and target level b, and the
# carrier-phase weight N_k - N_j.
_PHASE_WEIGHTS = np.hstack([
    np.repeat([[a == 1, a == 2, b == 1, b == 2] for a in range(3) for b in range(3)], 9, axis=0),
    (EXCITATIONS[None, :] - EXCITATIONS[:, None]).reshape(81, 1),
]).astype(float)

# Newton ascent of the phase correction: Hessian eigendirections whose
# curvature is below _CURVATURE_FLOOR times the largest are left alone.  F's
# flat directions sit at roundoff there, <= ~3e-16; the carrier phase of a
# target 1e-5 rad from a pi rotation at ~3e-12, and F loses ~2e-11 if it is
# left alone.  A run ends at a step that moves no phase by more than
# _PHASE_TOL rad, or after _MAX_NEWTON_STEPS steps (roundoff keeps stepping
# along a nearly flat direction); a trial step is halved while F falls by
# more than _F_ROUNDOFF, F's own rounding error.
_CURVATURE_FLOOR = 1e-14
_PHASE_TOL = 1e-13
_MAX_NEWTON_STEPS = 50
_F_ROUNDOFF = 1e-15
# The free solve (carrier phase too) replaces the pinned one (carrier phase 0)
# only when it rises F by more than this.
_FREE_GAIN = 1e-13
# The second fixed start of the pinned solve, (zc1, zc2, zt1, zt2).
_FIXED_START = np.array([0.1, -0.1, 0.1, -0.1])

SINGLE_QUTRIT_MIN_FID = 0.999
CR_MIN_FID = 0.95
# CR tune-up: amp within +/- CR_AMP_BAND of its default, <= CR_MAX_EVALS pulses
CR_AMP_BAND = 0.15
CR_MAX_EVALS = 120

# Largest unitarity defect a gate read from a store may carry.  Magnus
# propagators are unitary to roundoff (<= 1e-12 for the default DRAG gates
# and h3_1), but a full-model CR gate keeps the defect of its DOP853 drive
# period raised to a power (1.7e-8 for the default cr01_pi, 7e-9 for csx12),
# so the bound sits above that and far below a corrupted matrix.  A
# composite is propagated from its own schedule like any other gate.
STORED_UNITARY_TOL = 1e-6


# ---------------------------------------------------------------------------
# calibrated-gate container


@dataclass(frozen=True)
class CalibratedGate:
    name: str
    schedule: Schedule
    pre_phases: np.ndarray  # (9,) rad, applied before the pulse
    post_phases: np.ndarray  # (9,) rad, applied after the pulse
    unitary: np.ndarray  # corrected bare-frame 9x9 propagator
    fidelity: float  # average gate fidelity to the ideal target
    leakage: float | None = None  # worst-case population out of a DRAG gate's subspace; None: not measured

    @property
    def duration(self) -> float:
        return self.schedule.duration

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "schedule": schedule_to_dicts(self.schedule),
            "pre_phases": [float(x) for x in self.pre_phases],
            "post_phases": [float(x) for x in self.post_phases],
            "unitary_re": np.round(self.unitary.real, 15).tolist(),
            "unitary_im": np.round(self.unitary.imag, 15).tolist(),
            "fidelity": float(self.fidelity),
            "leakage": None if self.leakage is None else float(self.leakage),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibratedGate":
        return cls(
            name=d["name"],
            schedule=schedule_from_dicts(d["schedule"]),
            pre_phases=np.array(d["pre_phases"], dtype=float),
            post_phases=np.array(d["post_phases"], dtype=float),
            unitary=np.array(d["unitary_re"]) + 1j * np.array(d["unitary_im"]),
            fidelity=float(d["fidelity"]),
            leakage=None if d.get("leakage") is None else float(d["leakage"]),
        )


def _well_formed(g: CalibratedGate) -> bool:
    """Finite (9, 9) unitary within STORED_UNITARY_TOL, finite (9,) phases,
    finite fidelity, and finite or unmeasured (None) leakage."""
    leakage = [] if g.leakage is None else [g.leakage]
    arrays = (g.unitary, g.pre_phases, g.post_phases, np.array([g.fidelity, *leakage]))
    return (
        g.unitary.shape == (PAIR_DIM, PAIR_DIM)
        and g.pre_phases.shape == g.post_phases.shape == (PAIR_DIM,)
        and all(np.isfinite(a).all() for a in arrays)
        and unitary_defect(g.unitary) <= STORED_UNITARY_TOL
    )


def _apply_phases(u: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    return np.exp(1j * post)[:, None] * u * np.exp(1j * pre)[None, :]


# ---------------------------------------------------------------------------
# phase-correction search


def _correction_phases(x: np.ndarray):
    """(pre, post) diagonals of the virtual correction x; see
    phase_corrected_fidelity for its five components."""
    theta = np.add.outer(np.array([0.0, x[0], x[1]]), np.array([0.0, x[2], x[3]])).reshape(9)
    return x[4] * EXCITATIONS, theta - x[4] * EXCITATIONS


def _overlap_terms(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 81 terms w_jk = exp(i g_jk . x) m_jk of the trace overlap S, with
    g_jk the row j*9 + k of _PHASE_WEIGHTS."""
    return m.reshape(PAIR_DIM * PAIR_DIM) * np.exp(1j * (_PHASE_WEIGHTS @ x))


def _fidelity_derivatives(m: np.ndarray, x: np.ndarray):
    """Corrected fidelity F(x), its gradient and its Hessian, with
    m = u * target.conj().

    F = (|S|^2 + 9) / 90 with the trace overlap S = sum_jk w_jk (see
    _overlap_terms), so dS = i G^T w and d2S = -G^T diag(w) G with
    G = _PHASE_WEIGHTS, and 90 dF = 2 Re(conj(S) dS),
    90 d2F = 2 Re(conj(S) d2S + dS dS^H); every product with G is taken on
    real and imaginary parts apart.
    """
    w = _overlap_terms(m, x)
    s = w.sum()
    c = np.conj(s) * w
    gw = w.view(float).reshape(-1, 2).T @ _PHASE_WEIGHTS  # rows Re, Im of G^T w
    grad = -(c.imag @ _PHASE_WEIGHTS)
    hess = gw.T @ gw - (_PHASE_WEIGHTS.T * c.real) @ _PHASE_WEIGHTS
    return (abs(s) ** 2 + 9.0) / 90.0, grad / 45.0, hess / 45.0


def _newton(fun, x0, **_):
    """minimize() method: Newton steps on the exact Hessian.

    fun(x) returns (f, gradient, Hessian).  Each step solves the Newton
    system with |lambda| on the Hessian's eigendirections above a relative
    floor, so it descends where f is not convex and leaves flat directions
    alone, and is halved while f rises by more than _F_ROUNDOFF.  The run
    stops at a step that moves no coordinate by more than _PHASE_TOL: F
    fixes the phases only to ~sqrt(eps), its gradient and Hessian to ~eps.
    """
    x = np.asarray(x0, dtype=float)
    f, grad, hess = fun(x)
    nfev = 1
    for _ in range(_MAX_NEWTON_STEPS):
        lam, vec = np.linalg.eigh(hess)
        keep = np.abs(lam) > _CURVATURE_FLOOR * np.abs(lam).max()
        step = -vec[:, keep] @ ((vec[:, keep].T @ grad) / np.abs(lam[keep]))
        while True:
            if np.abs(step).max(initial=0.0) <= _PHASE_TOL:
                return OptimizeResult(x=x, fun=f, nfev=nfev, success=True)
            trial = x + step
            f_trial, grad_trial, hess_trial = fun(trial)
            nfev += 1
            if f_trial <= f + _F_ROUNDOFF:
                break
            step = step / 2.0
        x, f, grad, hess = trial, f_trial, grad_trial, hess_trial
    return OptimizeResult(x=x, fun=f, nfev=nfev, success=False)


def _wrap(x: np.ndarray) -> np.ndarray:
    """Angles mapped into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def _aligned_start(m: np.ndarray) -> np.ndarray:
    """Pinned start (zc1, zc2, zt1, zt2) in closed form, per transmon as
    calibrate_virtual_phases does for the control: with the carrier phase at
    0, S = sum_ab exp(i (zc_a + zt_b)) r_ab for the row sums r of m, and
    each level's sum over the other transmon is turned into phase with its
    level-0 sum.  Zeros when a sum vanishes.
    """
    r = m.sum(axis=1).reshape(3, 3)
    sums = np.concatenate([r.sum(axis=1), r.sum(axis=0)])
    if np.abs(sums).min() < 1e-12:
        return np.zeros(4)
    return np.angle(sums[[0, 0, 3, 3]] * sums[[1, 2, 4, 5]].conj())


def phase_corrected_fidelity(u: np.ndarray, target: np.ndarray, x: np.ndarray) -> float:
    """Average gate fidelity after the 5-parameter virtual correction x.

    x = (zc1, zc2, zt1, zt2, phi): a post Z-diagonal on each transmon plus a
    carrier-phase shift phi realized as conjugation by the total-excitation
    diagonal.
    """
    return _fidelity_derivatives(u * target.conj(), x)[0]


def optimize_phase_correction(u: np.ndarray, target: np.ndarray):
    """Best virtual-phase correction of u toward target, as a function of u.

    F has flat directions (2 pi shifts; for a target that permutes levels, a
    carrier phase that the Z phases absorb), so a gauge is fixed: Newton
    ascent (``_newton``) first with the carrier phase pinned to 0, from
    zeros, a fixed start and the closed-form ``_aligned_start`` (the first
    start wins ties within _FREE_GAIN), then with all five phases free from
    that winner.  The free result is kept only if it rises F by more than
    _FREE_GAIN.  The phases are wrapped into (-pi, pi].  Returns (fidelity,
    pre_phases, post_phases) with the carrier-phase conjugation folded into
    the two diagonals.
    """
    m = u * target.conj()

    def neg(x):
        f, grad, hess = _fidelity_derivatives(m, x)
        return -f, -grad, -hess

    def pinned(y):
        f, grad, hess = neg(np.append(y, 0.0))
        return f, grad[:4], hess[:4, :4]

    best = None
    for y0 in (np.zeros(4), _FIXED_START, _aligned_start(m)):
        res = minimize(pinned, y0, method=_newton)
        if best is None or res.fun < best.fun - _FREE_GAIN:
            best = res
    x, f = np.append(best.x, 0.0), -best.fun
    free = minimize(neg, x, method=_newton)
    if -free.fun > f + _FREE_GAIN:
        x = free.x
    x = _wrap(x)
    pre, post = _correction_phases(x)
    return _fidelity_derivatives(m, x)[0], pre, post


def calibrate_virtual_phases(achieved: np.ndarray, target: np.ndarray):
    """Control-channel Zdiag angles (phi_a, phi_b) such that
    achieved @ kron(Zdiag(phi_a, phi_b), I) best matches the target.

    Solved in closed form: the trace splits into one term per control level,
    and each is aligned in phase with the control-0 term.
    """
    overlap = np.diag(dag(target) @ achieved)
    sums = overlap.reshape(3, 3).sum(axis=1)
    if min(abs(sums)) < 1e-12:
        raise CalibrationFailed("degenerate overlap; virtual phases undetermined")
    ref = np.angle(sums[0])
    phi_a = float(np.angle(np.exp(1j * (ref - np.angle(sums[1])))))
    phi_b = float(np.angle(np.exp(1j * (ref - np.angle(sums[2])))))
    return phi_a, phi_b


# ---------------------------------------------------------------------------
# single-qutrit gates


def _drag_schedule(channel, carrier, amp, beta, duration, sigma):
    shape = DragGaussian(amp=amp, sigma=sigma, duration=duration, beta=beta)
    return Schedule((Play(channel=channel, start=0.0, shape=shape, carrier_freq=carrier),))


def _subspace_leakage(u: np.ndarray, channel: int, subspace: str) -> float:
    """Worst-case population driven out of the gate's two-level subspace."""
    lo = 0 if subspace == "01" else 1
    outside = 2 - lo if subspace == "01" else 0
    worst = 0.0
    for lvl in (lo, lo + 1):
        for other in range(3):
            psi = ket2(lvl, other) if channel == 1 else ket2(other, lvl)
            out = u @ psi
            pops = (np.abs(out) ** 2).reshape(3, 3)
            leak = pops[outside, :].sum() if channel == 1 else pops[:, outside].sum()
            worst = max(worst, float(leak))
    return worst


def calibrate_single_qutrit(
    p: DeviceParams,
    channel: int,
    subspace: str,
    theta: float,
    duration: float = 32.0,
    sigma: float = 8.0,
    name: str | None = None,
) -> CalibratedGate:
    """DRAG pulse realizing R_X^{subspace}(theta) on one transmon.

    The amplitude is seeded from the envelope area, then refined together
    with the DRAG beta against the phase-corrected gate fidelity.
    """
    if name is None:
        name = f"r{subspace}_{channel}"
    if theta == 0.0:
        return CalibratedGate(name, Schedule(()), np.zeros(9), np.zeros(9), np.eye(9, dtype=complex), 1.0, 0.0)

    elem = 1.0 if subspace == "01" else np.sqrt(2.0)
    unit_area = DragGaussian(amp=1.0, sigma=sigma, duration=duration, beta=0.0).area()
    amp0 = theta / (2.0 * np.pi * elem * unit_area)
    if abs(amp0) > 1.0:
        raise InvalidParams(f"rotation {theta} needs amp {amp0:.3f} GHz > cap; lengthen the pulse")
    carrier = transition_frequencies(p, dressed=True).of(channel, subspace)
    rot = rx_subspace(subspace, theta)
    target = kron(rot, np.eye(3)) if channel == 1 else kron(np.eye(3), rot)

    def fid_of(amp, beta):
        sched = _drag_schedule(channel, carrier, amp, beta, duration, sigma)
        u = rwa_unitary(p, sched)
        f, pre, post = optimize_phase_correction(u, target)
        return f, u, pre, post, sched

    # coarse beta scan, then 1-d refinements of amp and beta
    betas = np.linspace(-1.5, 1.5, 21)
    scores = [fid_of(amp0, b)[0] for b in betas]
    beta = float(betas[int(np.argmax(scores))])
    res = minimize_scalar(
        lambda a: -fid_of(a, beta)[0],
        bounds=(0.9 * amp0, 1.1 * amp0) if amp0 > 0 else (1.1 * amp0, 0.9 * amp0),
        method="bounded",
        options={"xatol": 1e-7},
    )
    amp = float(res.x)
    res = minimize_scalar(
        lambda b: -fid_of(amp, b)[0],
        bounds=(beta - 0.3, beta + 0.3),
        method="bounded",
        options={"xatol": 1e-5},
    )
    beta = float(res.x)

    f, u, pre, post, sched = fid_of(amp, beta)
    if f < SINGLE_QUTRIT_MIN_FID:
        raise CalibrationFailed(f"{name}: fidelity {f:.6f} < {SINGLE_QUTRIT_MIN_FID}")
    corrected = _apply_phases(u, pre, post)
    leak = _subspace_leakage(corrected, channel, subspace)
    return CalibratedGate(name, sched, pre, post, corrected, f, leak)


def compose_calibrated(p: DeviceParams, name: str, target: np.ndarray, parts: list) -> CalibratedGate:
    """Back-to-back composite of the parts' pulses, refined as one schedule
    against target (``refine_full_model``); the parts' phases and unitaries
    are not used."""
    sched = concat(*(g.schedule for g in parts))
    unrefined = CalibratedGate(name, sched, np.zeros(9), np.zeros(9), np.eye(9, dtype=complex), 0.0)
    return refine_full_model(p, unrefined, target, min_fidelity=SINGLE_QUTRIT_MIN_FID)


# ---------------------------------------------------------------------------
# conditional Rabi scans


@dataclass(frozen=True)
class RabiTrace:
    subspace: str
    control_state: int
    amp: float
    times: np.ndarray  # ns
    states: np.ndarray  # (N, 9)

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def observable(self) -> np.ndarray:
        """Fitted scan signal: target 0->1 transfer for 01 scans, the
        imaginary 1-2 target coherence for 12 scans (populations alone are
        even in the rotation angle there)."""
        if self.subspace == "01":
            return self.populations[:, 3 * self.control_state + 1]
        c = self.control_state
        return 2.0 * np.imag(np.conj(self.states[:, 3 * c + 1]) * self.states[:, 3 * c + 2])


def prepare_control_state(p: DeviceParams, c: int, store: "CalibrationStore | None" = None):
    """Initial two-qutrit state with the control transmon in |c>.

    With a store, composes the calibrated x01/x12 pi pulses on transmon 1;
    otherwise uses ideal rotations.  Returns (psi0, prep_duration_ns).
    """
    if c not in (0, 1, 2):
        raise InvalidParams(f"control state must be 0, 1, or 2, got {c}")
    psi = ket2(0, 0)
    if store is not None:
        names = ["x01_pi_1", "x12_pi_1"][: c]
        dur = 0.0
        for n in names:
            g = store.get(n)
            psi = g.unitary @ psi
            dur += g.duration
        return psi, dur
    u = np.eye(3)
    if c >= 1:
        u = rx_subspace("01", np.pi) @ u
    if c == 2:
        u = rx_subspace("12", np.pi) @ u
    return kron(u, np.eye(3)) @ psi, 0.0


def run_rabi_scan(
    p: DeviceParams,
    subspace: str,
    amp: float,
    control_state: int,
    widths: np.ndarray,
    risefall: float = DEFAULT_RISEFALL_NS,
    mode: str = "pulsed",
) -> RabiTrace:
    """Conditional Rabi scan of a CR tone versus pulse length.

    12-subspace scans start the target in (|0> - |1>)/sqrt(2) so the
    conditional 1-2 rotation shows up as a first-order coherence signal.
    mode="pulsed" simulates one full flat-top pulse per point;
    mode="plateau" records a continuous trace along a single long plateau.
    """
    widths = np.asarray(widths, dtype=float)
    psi0, _ = prepare_control_state(p, control_state)
    if subspace == "12":
        s = 1.0 / np.sqrt(2.0)
        minus = np.array([[s, s, 0.0], [-s, s, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        psi0 = kron(np.eye(3), minus) @ psi0
    pulse = cr_pulse(p, subspace, amp, risefall)
    if mode == "pulsed":
        states = pulse.states_after(psi0, widths)
        times = widths + 2.0 * risefall
    elif mode == "plateau":
        states = pulse.plateau_states(psi0, widths)
        times = widths
    else:
        raise InvalidParams(f"unknown scan mode {mode!r}")
    return RabiTrace(subspace, control_state, amp, times, states)


# ---------------------------------------------------------------------------
# cross-resonance calibration


def edge_equivalent_width(amp: float, risefall: float) -> float:
    """Flat-top time equivalent, in area, to the two Gaussian edges."""
    gs = GaussianSquare(amp=amp, sigma=risefall / 2.0, risefall=risefall, width=0.0)
    return gs.area() / amp


def calibrate_cr_gate(
    p: DeviceParams,
    subspace: str,
    theta: float,
    amp_default: float,
    risefall: float = DEFAULT_RISEFALL_NS,
    name: str | None = None,
) -> CalibratedGate:
    """Two-stage tune-up of a conditional CR rotation U_CR^{subspace}(theta).

    Stage 1 estimates the conditional rate from a control-0 plateau scan and
    converts it to a width guess.  Stage 2 runs a bounded Nelder-Mead over
    (amp, width) -- amp confined to +/- CR_AMP_BAND around the configured
    default, which sets the gate-time operating point -- with the virtual
    phase correction re-optimized at every step.
    """
    if name is None:
        name = f"cr{subspace}"
    bare = FrameSpec.bare(p)
    target = ideal_ucr(subspace, theta)

    # stage 1: conditional rate at the default amplitude
    scan_w = np.linspace(0.0, 4000.0, 2001)
    trace = run_rabi_scan(p, subspace, amp_default, 0, scan_w, risefall, mode="plateau")
    fit = fit_rabi(trace.times, trace.observable)
    w_guess = max(abs(theta) / (2.0 * np.pi * fit.freq) - edge_equivalent_width(amp_default, risefall), 1.0)

    lo, hi = (1.0 - CR_AMP_BAND) * amp_default, (1.0 + CR_AMP_BAND) * amp_default
    evals = [0]

    def objective(z):
        amp, width = z
        if not (lo <= amp <= hi) or width < 0 or evals[0] >= CR_MAX_EVALS:
            return 0.0
        evals[0] += 1
        u = cr_pulse(p, subspace, amp, risefall).unitary(width, frame=bare)
        f, _, _ = optimize_phase_correction(u, target)
        return -f

    res = minimize(
        objective,
        [amp_default, w_guess],
        method="Nelder-Mead",
        options={"maxfev": CR_MAX_EVALS, "xatol": 1e-5, "fatol": 1e-10},
    )
    amp, width = float(np.clip(res.x[0], lo, hi)), max(float(res.x[1]), 0.0)
    best = cr_pulse(p, subspace, amp, risefall)
    u = best.unitary(width, frame=bare)
    f, pre, post = optimize_phase_correction(u, target)
    if f < CR_MIN_FID:
        raise CalibrationFailed(f"{name}: fidelity {f:.4f} < {CR_MIN_FID} after {evals[0]} evals")
    return CalibratedGate(name, best.schedule(width), pre, post, _apply_phases(u, pre, post), f)


def refine_full_model(
    p: DeviceParams,
    gate: CalibratedGate,
    target: np.ndarray,
    min_fidelity: float = CR_MIN_FID,
) -> CalibratedGate:
    """Re-derive a gate's propagator and virtual phases without the RWA.

    Pulse parameters are kept from the RWA calibration; the counter-rotating
    terms mostly contribute ac-Stark phase shifts, which the virtual-phase
    correction absorbs.  The corrected fidelity must still clear
    min_fidelity; it is not checked against the RWA value.  With the default
    configuration the RWA-minus-full gap is 1.856e-3 for cr01_pi, -6.21e-5
    for csx12 and at most 6.90e-7 for the single-qutrit gates (x12_pi_1),
    with the full model's propagators within 2.5e-8 of a rel-1e-11 DOP853.
    The refined gate's leakage is None: the RWA figure does not describe the
    full-model unitary, and only the caller knows a DRAG gate's subspace
    (``_subspace_leakage``).
    """
    if not gate.schedule.instructions:
        return gate
    u = full_model_unitary(p, gate.schedule)
    f, pre, post = optimize_phase_correction(u, target)
    if f < min_fidelity:
        raise CalibrationFailed(f"{gate.name}: full-model fidelity {f:.4f} < {min_fidelity}")
    return CalibratedGate(gate.name, gate.schedule, pre, post, _apply_phases(u, pre, post), f)


# ---------------------------------------------------------------------------
# persistence


# Enters every store fingerprint.  Bump it whenever calibration can return
# different gates for the same configuration, so older stores recalibrate
# (CHANGES.md records each bump).  9: a degree-9 Taylor exponential for every
# Magnus step with a 1-norm below 0.0896, and a stored leakage measured from
# the stored unitary or None.
CALIBRATION_VERSION = 9


def config_fingerprint(device: DeviceParams, defaults: dict) -> str:
    blob = json.dumps(
        {"calibration_version": CALIBRATION_VERSION, "device": device.to_dict(), "defaults": defaults},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CalibrationStore:
    """JSON-backed set of calibrated gates, keyed by a config fingerprint.

    A store whose fingerprint does not match the current configuration (or
    whose file is corrupted) is discarded and calibration reruns.
    """

    path: str
    fingerprint: str
    gates: dict = field(default_factory=dict)

    def get(self, name: str) -> CalibratedGate:
        if name not in self.gates:
            raise CalibrationFailed(f"gate {name!r} not in store {self.path}")
        return self.gates[name]

    def put(self, gate: CalibratedGate) -> None:
        self.gates[gate.name] = gate

    def __contains__(self, name: str) -> bool:
        return name in self.gates

    def save(self) -> None:
        """Write the store atomically: a failed write leaves the old file."""
        payload = {
            "fingerprint": self.fingerprint,
            "gates": {n: g.to_dict() for n, g in sorted(self.gates.items())},
        }
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str, fingerprint: str) -> "CalibrationStore | None":
        """Load a store if present, uncorrupted, and fingerprint-matched.

        A file that is not a JSON object with a ``gates`` object, or that
        holds a malformed gate (see _well_formed), counts as corrupted.
        """
        if not os.path.exists(path):
            return None
        try:
            with open(path) as f:
                payload = json.load(f)
            if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
                return None
            if not isinstance(payload["gates"], dict):
                return None
            gates = {n: CalibratedGate.from_dict(d) for n, d in payload["gates"].items()}
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, InvalidParams):
            return None
        if not all(_well_formed(g) for g in gates.values()):
            return None
        return cls(path=path, fingerprint=fingerprint, gates=gates)
