"""Bare-frame propagators of schedules, one function per model.

``rwa_unitary`` and ``full_model_unitary`` both integrate with fixed-step
sixth-order Magnus (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
in the drive frame.  Each step is the exponential of an anti-Hermitian
matrix, taken as a [9/9] diagonal Pade approximant with scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)); for anti-Hermitian
arguments that approximant is itself unitary, so the propagators are unitary
by construction, up to roundoff.  Without the RWA the step resolves the
counter-rotating drive at twice the carrier.  The
``evolve_*`` functions wrap scipy's adaptive DOP853 (order 8, embedded error
control); the full model uses it only for the one drive period of a CR flat
top that is raised to a power.  States are never silently renormalized; norm
drift is checked after every DOP853 run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .device import DeviceParams, FrameSpec, reframe
from .errors import NormDrift, StepFailure
from .hamiltonian import RWA_CUTOFF_GHZ, rotating_frame_hamiltonian
from .linalg import PAIR_DIM, dag, unitary_defect
from .pulses import GaussianSquare, Schedule

NORM_DRIFT_LIMIT = 1e-6
UNITARY_DRIFT_LIMIT = 1e-7

# Sixth-order Magnus step (ns).  Under the RWA nothing oscillates faster than
# the detunings, so a CR edge lands within ~1e-9 of a rel-1e-12 DOP853.
_MAGNUS_STEP = 0.08

# Sixth-order Magnus step (ns) without the RWA: T/20 of the ~10 GHz
# counter-rotating drive.  The DRAG gates and h3_1 land within ~5e-11 of a
# rel-1e-11 DOP853; the CR gates' ~2.5e-8 is their DOP853 period's error,
# raised to the n-th power.
_FULL_MODEL_STEP = 0.005

# Magnus steps built at once, so that long schedules do not raise peak memory.
# A block's dozen (n, 9, 9) temporaries take ~2 MB at 128 steps; at 512 the
# full model's 0.005 ns steps raised the pipeline's peak RSS by ~2 MB over
# the DOP853 it replaced.
_MAGNUS_BLOCK = 128


@dataclass(frozen=True)
class EvolveOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 0.5  # ns

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("tolerances and max_step must be positive")


DEFAULT_OPTIONS = EvolveOptions()

# Tolerances for propagating calibrated gates without the RWA.
FULL_MODEL_OPTIONS = EvolveOptions(rel_tol=1e-9, abs_tol=1e-11, max_step=0.02)


def _state_rhs(hprov):
    """Schrodinger right-hand side -i H(t) psi for a state vector."""

    def rhs(t, y):
        return -1j * (hprov(t) @ y)

    return rhs


def _solve(rhs, y0, t0, t1, opts, t_eval=None):
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return y0.copy(), None
    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="DOP853",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        max_step=opts.max_step,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol.y[:, -1], sol


def evolve_state(hprov, psi0, t0: float, t1: float, opts: EvolveOptions = DEFAULT_OPTIONS):
    """Solve i dpsi/dt = H(t) psi from t0 to t1; returns the final state."""
    psi0 = np.asarray(psi0, dtype=complex)
    psi, _ = _solve(_state_rhs(hprov), psi0, t0, t1, opts, t_eval=[t1])
    drift = abs(np.linalg.norm(psi) - np.linalg.norm(psi0))
    if drift > NORM_DRIFT_LIMIT:
        raise NormDrift(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return psi


def evolve_trace(hprov, psi0, t_grid, opts: EvolveOptions = DEFAULT_OPTIONS):
    """States sampled on an increasing time grid (one continuous integration).

    Returns an array of shape (len(t_grid), dim).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    if t1 == t0:
        return np.tile(psi0, (len(t_grid), 1))
    _, sol = _solve(_state_rhs(hprov), psi0, t0, t1, opts, t_eval=t_grid)
    states = sol.y.T.copy()
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - np.linalg.norm(psi0))))
    if drift > NORM_DRIFT_LIMIT:
        raise NormDrift(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return states


def evolve_unitary(hprov, t0: float, t1: float, opts: EvolveOptions = DEFAULT_OPTIONS):
    """Propagator over [t0, t1]: all basis columns evolved together."""
    u0 = np.eye(PAIR_DIM, dtype=complex).reshape(-1)

    def rhs(t, y):
        return (-1j * (hprov(t) @ y.reshape(PAIR_DIM, PAIR_DIM))).reshape(-1)

    u, _ = _solve(rhs, u0, t0, t1, opts, t_eval=[t1])
    u = u.reshape(PAIR_DIM, PAIR_DIM)
    defect = unitary_defect(u)
    if defect > UNITARY_DRIFT_LIMIT:
        raise NormDrift(f"unitarity defect {defect:.3e} exceeds {UNITARY_DRIFT_LIMIT:.0e}")
    return u


def _commutator(a, b):
    return a @ b - b @ a


# Numerator coefficients b_0..b_9 of the [9/9] Pade approximant to exp, and
# the largest 1-norm theta_9 at which its backward error stays below double
# precision's unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), table 2.3).
_PADE9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)
_THETA9 = 2.097847961257068


def _unitary_exp(omega: np.ndarray) -> np.ndarray:
    """exp of each anti-Hermitian matrix in an (n, d, d) stack.

    The [9/9] diagonal Pade approximant r(A) = p(-A)^-1 p(A) with scaling and
    squaring.  Its coefficients are real, so for anti-Hermitian A,
    p(-A) = p(A)^dagger and each eigenvalue i lambda maps to
    p(i lambda) / conj(p(i lambda)), of modulus 1: the step is unitary by
    construction, up to roundoff.  A matrix whose 1-norm exceeds theta_9 is
    scaled by 2^-s and its approximant squared s times; s comes from that
    matrix alone, so each result is the same whichever stack it rides in.
    """
    b = _PADE9
    s = np.maximum(np.frexp(np.abs(omega).sum(axis=-2).max(axis=-1) / _THETA9)[1], 0)
    a = omega if not s.any() else omega * np.ldexp(1.0, -s)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a4 @ a4
    eye = np.eye(a.shape[-1])
    odd = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    even = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(even - odd, even + odd)
    for k in range(s.max()):
        big = s > k
        r[big] = r[big] @ r[big]
    return r


def _stepped_unitary(prov, t0: float, t1: float, step: float | None = None) -> np.ndarray:
    """Sixth-order Magnus propagator over [t0, t1] (three-point Gauss nodes).

    Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4: with
    A_i = -i H at the nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of a
    step h, each step is exp(Omega).  The step is at most ``step`` ns,
    ``_MAGNUS_STEP`` by default.  Omega is anti-Hermitian, and its
    exponential is the [9/9] Pade approximant of ``_unitary_exp``, which maps
    every eigenvalue i lambda onto the unit circle: each step is unitary by
    construction.  On the default device an RWA step's 1-norm reaches ~1.1
    and a full-model step's ~0.08, both below theta_9 = 2.1, so no step is
    squared.
    """
    n = max(int(np.ceil((t1 - t0) / (_MAGNUS_STEP if step is None else step))), 1)
    dt = (t1 - t0) / n
    offset = np.sqrt(15.0) / 10.0 * dt
    mids = t0 + dt * np.arange(n) + dt / 2.0
    u = None
    for k in range(0, n, _MAGNUS_BLOCK):
        h1 = prov(mids[k : k + _MAGNUS_BLOCK] - offset)
        h2 = prov(mids[k : k + _MAGNUS_BLOCK])
        h3 = prov(mids[k : k + _MAGNUS_BLOCK] + offset)
        # the -i of A_i = -i H_i rides on the scalar factors
        alpha1 = (-1j * dt) * h2
        alpha2 = (-1j * np.sqrt(15.0) * dt / 3.0) * (h3 - h1)
        alpha3 = (-1j * 10.0 * dt / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = _commutator(alpha1, alpha2)
        c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
        omega = alpha1 + alpha3 / 12.0 + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
        for step in _unitary_exp(omega):
            u = step if u is None else step @ u
    return u


def _rwa_flat_top(p: DeviceParams, schedule: Schedule):
    """(u_rise, u_fall, w, v) of a schedule whose lone play is a Gaussian
    square at carrier c, 2c above the RWA cutoff: in the frame rotating at c,
    Magnus over [0, flat-top start] and [flat-top end, duration], and the
    flat top's constant Hamiltonian v diag(w) v^dagger.
    """
    play = schedule.plays()[0]
    prov = rotating_frame_hamiltonian(p, FrameSpec(play.carrier_freq, play.carrier_freq), schedule, rwa=True)
    a = play.start + play.shape.risefall
    b = a + play.shape.width
    w, v = scipy.linalg.eigh(prov(a + play.shape.width / 2.0))
    return _stepped_unitary(prov, 0.0, a), _stepped_unitary(prov, b, schedule.duration), w, v


def _drive_frame(p: DeviceParams, plays) -> FrameSpec:
    """The frame rotating at the first play's carrier on both transmons, or
    the bare frame when there is no play or that carrier is not positive."""
    if plays and plays[0].carrier_freq > 0:
        return FrameSpec(plays[0].carrier_freq, plays[0].carrier_freq)
    return FrameSpec.bare(p)


def rwa_unitary(p: DeviceParams, schedule: Schedule) -> np.ndarray:
    """Bare-frame propagator of a schedule over [0, duration] under the RWA.

    Magnus runs in the drive frame (``_drive_frame``), where the retained
    terms do not oscillate.  A lone Gaussian-square play's flat top is then
    constant once 2c exceeds the RWA cutoff, and is exponentiated exactly.
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and 2.0 * plays[0].carrier_freq > RWA_CUTOFF_GHZ:
        u_rise, u_fall, w, v = _rwa_flat_top(p, schedule)
        u = u_fall @ (v * np.exp(-1j * w * plays[0].shape.width)) @ dag(v) @ u_rise
    else:
        u = _stepped_unitary(rotating_frame_hamiltonian(p, drive, schedule, rwa=True), 0.0, schedule.duration)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)


def _full_model_steps(prov, t0: float, t1: float, edges) -> np.ndarray:
    """Magnus at ``_FULL_MODEL_STEP`` over [t0, t1], with a step boundary at
    every play edge inside it: H(t) has a kink there, which a step that
    straddles it resolves only to second order (a 0.5 GHz CR rise starting
    0.75 ns in lands 9e-8 off; split, 2e-9)."""
    bounds = [t0, *(t for t in edges if t0 < t < t1), t1]
    u = _stepped_unitary(prov, bounds[0], bounds[1], _FULL_MODEL_STEP)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        u = _stepped_unitary(prov, lo, hi, _FULL_MODEL_STEP) @ u
    return u


def full_model_unitary(p: DeviceParams, schedule: Schedule) -> np.ndarray:
    """Bare-frame propagator of a schedule over [0, duration], without the RWA.

    Magnus at ``_FULL_MODEL_STEP`` runs in the drive frame (``_drive_frame``),
    where the coupling and the co-rotating drive are slow and the
    counter-rotating drive oscillates at 2c.  A lone Gaussian-square play's
    flat top is then exactly periodic with T = 1/(2c), and its propagator is
    U_T^n times one remainder piece, n = floor(width / T) (Floquet; Shirley,
    Phys. Rev. 138, B979 (1965)).  Magnus steps the rise, the remainder and
    the fall; DOP853 at FULL_MODEL_OPTIONS runs the one period, and U_T^n
    comes from repeated squaring.  Every other schedule is stepped whole.
    Steps never straddle the start or end of a play.
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    prov = rotating_frame_hamiltonian(p, drive, schedule, rwa=False)
    edges = sorted({t for play in plays for t in (play.start, play.end)})
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and plays[0].carrier_freq > 0:
        play = plays[0]
        period = 0.5 / play.carrier_freq
        a = play.start + play.shape.risefall
        b = a + play.shape.width
        n = int(play.shape.width // period)
        while n and a + n * period > b:  # roundoff at widths that are whole periods
            n -= 1
        u = _full_model_steps(prov, 0.0, a, edges)
        if n:
            u = np.linalg.matrix_power(evolve_unitary(prov, a, a + period, FULL_MODEL_OPTIONS), n) @ u
        u = _full_model_steps(prov, a + n * period, b, edges) @ u
        u = _full_model_steps(prov, b, schedule.duration, edges) @ u
    else:
        u = _full_model_steps(prov, 0.0, schedule.duration, edges)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)
