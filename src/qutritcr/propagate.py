"""Bare-frame propagators of schedules, one function per model.

``rwa_unitary`` and ``full_model_unitary`` both integrate with fixed-step
sixth-order Magnus (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
in the drive frame.  Each step is the exponential of an anti-Hermitian
matrix, unitary up to roundoff; ``_unitary_exp`` explains how each step
picks its exponential.  Without the RWA the step resolves the
counter-rotating drive at twice the carrier.  The ``evolve_*`` functions
wrap scipy's adaptive DOP853 (order 8, embedded error control); the full
model uses it only for the one drive period of a CR flat top that is raised
to a power.  States are never silently renormalized; norm drift is checked
after every DOP853 run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .device import EXCITATIONS, DeviceParams, FrameSpec, reframe
from .errors import NormDrift, StepFailure
from .hamiltonian import RWA_CUTOFF_GHZ, play_phase, rotating_frame_hamiltonian
from .linalg import PAIR_DIM, dag, expm_unitary, unitary_defect
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

# Steps multiplied pairwise as one group: steps k with the same k // _GROUP.
# The groups follow the absolute step index, so the product does not depend
# on _MAGNUS_BLOCK (blocks are rounded to whole groups).
_GROUP = 128


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
    """[a, b] for anti-Hermitian a and b (or stacks of them).  Then
    (ab)^dagger = ba, so one product does, and the result is exactly
    anti-Hermitian."""
    ab = a @ b
    return ab - ab.conj().swapaxes(-1, -2)


# Numerator coefficients b_0..b_9 of the [9/9] Pade approximant to exp, and
# the largest 1-norm theta_9 at which its backward error stays below double
# precision's unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), table 2.3).
_PADE9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)
_THETA9 = 2.097847961257068

# Coefficients 1/k! of the degree-9 Taylor polynomial T_9, and the largest
# 1-norm at which its backward error stays below unit roundoff (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011), table 3.1).
_TAYLOR9 = tuple(1.0 / math.factorial(k) for k in range(10))
_THETA_TAYLOR9 = 0.0896


def _taylor9(a: np.ndarray) -> np.ndarray:
    """T_9(A) of an (n, d, d) stack by Paterson-Stockmeyer,
    I + A + A^2/2 + A^3 (c_3 I + c_4 A + c_5 A^2 + A^3 (c_6 I + c_7 A + c_8 A^2 + c_9 A^3))
    with c_k = 1/k!: four matrix products and no solve.  The sums are taken
    in place, which spares an (n, d, d) temporary each."""
    c = _TAYLOR9
    a2 = a @ a
    a3 = a2 @ a
    r = c[9] * a3
    for k in (6, 3, 0):
        if k < 6:
            r = a3 @ r
        r += c[k + 2] * a2
        r += c[k + 1] * a
        r.reshape(len(r), -1)[:, :: a.shape[-1] + 1] += c[k]
    return r


def _pade9(omega: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """[9/9] Pade approximant with scaling and squaring of an (n, d, d)
    stack whose 1-norms are ``norm``."""
    b = _PADE9
    s = np.maximum(np.frexp(norm / _THETA9)[1], 0)
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


def _unitary_exp(omega: np.ndarray) -> np.ndarray:
    """exp of each anti-Hermitian matrix in an (n, d, d) stack.

    Each matrix takes its branch from its own 1-norm, so each result is the
    same whichever stack it rides in:

    - 1-norm <= theta_9 = 0.0896: the degree-9 Taylor polynomial
      (``_taylor9``), whose backward error is below unit roundoff u there
      (Al-Mohy & Higham 2011).  It needs no linear solve.  It is not unitary
      by construction, only to its backward error: exp(A + dA) with
      |dA| <= u |A| is unitary to ~u.  On the default device every
      full-model Magnus step (1-norm ~0.03-0.08) takes this branch.
    - larger: the [9/9] diagonal Pade approximant r(A) = p(-A)^-1 p(A) with
      scaling and squaring (``_pade9``; Higham 2005).  Its coefficients are
      real, so for anti-Hermitian A, p(-A) = p(A)^dagger and each
      eigenvalue i lambda maps to p(i lambda) / conj(p(i lambda)), of
      modulus 1: the result is unitary by construction, up to roundoff.  A
      matrix whose 1-norm exceeds 2.1 is scaled by 2^-s and its approximant
      squared s times; s comes from that matrix alone.  Every RWA Magnus
      step (1-norm ~0.45-1.1) takes this branch unsquared.
    """
    norm = np.abs(omega).sum(axis=-2).max(axis=-1)
    taylor = norm <= _THETA_TAYLOR9
    if taylor.all():
        return _taylor9(omega)
    if not taylor.any():
        return _pade9(omega, norm)
    r = np.empty_like(omega)
    r[taylor] = _taylor9(omega[taylor])
    r[~taylor] = _pade9(omega[~taylor], norm[~taylor])
    return r


def _ordered_product(r: np.ndarray) -> np.ndarray:
    """r[-1] @ ... @ r[1] @ r[0] of an (n, d, d) stack, multiplied pairwise:
    each round is one batched matmul of neighbours, an odd last one rides
    along."""
    while len(r) > 1:
        pairs = r[1::2] @ r[0 : len(r) - 1 : 2]
        r = np.concatenate([pairs, r[-1:]]) if len(r) % 2 else pairs
    return r[0]


def _stepped_unitary(prov, t0: float, t1: float, step: float | None = None) -> np.ndarray:
    """Sixth-order Magnus propagator over [t0, t1] (three-point Gauss nodes).

    Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4: with
    A_i = -i H at the nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of a
    step h, each step is exp(Omega).  The step is at most ``step`` ns,
    ``_MAGNUS_STEP`` by default.  Omega is anti-Hermitian, and
    ``_unitary_exp`` takes its exponential.  The steps are multiplied
    pairwise within each ``_GROUP`` (``_ordered_product``).
    """
    n = max(int(np.ceil((t1 - t0) / (_MAGNUS_STEP if step is None else step))), 1)
    dt = (t1 - t0) / n
    offset = np.sqrt(15.0) / 10.0 * dt
    mids = t0 + dt * np.arange(n) + dt / 2.0
    block = max(_MAGNUS_BLOCK // _GROUP, 1) * _GROUP
    u = None
    for k in range(0, n, block):
        h1 = prov(mids[k : k + block] - offset)
        h2 = prov(mids[k : k + block])
        h3 = prov(mids[k : k + block] + offset)
        # the -i of A_i = -i H_i rides on the scalar factors
        alpha1 = (-1j * dt) * h2
        alpha2 = (-1j * np.sqrt(15.0) * dt / 3.0) * (h3 - h1)
        alpha3 = (-1j * 10.0 * dt / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = _commutator(alpha1, alpha2)
        c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
        omega = alpha1 + alpha3 / 12.0 + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
        steps = _unitary_exp(omega)
        for g in range(0, len(steps), _GROUP):
            group = _ordered_product(steps[g : g + _GROUP])
            u = group if u is None else group @ u
    return u


def _rwa_flat_top(p: DeviceParams, schedule: Schedule):
    """(u_rise, u_fall, w, v) of a schedule whose lone play is a Gaussian
    square at carrier c, 2c above the RWA cutoff: in the frame rotating at c,
    the propagators over [0, flat-top start] and [flat-top end, duration],
    and the flat top's constant Hamiltonian v diag(w) v^dagger.

    Every retained term is static in that frame, so H(t) = Z^dagger H0(t) Z
    with H0(t) real symmetric, Z = diag(exp(i phi N)), N the total excitation
    number and phi the play's phase (``play_phase``), and H0's envelope is
    even about the flat top's middle.  Magnus steps only the rise; its
    symmetric three-node step is time-reversible (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)), which makes the fall Z2^dagger u_rise^T Z2
    with Z2 = Z^2.  Idle stretches before and after the play are
    exponentiated exactly, so the stepped rise mirrors the fall.
    """
    play = schedule.plays()[0]
    prov = rotating_frame_hamiltonian(p, FrameSpec(play.carrier_freq, play.carrier_freq), schedule, rwa=True)
    a = play.start + play.shape.risefall
    w, v = scipy.linalg.eigh(prov(a + play.shape.width / 2.0))
    u_rise = _stepped_unitary(prov, play.start, a)
    z2 = np.exp(2j * play_phase(p, schedule, play) * EXCITATIONS)
    u_fall = z2.conj()[:, None] * u_rise.T * z2
    if play.start > 0.0:
        u_rise = u_rise @ expm_unitary(prov(0.0), play.start)
    if schedule.duration > play.end:
        u_fall = expm_unitary(prov(schedule.duration), schedule.duration - play.end) @ u_fall
    return u_rise, u_fall, w, v


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
    constant once 2c exceeds the RWA cutoff, and is exponentiated exactly;
    its fall edge is its rise's mirror image (``_rwa_flat_top``).  Every
    other schedule is stepped whole, split at its play edges as in the full
    model (``_split_at_edges``).
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and 2.0 * plays[0].carrier_freq > RWA_CUTOFF_GHZ:
        u_rise, u_fall, w, v = _rwa_flat_top(p, schedule)
        u = u_fall @ (v * np.exp(-1j * w * plays[0].shape.width)) @ dag(v) @ u_rise
    else:
        u = _split_at_edges(rotating_frame_hamiltonian(p, drive, schedule, rwa=True), 0.0, schedule.duration, plays)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)


def _split_at_edges(prov, t0: float, t1: float, plays, *step) -> np.ndarray:
    """Magnus (``_stepped_unitary``, at ``step`` ns if given) over [t0, t1],
    with a step boundary at every play edge inside it: H(t) has a kink
    there, which a step that straddles it resolves only to second order (a
    0.5 GHz CR rise starting 0.75 ns in lands 9e-8 off in the full model,
    2e-9 split; two 32.1 ns DRAG plays 1.3e-4 off under the RWA, 1.9e-8
    split)."""
    bounds = [t0, *sorted({t for play in plays for t in (play.start, play.end) if t0 < t < t1}), t1]
    u = _stepped_unitary(prov, bounds[0], bounds[1], *step)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        u = _stepped_unitary(prov, lo, hi, *step) @ u
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
    Steps never straddle the start or end of a play (``_split_at_edges``).
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    prov = rotating_frame_hamiltonian(p, drive, schedule, rwa=False)
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and plays[0].carrier_freq > 0:
        play = plays[0]
        period = 0.5 / play.carrier_freq
        a = play.start + play.shape.risefall
        b = a + play.shape.width
        n = int(play.shape.width // period)
        while n and a + n * period > b:  # roundoff at widths that are whole periods
            n -= 1
        u = _split_at_edges(prov, 0.0, a, plays, _FULL_MODEL_STEP)
        if n:
            u = np.linalg.matrix_power(evolve_unitary(prov, a, a + period, FULL_MODEL_OPTIONS), n) @ u
        u = _split_at_edges(prov, a + n * period, b, plays, _FULL_MODEL_STEP) @ u
        u = _split_at_edges(prov, b, schedule.duration, plays, _FULL_MODEL_STEP) @ u
    else:
        u = _split_at_edges(prov, 0.0, schedule.duration, plays, _FULL_MODEL_STEP)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)
