"""Bare-frame propagators of schedules, one function per model.

``rwa_unitary`` and ``full_model_unitary`` both integrate with fixed-step
sixth-order Magnus (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
in a drive frame (``_drive_frame``).  Each step is the exponential of an
anti-Hermitian matrix, taken by one algorithm for both models: a Taylor
polynomial of degree 9 or 18 (by the step's 1-norm), unitary up to roundoff
and free of linear solves (``_unitary_exp``).  Without the RWA the step
resolves the counter-rotating drive at twice the carrier.  The ``evolve_*``
functions wrap scipy's adaptive DOP853 (order 8, embedded error control);
the full model uses it only for the one drive period of a CR flat top that
is raised to a power.  States are never silently renormalized; norm drift
is checked after every DOP853 run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .device import EXCITATIONS, DeviceParams, FrameSpec, reframe
from .errors import NormDrift, StepFailure
from .hamiltonian import keeps_counter_rotating, play_phase, rotating_frame_hamiltonian
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
# A block's seven (n, 9, 9) kernel buffers take 1.2 MB at 128 steps; at 512
# the full model's 0.005 ns steps, with a dozen fresh temporaries per block,
# raised the pipeline's peak RSS by ~2 MB over the DOP853 it replaced.
_MAGNUS_BLOCK = 128

# Steps multiplied pairwise as one group: steps k with the same k // _GROUP.
# The groups follow the absolute step index, so the product does not depend
# on _MAGNUS_BLOCK (blocks are rounded to whole groups).
_GROUP = 128

# The Magnus kernel's seven (n, 9, 9) buffers, kept per thread between calls
# (``_kernel_buffers``).  Arrays this large that are allocated afresh come
# back from the system page by page, because glibc returns them when they
# are freed: a 20 ns CR rise took 450-610 page faults of ~3 us each, and
# with kept buffers none.  They hold scratch only: each block writes every
# buffer before it reads it, and no result is a view of them.
_KERNEL = threading.local()
_KERNEL_SLOTS = 7


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
    return evolve_trace(hprov, psi0, [t0, t1], opts)[-1]


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


def _commutator(a, b, out=None, work=None):
    """[a, b] for anti-Hermitian a and b (or stacks of them), into ``out``
    with ``work`` for the product when given.  Then (ab)^dagger = ba, so one
    product does, and the result is exactly anti-Hermitian."""
    ab = np.matmul(a, b, out=work)
    out = np.conjugate(ab.swapaxes(-1, -2), out=out)
    return np.subtract(ab, out, out=out)


# Coefficients 1/k! of the Taylor polynomials T_9 and T_18, and the largest
# 1-norms theta_9 and theta_18 at which their backward errors stay below
# unit roundoff (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011),
# table 3.1).
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(19))
_THETA_TAYLOR9 = 0.0896
_THETA_TAYLOR18 = 1.09


def _right_factor(b: np.ndarray, out=None) -> np.ndarray:
    """The real (n, 2d, 2d) stack M of an (n, d, d) complex stack b with
    a.view(float) @ M = (a @ b).view(float) for every (n, d, d) complex
    a: rows 2j of M are row j of b, rows 2j + 1 row j of i b, each read as
    (re, im) pairs.  A real product with M costs less than half a complex
    one, so a right factor used more than once pays for its M."""
    if out is None:
        out = np.empty((len(b), 2 * b.shape[-2], 2 * b.shape[-1]))
    out[:, 0::2].view(complex)[...] = b
    np.multiply(b, 1j, out=out[:, 1::2].view(complex))
    return out


def _taylor(a: np.ndarray, m: int, work=None) -> np.ndarray:
    """T_m(A) of an (n, d, d) stack (m = 9 or 18) by Paterson-Stockmeyer,
    I + A + A^2/2 + (c_3 I + c_4 A + c_5 A^2 + (c_6 I + ... + c_m A^3) A^3) A^3
    with c_k = 1/k!: m/3 + 1 matrix products and no solve.  Every product
    has A or A^3 on its right, taken as a real product with its
    ``_right_factor``.  Every product and scaled term lands in one of four
    (n, d, d) buffers and one real (n, 2d, 2d) one, ``work`` if given (the
    result is one of the four)."""
    a = np.ascontiguousarray(a)  # its float view is a product's left factor
    if work is None:
        work = *(np.empty_like(a) for _ in range(4)), None
    a2, a3, r, tmp, right = work
    c = _TAYLOR
    right = _right_factor(a, right)
    np.matmul(a.view(float), right, out=a2.view(float))
    np.matmul(a2.view(float), right, out=a3.view(float))
    right = _right_factor(a3, right)
    np.multiply(a3, c[m], out=r)
    for k in range(m - 3, -1, -3):
        if k < m - 3:
            r, tmp = np.matmul(r.view(float), right, out=tmp.view(float)).view(complex), r
        r += np.multiply(a2, c[k + 2], out=tmp)
        r += np.multiply(a, c[k + 1], out=tmp)
        r.reshape(len(r), -1)[:, :: a.shape[-1] + 1] += c[k]
    return r


def _squared_taylor18(omega: np.ndarray, norm: np.ndarray, work=None) -> np.ndarray:
    """T_18 of an (n, d, d) stack whose 1-norms are ``norm``, each matrix
    scaled by 2^-s and squared s times, s from its own norm (0 up to theta_18)."""
    s = np.maximum(np.frexp(norm / _THETA_TAYLOR18)[1], 0)
    r = _taylor(omega if not s.any() else omega * np.ldexp(1.0, -s)[:, None, None], 18, work)
    for k in range(s.max()):
        big = s > k
        r[big] = r[big] @ r[big]
    return r


def _one_norm(a: np.ndarray, mags=None) -> np.ndarray:
    """Largest column sum of |a| of each matrix of an (n, d, d) stack, with
    |a| in the real buffer ``mags`` if given.  The rows are added in order,
    as ``np.abs(a).sum(axis=-2)`` adds them, so the sums are bit-identical
    to it without its strided reduction."""
    mags = np.abs(a, out=mags)
    col = mags[:, 0].copy()
    for row in range(1, a.shape[-2]):
        col += mags[:, row]
    return col.max(axis=-1)


def _unitary_exp(omega: np.ndarray, work=None) -> np.ndarray:
    """exp of each anti-Hermitian matrix in an (n, d, d) stack by a Taylor
    polynomial, whose backward error stays below unit roundoff u (Al-Mohy &
    Higham 2011).  It is unitary only to that backward error: exp(A + dA)
    with |dA| <= u |A| is unitary to ~u.  Each matrix takes its branch from
    its own 1-norm, so each result is the same whichever stack it rides in:

    - 1-norm <= theta_9 = 0.0896: T_9.  On the default device every
      full-model Magnus step (1-norm ~0.03-0.08) takes this branch.
    - larger: T_18, unsquared up to theta_18 = 1.09 (``_squared_taylor18``).
      Every RWA Magnus step (1-norm ~0.45-1.1) takes this branch; only the
      steepest of a CR rise at amp ~0.4 GHz (up to 1.098) are squared once.

    ``work``, the buffers of ``_taylor``, serves the one-branch stacks; the
    result is then one of them.
    """
    # |omega| fills the real first half of the fourth buffer before T_m uses it
    mags = None if work is None else work[3].reshape(-1).view(float)[: omega.size].reshape(omega.shape)
    norm = _one_norm(omega, mags)
    low = norm <= _THETA_TAYLOR9
    if low.all():
        return _taylor(omega, 9, work)
    if not low.any():
        return _squared_taylor18(omega, norm, work)
    r = np.empty_like(omega)
    r[low] = _taylor(omega[low], 9)
    r[~low] = _squared_taylor18(omega[~low], norm[~low])
    return r


def _ordered_product(r: np.ndarray, work=None) -> np.ndarray:
    """r[-1] @ ... @ r[1] @ r[0] of an (n, d, d) stack, multiplied pairwise:
    each round is one batched matmul of neighbours, an odd last one rides
    along.  The rounds alternate between two buffers of at least (n + 1) // 2
    matrices, ``work`` if given (the result is a view into one of them)."""
    n = len(r)
    if work is None:
        work = np.empty((2, (n + 1) // 2, *r.shape[1:]), dtype=r.dtype)
    k = 0
    while n > 1:
        half, dst = n // 2, work[k % 2]
        np.matmul(r[1 : 2 * half : 2], r[0 : 2 * half : 2], out=dst[:half])
        if n % 2:
            dst[half] = r[n - 1]
        r, n, k = dst, half + n % 2, k + 1
    return r[0]


def _kernel_buffers(n: int) -> np.ndarray:
    """This thread's (_KERNEL_SLOTS, n, 9, 9) complex buffers, one contiguous
    array, regrown only when a block needs more steps than any before."""
    need = _KERNEL_SLOTS * n * PAIR_DIM * PAIR_DIM
    flat = getattr(_KERNEL, "flat", None)
    if flat is None or len(flat) < need:
        flat = _KERNEL.flat = np.empty(need, dtype=complex)
    return flat[:need].reshape(_KERNEL_SLOTS, n, PAIR_DIM, PAIR_DIM)


def _node_weights(dt: float) -> np.ndarray:
    """Weights w of the three node Hamiltonians in the five matrices that
    the sixth-order Magnus step combines linearly: sum_j w[k, j] A_j is
    alpha_1, alpha_2, -2 alpha_3 / 60, (-20 alpha_1 - alpha_3) / 240 and
    alpha_1 + alpha_3 / 12 for k = 0 ... 4 (``_stepped_unitary``)."""
    a1 = np.array([0.0, dt, 0.0])
    a2 = np.sqrt(15.0) * dt / 3.0 * np.array([-1.0, 0.0, 1.0])
    a3 = 10.0 * dt / 3.0 * np.array([1.0, -2.0, 1.0])
    return np.stack([a1, a2, a3 * (-2.0 / 60.0), (-20.0 * a1 - a3) / 240.0, a1 + a3 / 12.0])


def _commutator_exponents(prov, mid, offset, weights, buffers):
    """Omega of the steps centred at ``mid`` into ``buffers[1]``, by the
    per-step commutators of ``_stepped_unitary`` (any provider)."""
    z = prov.coefficients(np.concatenate([mid - offset, mid, mid + offset])).reshape(3, -1)
    z = (weights @ z).reshape(5, len(mid), -1)
    # H's constant part enters each combination with its weights' sum
    const = weights.sum(axis=1)[:, None]
    a1, a2, x = prov.skew(z[:3], const[:3], buffers[:3])
    c1, p = buffers[3:5]
    _commutator(a1, a2, out=c1, work=p)
    # x = -(2 alpha_3 + C_1) / 60, so that [alpha_1, x] = C_2; then x = alpha_2 + C_2
    x -= np.multiply(c1, 1.0 / 60.0, out=p)
    _commutator(a1, x, out=x, work=p)
    x += a2
    # y = (-20 alpha_1 - alpha_3 + C_1) / 240 and omega = alpha_1 + alpha_3 / 12
    # take the places of the spent alpha_1 and alpha_2
    y, omega = prov.skew(z[3:], const[3:], buffers[:2])
    y += np.multiply(c1, 1.0 / 240.0, out=p)
    omega += _commutator(y, x, out=c1, work=p)
    return omega


def _lie_basis(h_s: np.ndarray, h_d: np.ndarray) -> np.ndarray:
    """The ten matrices that every sixth-order Magnus exponent of
    H(t) = H_s + e(t) H_d combines, as the real (10, 2 * 81) view: with
    P = -i H_s, Q = -i H_d and K = [P, Q], they are P, Q, K, [P, K], [Q, K],
    [P, [P, K]], [P, [Q, K]] (= [Q, [P, K]] by Jacobi), [Q, [Q, K]],
    [K, [P, K]] and [K, [Q, K]]."""
    p, q = -1j * h_s, -1j * h_d
    k = _commutator(p, q)
    pk, qk = _commutator(p, k), _commutator(q, k)
    basis = [p, q, k, pk, qk, _commutator(p, pk), _commutator(p, qk), _commutator(q, qk), _commutator(k, pk), _commutator(k, qk)]
    return np.stack(basis).reshape(len(basis), -1).view(float)


def _closed_form_exponents(envelope, basis, mid, offset, h, out):
    """Omega of the steps of length h centred at ``mid`` into ``out``, for
    H(t) = H_s + e(t) H_d with a real envelope e (``prov.two_term``).  With
    e_j the envelope at the three nodes, ``_stepped_unitary``'s terms are
    alpha_1 = h P + a Q, alpha_2 = b Q and alpha_3 = c Q, where

        a = h e_2,  b = sqrt(15) h / 3 (e_3 - e_1),  c = 10 h / 3 (e_3 - 2 e_2 + e_1).

    Then C_1 = h b K, and with q = 20 a + c

        X = -20 alpha_1 - alpha_3 + C_1 = -20 h P - q Q + h b K,
        Y = alpha_2 + C_2 = b Q - h c / 30 K - h^2 b / 60 [P, K] - a b h / 60 [Q, K],
        Omega = h P + (a + c / 12) Q + [X, Y] / 240,

    which expands over ``_lie_basis`` with coefficients polynomial in
    (h, a, b, c): Omega is one real product of them with that basis."""
    e1, e2, e3 = envelope(np.concatenate([mid - offset, mid, mid + offset])).reshape(3, -1)
    a = h * e2
    b = (np.sqrt(15.0) * h / 3.0) * (e3 - e1)
    c = (10.0 * h / 3.0) * (e3 - 2.0 * e2 + e1)
    q = 20.0 * a + c
    coef = np.empty((len(mid), len(basis)))
    coef[:, 0] = h
    coef[:, 1] = a + c / 12.0
    coef[:, 2] = (-h / 12.0) * b
    coef[:, 3] = (h * h / 360.0) * c
    coef[:, 4] = (h / 240.0) * (q * c / 30.0 - b * b)
    coef[:, 5] = (h**3 / 720.0) * b
    coef[:, 6] = (h * h / 14400.0) * b * (q + 20.0 * a)
    coef[:, 7] = (h / 14400.0) * a * b * q
    coef[:, 8] = (-(h**3) / 14400.0) * b * b
    coef[:, 9] = (-h * h / 14400.0) * a * b * b
    np.matmul(coef, basis, out=out.reshape(len(mid), -1).view(float))
    return out


def _stepped_unitary(prov, t0: float, t1: float, step: float | None = None) -> np.ndarray:
    """Sixth-order Magnus propagator over [t0, t1] (three-point Gauss nodes).

    Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4: with
    A_j = -i H at the nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of a
    step h, each step is exp(Omega), where

        alpha_1 = h A_2,  alpha_2 = sqrt(15) h / 3 (A_3 - A_1),
        alpha_3 = 10 h / 3 (A_3 - 2 A_2 + A_1),
        C_1 = [alpha_1, alpha_2],  C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60,
        Omega = alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2] / 240.

    The step is at most ``step`` ns, ``_MAGNUS_STEP`` by default.  Omega
    comes in blocks of steps, by one of two routes:

    - A provider with a two-term split H_s + e(t) H_d (``prov.two_term``: a
      lone Gaussian or Gaussian-square play under the RWA in its carrier
      frame) takes Omega in closed form, one real product of polynomial
      coefficients in the node envelopes with ten fixed matrices
      (``_closed_form_exponents``).
    - Any other provider takes H's operator coefficients at all the block's
      nodes at once (``prov.coefficients``).  Every term above that is
      linear in the A_j, the factors 1/60, 1/240 and 1/12 included, is one
      row of ``_node_weights``; the coefficients combine by those rows, and
      real products with -i times H's operator table (``prov.skew``) make
      the five matrices: the first three at once, the last two later in
      place of the spent alpha_1 and alpha_2.  The three commutators then
      run per step (``_commutator_exponents``).

    Omega's exponential (``_unitary_exp``) and the pairwise products within
    each ``_GROUP`` (``_ordered_product``) run in this thread's kernel
    buffers (``_kernel_buffers``), on either route.
    """
    n = max(int(np.ceil((t1 - t0) / (_MAGNUS_STEP if step is None else step))), 1)
    dt = (t1 - t0) / n
    offset = np.sqrt(15.0) / 10.0 * dt
    mids = t0 + dt * np.arange(n) + dt / 2.0
    block = max(_MAGNUS_BLOCK // _GROUP, 1) * _GROUP
    split = prov.two_term()
    if split is None:
        weights = _node_weights(dt)
    else:
        envelope, basis = split[2], _lie_basis(*split[:2])
    u = None
    for k in range(0, n, block):
        mid = mids[k : k + block]
        buffers = _kernel_buffers(len(mid))
        if split is None:
            omega = _commutator_exponents(prov, mid, offset, weights, buffers)
        else:
            omega = _closed_form_exponents(envelope, basis, mid, offset, dt, buffers[1])
        # T_m runs in the four buffers besides omega and the last two, the
        # pairwise products in y and x
        y, x, c1, p = buffers[0], buffers[2], buffers[3], buffers[4]
        right = buffers[5:].view(float).reshape(len(mid), 2 * PAIR_DIM, 2 * PAIR_DIM)
        steps = _unitary_exp(omega, (y, x, c1, p, right))
        for g in range(0, len(steps), _GROUP):
            group = _ordered_product(steps[g : g + _GROUP], (y, x))
            u = group.copy() if u is None else group @ u
    return u


def _rwa_flat_top(p: DeviceParams, schedule: Schedule):
    """(u_rise, u_fall, w, v) of a schedule whose lone play is a Gaussian
    square at carrier c > 0 whose counter-rotating drive the RWA drops
    (``keeps_counter_rotating``): in the frame rotating at c,
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
    """The frame rotating each transmon at the carrier of the first play on
    its channel, or at the first play's carrier where that channel has no
    play or a carrier that is not positive.  The bare frame when there is no
    play or the first play's carrier is not positive."""
    if not plays or plays[0].carrier_freq <= 0:
        return FrameSpec.bare(p)
    own = [next((q.carrier_freq for q in plays if q.channel == ch), 0.0) for ch in (1, 2)]
    return FrameSpec(*(c if c > 0 else plays[0].carrier_freq for c in own))


def rwa_unitary(p: DeviceParams, schedule: Schedule) -> np.ndarray:
    """Bare-frame propagator of a schedule over [0, duration] under the RWA.

    Magnus runs in the drive frame (``_drive_frame``), where each transmon
    rotates at its channel's carrier, so no channel's first drive oscillates
    (in one shared frame, two DRAG plays on two channels landed 1.25e-7 off
    the oracle, not 9e-10).  A lone Gaussian-square play's flat top is then
    constant once the RWA drops its counter-rotating drive (at omega_ch + c
    in the bare frame), and is exponentiated exactly;
    its fall edge is its rise's mirror image (``_rwa_flat_top``).  Every
    other schedule is stepped whole, split at its play edges as in the full
    model (``_split_at_edges``).
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    play = plays[0] if len(plays) == 1 else None
    if play and isinstance(play.shape, GaussianSquare) and play.carrier_freq > 0 and not keeps_counter_rotating(p, play.channel, play.carrier_freq):
        u_rise, u_fall, w, v = _rwa_flat_top(p, schedule)
        u = u_fall @ (v * np.exp(-1j * w * play.shape.width)) @ dag(v) @ u_rise
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

    Magnus at ``_FULL_MODEL_STEP`` runs in the frame rotating at the first
    play's carrier c on both transmons (``_drive_frame`` of that play), where
    the coupling and the co-rotating drive are slow and the counter-rotating
    drive oscillates at 2c.  A drive at c2 on the other channel oscillates at
    c + c2, never faster than per-channel frames' 2 max(c, c2) (two DRAG
    plays, one per channel: 2.4e-10 off the oracle here, 2.75e-10 there).
    A lone Gaussian-square play's flat top is then exactly periodic with
    T = 1/(2c), and its propagator is U_T^n times one remainder piece,
    n = floor(width / T) (Floquet; Shirley, Phys. Rev. 138, B979 (1965)).
    Magnus steps the rise, the remainder and the fall; DOP853 at
    FULL_MODEL_OPTIONS runs the one period, and U_T^n comes from repeated
    squaring.  Every other schedule is stepped whole.
    Steps never straddle the start or end of a play (``_split_at_edges``).
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays[:1])
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
