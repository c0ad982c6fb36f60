"""Bare-frame propagators of schedules, one function per model.

``rwa_unitary`` and ``full_model_unitary`` both integrate with fixed-step
sixth-order Magnus (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
in a drive frame (``_drive_frame``).  Each step is the exponential of an
anti-Hermitian matrix, taken by one algorithm for both models: a Taylor
polynomial of degree 9 or 18 (by the step's 1-norm), unitary up to roundoff
and free of linear solves (``_unitary_exp``).  Without the RWA the step
resolves the counter-rotating drive at twice the carrier.  Each model names
its step (``_MAGNUS_STEP``, ``_FULL_MODEL_STEP``) and builds its split
once, H(t) as a static part plus m real envelopes times fixed matrices
(``drive_split``); the kernel (``_stepped_unitary``) steps the grid it is
handed (``_grid``), with the formula's terms from the envelopes at the
nodes (``_node_terms``).  With m <= 2, a schedule driven on one operator,
the exponent comes from a table generated by expanding the formula's
brackets once (``_exponent_table``); with more, from the formula as
written (``_commutator_exponents``).  Under the RWA, one rule decides which
plays are time-symmetric up to a diagonal conjugation
(``_time_symmetric``): those whose carrier c > 0 the drive frame rotates
both transmons at, whose counter-rotating drive the RWA drops, and inside
whose window no other play is on.  Such a play's segment, a DRAG gate for
one, is stepped to its middle and mirrored (``_mirrored_unitary``), and a
lone Gaussian square's fall edge is its rise's mirror (``_rwa_flat_top``).
The ``evolve_*`` functions wrap scipy's adaptive DOP853 (order 8, embedded
error control), imported on first use (``solve_ivp``); the full model uses
it only for the one drive period of a CR flat top that is raised to a
power.  States are never silently renormalized; norm drift is checked
after every DOP853 run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .device import EXCITATIONS, TRANSMONS, DeviceParams, FrameSpec, finite_float, reframe
from .errors import InvalidParams, NormDrift, StepFailure
from .hamiltonian import keeps_counter_rotating, play_phase, rotating_frame_hamiltonian
from .linalg import PAIR_DIM, dag, expm_unitary, read_only, unitary_defect
from .pulses import GaussianSquare, Schedule

NORM_DRIFT_LIMIT = 1e-6
UNITARY_DRIFT_LIMIT = 1e-7

# Sixth-order Magnus step (ns).  Under the RWA nothing oscillates faster than
# the detunings, so a CR edge lands within ~1e-9 of a rel-1e-12 DOP853; short
# plays on both channels in a frame that rotates the transmons apart (sigma
# 1.5 ns, up to 0.3 GHz each) land up to 1.9e-7 off the bare-frame oracle.
_MAGNUS_STEP = 0.08

# Sixth-order Magnus step (ns) without the RWA: T/20 of the ~10 GHz
# counter-rotating drive.  The DRAG gates and h3_1 land within ~5e-11 of a
# rel-1e-11 DOP853; the CR gates' ~2.5e-8 is their DOP853 period's error,
# raised to the n-th power.
_FULL_MODEL_STEP = 0.005

# Magnus steps built at once, so that long schedules do not raise peak memory.
# A block's seven (n, 9, 9) kernel buffers take 1.2 MB at 128 steps; at 512
# the full model's 0.005 ns steps, with a dozen fresh temporaries per block,
# raised the pipeline's peak RSS by ~2 MB over the DOP853 it replaced.  A
# block's steps are multiplied pairwise (``_ordered_product``), and the table
# route's exponents are one BLAS product per block (``_table_exponents``).
_BLOCK = 128

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
        if min(finite_float(getattr(self, f.name), f.name) for f in fields(self)) <= 0:
            raise InvalidParams("tolerances and max_step must be finite and positive")


DEFAULT_OPTIONS = EvolveOptions()

# Tolerances for propagating calibrated gates without the RWA.
FULL_MODEL_OPTIONS = EvolveOptions(rel_tol=1e-9, abs_tol=1e-11, max_step=0.02)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on its first call: only the
    full model's CR drive period and the ``evolve_*`` oracles integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _state_rhs(hprov):
    """Schrodinger right-hand side -i H(t) psi for a state vector."""

    def rhs(t, y):
        return -1j * (hprov(t) @ y)

    return rhs


def _solve(rhs, y0, t0, t1, opts, t_eval=None):
    if not finite_float(t0, "t0") <= finite_float(t1, "t1"):
        raise InvalidParams(f"t1 must be >= t0, got t0 = {t0}, t1 = {t1}")
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
    """Solve i dpsi/dt = H(t) psi from t0 to t1 >= t0; returns the final state."""
    return evolve_trace(hprov, psi0, [t0] if t1 == t0 else [t0, t1], opts)[-1]


def evolve_trace(hprov, psi0, t_grid, opts: EvolveOptions = DEFAULT_OPTIONS):
    """States sampled on a strictly increasing time grid (one continuous
    integration).

    Returns an array of shape (len(t_grid), dim).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not len(t_grid) or not (np.diff(t_grid) > 0.0).all():
        raise InvalidParams(f"the time grid must be 1-d and strictly increasing, got {t_grid}")
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


def _commutator(a, b, out=None):
    """[a, b] for anti-Hermitian a and b (or stacks of them), into ``out``
    when given.  Then (ab)^dagger = ba, so one product does, and the result
    is exactly anti-Hermitian."""
    ab = a @ b
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


def _node_terms(split, mid, h) -> np.ndarray:
    """The (3, m, n) terms (a, b, c) of ``_exponent_table`` for the n steps
    of length h centred at ``mid``, from the m envelopes of a
    ``drive_split`` at each step's three nodes, sqrt(15)/10 h from its middle."""
    m, n = len(split.ops), len(mid)
    offset = np.sqrt(15.0) / 10.0 * h
    e = split.envelopes(np.concatenate([mid - offset, mid, mid + offset])).reshape(m, 3, n)
    x = np.empty((3, m, n))
    np.multiply(e[:, 1], h, out=x[0])
    np.multiply(e[:, 2] - e[:, 0], np.sqrt(15.0) * h / 3.0, out=x[1])
    np.multiply(e[:, 2] - 2.0 * e[:, 1] + e[:, 0], 10.0 * h / 3.0, out=x[2])
    return x


def _commutator_exponents(split, terms, h):
    """Omega of the steps with ``_node_terms`` (a, b, c), by the formula of
    ``_stepped_unitary`` as written (any m): alpha_1, alpha_2 and alpha_3
    from one real product of their weights with P = -i H_s and the
    Q_i = -i H_i, then C_1, C_2 and Omega, each a fresh array."""
    m, n = terms.shape[1:]
    # -i times H_s and the H_i, exactly: each entry is real or imaginary
    generators = (-1j * np.concatenate([split.h_s[None], split.ops])).reshape(m + 1, -1).view(float)
    weights = np.concatenate([np.zeros((3, n, 1)), terms.transpose(0, 2, 1)], axis=2)
    weights[0, :, 0] = h
    alpha1, alpha2, alpha3 = (weights @ generators).view(complex).reshape(3, n, PAIR_DIM, PAIR_DIM)
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
    return alpha1 + alpha3 / 12.0 + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0


# Lie polynomials in the generators P = -i H_s (letter 0) and Q_i = -i H_i
# (letters 1..m) of a ``drive_split``: {word: {monomial: coefficient}}.  A
# word is a letter or a bracket (u, v) of two words, kept with u before v
# in ``_word_key`` order ([v, u] = -[u, v], [u, u] = 0; no Jacobi identity
# is used).  A monomial is the tuple of exponents of (h, a_1..a_m,
# b_1..b_m, c_1..c_m), and the coefficients are exact fractions.


def _word_key(w):
    """Words ordered by their number of letters, then by their spelling, so
    that each bracket comes after both of its words."""
    return (_letters(w), repr(w))


def _letters(w) -> int:
    return 1 if isinstance(w, int) else _letters(w[0]) + _letters(w[1])


def _lie_sum(*terms):
    """sum_k s_k x_k of (s_k, x_k) pairs, zero coefficients dropped."""
    out = {}
    for scale, x in terms:
        for w, poly in x.items():
            dst = out.setdefault(w, {})
            for mono, c in poly.items():
                dst[mono] = dst.get(mono, 0) + scale * c
    return {w: {m: c for m, c in poly.items() if c} for w, poly in out.items() if any(poly.values())}


def _lie_bracket(x, y):
    """[x, y], expanded bilinearly over words and monomials."""
    out = {}
    for u, p in x.items():
        for v, q in y.items():
            if u == v:
                continue
            sign, w = (1, (u, v)) if _word_key(u) < _word_key(v) else (-1, (v, u))
            dst = out.setdefault(w, {})
            for mu, cu in p.items():
                for mv, cv in q.items():
                    mono = tuple(i + j for i, j in zip(mu, mv))
                    dst[mono] = dst.get(mono, 0) + sign * cu * cv
    return _lie_sum((1, out))


@dataclass(frozen=True)
class _ExponentTable:
    """The sixth-order Magnus exponent of a split with m envelopes, bracket-
    expanded (``_exponent_table``): Omega = sum_k mono_k sum_w T_kw(h) W_w."""

    words: tuple  # the words W_w, in _word_key order
    brackets: tuple  # (lo, hi, left, right): words lo..hi-1 are [words[left], words[right]]
    powers: tuple  # (lo, hi, parent, var): monomials lo..hi-1 are parent's times variable var
    coef: np.ndarray  # (h powers, monomials, words): T(h) = sum_p coef[p] h^p


@lru_cache(maxsize=None)
def _exponent_table(m: int) -> _ExponentTable:
    """Omega of ``_stepped_unitary`` for H(t) = H_s + sum_i e_i(t) H_i as a
    Lie polynomial.  With e_ij the envelope i at node j, the terms are
    alpha_1 = h P + sum_i a_i Q_i, alpha_2 = sum_i b_i Q_i and
    alpha_3 = sum_i c_i Q_i, where

        a_i = h e_i2,  b_i = sqrt(15) h / 3 (e_i3 - e_i1),  c_i = 10 h / 3 (e_i3 - 2 e_i2 + e_i1),

    and the formula's brackets, expanded, leave a polynomial in (h, a, b, c)
    per word: 11 words and 12 monomials in (a, b, c) for m = 1, 72 and 80
    for m = 2."""
    nvar = 1 + 3 * m

    def var(k):
        return tuple(int(i == k) for i in range(nvar))

    one = Fraction(1)
    alpha1 = {0: {var(0): one}, **{i: {var(i): one} for i in range(1, m + 1)}}
    alpha2 = {i: {var(m + i): one} for i in range(1, m + 1)}
    alpha3 = {i: {var(2 * m + i): one} for i in range(1, m + 1)}
    c1 = _lie_bracket(alpha1, alpha2)
    c2 = _lie_sum((Fraction(-1, 60), _lie_bracket(alpha1, _lie_sum((2, alpha3), (1, c1)))))
    x = _lie_sum((-20, alpha1), (-1, alpha3), (1, c1))
    y = _lie_sum((1, alpha2), (1, c2))
    omega = _lie_sum((1, alpha1), (Fraction(1, 12), alpha3), (Fraction(1, 240), _lie_bracket(x, y)))

    words = sorted(omega, key=_word_key)
    index = {w: k for k, w in enumerate(words)}
    brackets = []
    for size in sorted({_letters(w) for w in words} - {1}):
        group = [k for k, w in enumerate(words) if _letters(w) == size]
        left = [index[words[k][0]] for k in group]
        right = [index[words[k][1]] for k in group]
        brackets.append((group[0], group[-1] + 1, np.array(left), np.array(right)))

    # each monomial is its parent (its first variable's exponent lowered by
    # one, a monomial of the table too) times that variable
    monos = sorted({mono[1:] for poly in omega.values() for mono in poly}, key=lambda mono: (sum(mono), mono))
    row = {mono: k for k, mono in enumerate(monos)}
    powers = []
    for degree in range(1, sum(monos[-1]) + 1):
        group = [k for k, mono in enumerate(monos) if sum(mono) == degree]
        first = [next(i for i, e in enumerate(monos[k]) if e) for k in group]
        parent = [row[monos[k][:j] + (monos[k][j] - 1,) + monos[k][j + 1 :]] for k, j in zip(group, first)]
        powers.append((group[0], group[-1] + 1, np.array(parent), np.array(first)))

    hmax = max(mono[0] for poly in omega.values() for mono in poly)
    coef = np.zeros((hmax + 1, len(monos), len(words)))
    for w, poly in omega.items():
        for mono, c in poly.items():
            coef[mono[0], row[mono[1:]], index[w]] = float(c)
    return _ExponentTable(tuple(words), tuple(brackets), tuple(powers), coef)


def _exponent_matrices(split, h: float) -> np.ndarray:
    """The real (monomials, 2 * 81) view of sum_w T_kw(h) W_w for a
    ``drive_split`` and a step h (``_exponent_table``), read-only.  They
    depend on H_s, the H_i and h alone, which a tune-up's searches keep
    (one channel, carrier and step, whatever the amplitude), so the last two
    are kept (``_matrices_of``): a Rabi sweep alternates two CR tones.  No
    more: each full-model segment takes its own step, so further entries
    would hold 104 KB apiece (two envelopes) that no later call reads."""
    return _matrices_of(split.h_s.tobytes(), split.ops.tobytes(), h)


@lru_cache(maxsize=2)
def _matrices_of(h_s: bytes, ops: bytes, h: float) -> np.ndarray:
    """``_exponent_matrices`` from the bytes of H_s and the H_i: every
    word's matrix from P and the Q_i by one stacked ``_commutator`` per word
    length, then one real product."""
    ops = np.frombuffer(ops, dtype=complex).reshape(-1, PAIR_DIM, PAIR_DIM)
    table = _exponent_table(len(ops))
    w = np.empty((len(table.words), PAIR_DIM, PAIR_DIM), dtype=complex)
    w[0] = -1j * np.frombuffer(h_s, dtype=complex).reshape(PAIR_DIM, PAIR_DIM)
    w[1 : 1 + len(ops)] = -1j * ops
    for lo, hi, left, right in table.brackets:
        _commutator(w[left], w[right], out=w[lo:hi])
    t = np.tensordot(h ** np.arange(len(table.coef)), table.coef, axes=1)
    return read_only(t @ w.reshape(len(w), -1).view(float))


def _table_exponents(terms, matrices, out):
    """Omega of the steps with ``_node_terms`` (a, b, c) into ``out``: the
    monomials of each step's terms (``_exponent_table``), then one real
    product with ``matrices`` (``_exponent_matrices``).  A threaded BLAS
    product splits its rows by their number, and rounds by that split (a
    two-envelope product over 800 steps and over blocks of 128 differed in
    the last bit on two threads), so the product spans one ``_BLOCK``."""
    _, m, n = terms.shape
    x = terms.reshape(3 * m, n)
    mono = np.empty((len(matrices), n))
    mono[0] = 1.0
    for lo, hi, parent, var in _exponent_table(m).powers:
        np.multiply(mono[parent], x[var], out=mono[lo:hi])
    np.matmul(mono.T, matrices, out=out.reshape(n, -1).view(float))
    return out


def _grid(t0: float, t1: float, step: float):
    """(dt, midpoints) of the n equal Magnus steps over [t0, t1], n the
    fewest that keep each at most ``step`` ns."""
    n = max(int(np.ceil((t1 - t0) / step)), 1)
    dt = (t1 - t0) / n
    return dt, t0 + dt * np.arange(n) + dt / 2.0


def _stepped_unitary(split, dt: float, mids: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus propagator of a ``drive_split`` over the steps of
    length ``dt`` centred at ``mids`` (three-point Gauss nodes), in order:
    a segment's ``_grid``, or a contiguous run of it.

    Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4: with
    A_j = -i H at the nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of a
    step h, each step is exp(Omega), where

        alpha_1 = h A_2,  alpha_2 = sqrt(15) h / 3 (A_3 - A_1),
        alpha_3 = 10 h / 3 (A_3 - 2 A_2 + A_1),
        C_1 = [alpha_1, alpha_2],  C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60,
        Omega = alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2] / 240.

    The split is H(t) = H_s + sum_i e_i(t) H_i, and each ``_BLOCK`` of
    steps, counted from ``mids[0]``, turns the m envelopes at its nodes
    into alpha_1 = h P + sum_i a_i Q_i, alpha_2 = sum_i b_i Q_i and
    alpha_3 = sum_i c_i Q_i, P = -i H_s and Q_i = -i H_i (``_node_terms``).
    Omega then comes by one of two routes, chosen by m alone:

    - m <= 2 (every one-channel schedule in a frame that rotates both
      transmons alike): one real product of the terms' monomials with a
      fixed matrix per monomial (``_table_exponents``).  The matrices
      combine the bracket-expanded formula's words (``_exponent_matrices``),
      built once per (H_s, H_i, h).
    - m > 2 (plays on both channels, or a frame that rotates the
      transmons apart; no command builds either): the formula as written
      (``_commutator_exponents``).  The table grows fast in m: 11, 72, 289
      and 860 words for m = 1 to 4.

    Omega's exponential (``_unitary_exp``) and the pairwise products of
    each block (``_ordered_product``) run in this thread's kernel buffers
    (``_kernel_buffers``), and so do the table route's exponents.
    """
    matrices = _exponent_matrices(split, dt) if len(split.ops) <= 2 else None
    u = None
    for k in range(0, len(mids), _BLOCK):
        mid = mids[k : k + _BLOCK]
        buffers = _kernel_buffers(len(mid))
        terms = _node_terms(split, mid, dt)
        omega = _commutator_exponents(split, terms, dt) if matrices is None else _table_exponents(terms, matrices, buffers[0])
        # T_m runs in the next four buffers and the last two, the pairwise
        # products in the first two of those
        work = (*buffers[1:5], buffers[5:].view(float).reshape(len(mid), 2 * PAIR_DIM, 2 * PAIR_DIM))
        block = _ordered_product(_unitary_exp(omega, work), work[:2])
        u = block.copy() if u is None else block @ u
    return u


def _mirror(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Z^dagger U^T Z with Z = diag(z), of a matrix or of each of a stack."""
    return z.conj()[:, None] * np.swapaxes(u, -1, -2) * z


def _time_symmetric(p: DeviceParams, frame: FrameSpec, play, plays) -> bool:
    """Whether a play's RWA Hamiltonian in ``frame`` is time-symmetric up to
    a diagonal conjugation over its window [t0, t1]: H(t0 + t1 - t) =
    Z^dagger H(t)^T Z with Z = diag(exp(2i phi N)), N the total excitation
    number and phi the play's phase (``play_phase``).  It is, for every
    shape, when

    - the frame rotates both transmons at the play's carrier c > 0,
    - the RWA drops its counter-rotating drive (``keeps_counter_rotating``),
    - and no other play is on inside its window.

    The coupling and the co-rotating drive are then static, so H(t) =
    Z'^dagger H0(t) Z' with Z' = diag(exp(i phi N)) and H0(t)^T =
    H0(t0 + t1 - t): H0's real symmetric part has an even envelope (the
    static terms, a Gaussian, a DRAG play's in-phase part), its imaginary
    antisymmetric part an odd one (a DRAG play's quadrature).
    """
    c = play.carrier_freq
    return (
        c > 0
        and frame.frame1 == frame.frame2 == c
        and not keeps_counter_rotating(p, play.channel, c)
        and not any(q is not play and q.start < play.end and q.end > play.start for q in plays)
    )


def _mirrored_unitary(split, dt: float, mids: np.ndarray, phase: float) -> np.ndarray:
    """``_stepped_unitary(split, dt, mids)`` of a segment whose H is
    time-symmetric, H(t0 + t1 - t) = Z^dagger H(t)^T Z with Z =
    diag(exp(2i phase N)): a play that passes ``_time_symmetric``.

    The symmetric three-node step is time-reversible (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)), so the steps of the second half are
    the mirrors of those of the first, in reverse order: the propagator is
    (Z^dagger U_half^T Z) U_half, with U_half the first n // 2 steps, and an
    odd count's middle step its own factor between them.  A segment of one
    step is stepped whole.
    """
    half = len(mids) // 2
    if not half:
        return _stepped_unitary(split, dt, mids)
    u = _stepped_unitary(split, dt, mids[:half])
    mirrored = _mirror(u, np.exp(2j * phase * EXCITATIONS))
    if len(mids) % 2:
        u = _stepped_unitary(split, dt, mids[half : half + 1]) @ u
    return mirrored @ u


def _rwa_flat_top(p: DeviceParams, schedule: Schedule):
    """(u_rise, u_fall, w, v) of a schedule whose lone play is a Gaussian
    square that passes ``_time_symmetric`` in the frame rotating at its
    carrier c on both transmons: in that frame, the propagators over
    [0, flat-top start] and [flat-top end, duration], and the flat top's
    constant Hamiltonian v diag(w) v^dagger.

    Every retained term is static in that frame, so the flat top is
    constant and exponentiated exactly.  Magnus steps only the rise: the
    play's H is time-symmetric about its middle, and the symmetric
    three-node step is time-reversible (Blanes, Casas, Oteo & Ros, Phys.
    Rep. 470, 151 (2009)), which makes the fall Z^dagger u_rise^T Z with
    Z = diag(exp(2i phi N)), phi the play's phase (``play_phase``).  Idle
    stretches before and after the play are exponentiated exactly, so the
    stepped rise mirrors the fall.
    """
    play = schedule.plays()[0]
    prov = rotating_frame_hamiltonian(p, FrameSpec(play.carrier_freq, play.carrier_freq), schedule, rwa=True)
    a = play.start + play.shape.risefall
    w, v = np.linalg.eigh(prov(a + play.shape.width / 2.0))
    u_rise = _stepped_unitary(prov.drive_split(), *_grid(play.start, a, _MAGNUS_STEP))
    u_fall = _mirror(u_rise, np.exp(2j * play_phase(p, schedule, play) * EXCITATIONS))
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
    own = [next((q.carrier_freq for q in plays if q.channel == ch), 0.0) for ch in TRANSMONS]
    return FrameSpec(*(c if c > 0 else plays[0].carrier_freq for c in own))


def rwa_unitary(p: DeviceParams, schedule: Schedule) -> np.ndarray:
    """Bare-frame propagator of a schedule over [0, duration] under the RWA.

    Magnus runs in the drive frame (``_drive_frame``), where each transmon
    rotates at its channel's carrier, so no channel's first drive oscillates
    (in one shared frame, two DRAG plays on two channels landed 1.25e-7 off
    the oracle, not 9e-10).  One rule decides every mirror: a play is
    time-symmetric when the frame rotates both transmons at its carrier
    c > 0, the RWA drops its counter-rotating drive (at omega_ch + c in the
    bare frame) and no other play is on inside its window
    (``_time_symmetric``).  A lone Gaussian-square play that passes has a
    constant flat top, exponentiated exactly, and a fall edge that is its
    rise's mirror image (``_rwa_flat_top``).  Every other schedule is split
    at its play edges as in the full model (``_split_at_edges``); the
    segment of each time-symmetric play, a DRAG gate for one, is stepped to
    its middle and mirrored (``_mirrored_unitary``), and every other
    segment is stepped whole.
    """
    plays = schedule.plays()
    drive = _drive_frame(p, plays)
    mirrors = {(q.start, q.end): play_phase(p, schedule, q) for q in plays if _time_symmetric(p, drive, q, plays)}
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and mirrors:
        u_rise, u_fall, w, v = _rwa_flat_top(p, schedule)
        u = u_fall @ (v * np.exp(-1j * w * plays[0].shape.width)) @ dag(v) @ u_rise
    else:
        split = rotating_frame_hamiltonian(p, drive, schedule, rwa=True).drive_split()
        u = _split_at_edges(split, 0.0, schedule.duration, plays, _MAGNUS_STEP, mirrors)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)


def _split_at_edges(split, t0: float, t1: float, plays, step: float, mirrors=None) -> np.ndarray:
    """Magnus of a ``drive_split`` (``_stepped_unitary``, steps of at most
    ``step`` ns) over [t0, t1], one ``_grid`` per piece between the play
    edges inside it: H(t) has a kink at an edge, which a step that
    straddles it resolves only to second order (a 0.5 GHz CR rise starting
    0.75 ns in lands 9e-8 off in the full model, 2e-9 split; two 32.1 ns
    DRAG plays 1.3e-4 off under the RWA, 1.9e-8 split).  ``mirrors`` maps
    the (start, end) of each play that passes ``_time_symmetric`` to its
    drive phase: its piece, which no other play's edge splits, goes to
    ``_mirrored_unitary``."""
    bounds = [t0, *sorted({t for play in plays for t in (play.start, play.end) if t0 < t < t1}), t1]
    u = None
    for lo, hi in zip(bounds, bounds[1:]):
        dt, mids = _grid(lo, hi, step)
        phase = (mirrors or {}).get((lo, hi))
        piece = _stepped_unitary(split, dt, mids) if phase is None else _mirrored_unitary(split, dt, mids, phase)
        u = piece if u is None else piece @ u
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
    split = prov.drive_split()
    if len(plays) == 1 and isinstance(plays[0].shape, GaussianSquare) and plays[0].carrier_freq > 0:
        play = plays[0]
        period = 0.5 / play.carrier_freq
        a = play.start + play.shape.risefall
        b = a + play.shape.width
        n = int(play.shape.width // period)
        while n and a + n * period > b:  # roundoff at widths that are whole periods
            n -= 1
        u = _split_at_edges(split, 0.0, a, plays, _FULL_MODEL_STEP)
        if n:
            u = np.linalg.matrix_power(evolve_unitary(prov, a, a + period, FULL_MODEL_OPTIONS), n) @ u
        u = _split_at_edges(split, a + n * period, b, plays, _FULL_MODEL_STEP) @ u
        u = _split_at_edges(split, b, schedule.duration, plays, _FULL_MODEL_STEP) @ u
    else:
        u = _split_at_edges(split, 0.0, schedule.duration, plays, _FULL_MODEL_STEP)
    return reframe(u, drive, FrameSpec.bare(p), schedule.duration)
