"""Dense complex linear algebra for single- and two-qutrit operators.

Everything here works on plain ``numpy`` arrays: 3x3 / 9x9 complex matrices
and length-3 / length-9 state vectors.  The two-qutrit basis order is
``|q1 q2>`` with q1 (the control) the most-significant trit, so the flat
index is ``3*q1 + q2``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotHermitian

# Centralized tolerances.
HERM_TOL = 1e-12
UNITARY_TOL = 1e-10
NORM_TOL = 1e-9

QUTRIT_DIM = 3
PAIR_DIM = 9


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only in place: for constants that every caller shares."""
    a.setflags(write=False)
    return a


def ket(index: int, dim: int = QUTRIT_DIM) -> np.ndarray:
    """Computational basis state |index> as a length-``dim`` vector."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def ket2(q1: int, q2: int) -> np.ndarray:
    """Two-qutrit basis state |q1 q2> (control-major flat index 3*q1+q2)."""
    return ket(3 * q1 + q2, PAIR_DIM)


def proj(i: int, j: int, dim: int = QUTRIT_DIM) -> np.ndarray:
    """Matrix unit |i><j|."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def herm_defect(a: np.ndarray) -> float:
    """max |A - A†| entrywise."""
    return float(np.max(np.abs(a - dag(a)))) if a.size else 0.0


def unitary_defect(u: np.ndarray) -> float:
    """max |U†U - I| entrywise."""
    d = u.shape[0]
    return float(np.max(np.abs(dag(u) @ u - np.eye(d))))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a kron b)[br*i+k, bc*j+l] = a[i,j] b[k,l]."""
    return np.kron(a, b)


def expm_unitary(h: np.ndarray, s: float, tol: float = HERM_TOL) -> np.ndarray:
    """exp(-i h s) for Hermitian h, via eigendecomposition.

    Exact to roundoff for the small (<= 9x9) matrices used here.
    Raises NotHermitian if h is not Hermitian within ``tol``.
    """
    if herm_defect(h) > tol:
        raise NotHermitian(f"hermiticity defect {herm_defect(h):.3e} > {tol:.0e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * s)) @ dag(v)


def partial_trace(psi: np.ndarray, keep: str = "first") -> np.ndarray:
    """Reduced 3x3 density matrix of one qutrit of a two-qutrit pure state.

    ``keep`` selects which qutrit survives: "first" (the control, most
    significant trit) or "second" (the target).
    """
    if psi.shape != (PAIR_DIM,):
        raise DimMismatch(f"expected a length-{PAIR_DIM} state, got {psi.shape}")
    a = psi.reshape(QUTRIT_DIM, QUTRIT_DIM)  # a[control, target]
    if keep == "first":
        return a @ a.conj().T
    if keep == "second":
        return a.T @ a.conj()
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
