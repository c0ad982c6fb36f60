"""Analytic effective CR model and the ideal gate library.

The conditional-rotation coefficients (nu0, nu1, nu2) come in two
interpretations:

* ``literal``:  eta10 = 1/omega1, eta11 = 1/(omega1 + delta1).
* ``detuning``: the same expressions with omega1 replaced by the
  control-target detuning Delta = omega1 - omega2.

The detuning reading is the default: it reproduces the near-identity
behaviour of the control-|1> branch and the opposite-sign control-|2>
branch that the full model shows, while the literal reading does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, transition_frequencies
from .errors import InvalidParams, SingularDenominator, UnknownGate
from .linalg import PAIR_DIM, QUTRIT_DIM, expm_unitary, ket2, kron, proj

IDEAL_CSX_SIGNS = (1.0, 0.0, -1.0)


@dataclass(frozen=True)
class CRCoefficients:
    """Conditional drive coefficients, units 1/GHz."""

    eta10: float
    eta11: float
    interpretation: str

    @property
    def nu0(self) -> float:
        return -self.eta10

    @property
    def nu1(self) -> float:
        return self.eta10 - 2.0 * self.eta11

    @property
    def nu2(self) -> float:
        return 2.0 * self.eta11

    @property
    def nus(self) -> tuple:
        return (self.nu0, self.nu1, self.nu2)

    def ratios(self) -> tuple:
        """(nu1/nu0, nu2/nu0)."""
        return (self.nu1 / self.nu0, self.nu2 / self.nu0)


def cr_coefficients(p: DeviceParams, interpretation: str = "detuning") -> CRCoefficients:
    if interpretation == "literal":
        base = p.omega1
    elif interpretation == "detuning":
        base = p.omega1 - p.omega2
    else:
        raise ValueError(f"interpretation must be 'literal' or 'detuning', got {interpretation!r}")
    for denom in (base, base + p.delta1):
        if abs(denom) < 1e-6:
            raise SingularDenominator(f"denominator {denom:.2e} GHz too close to zero")
    return CRCoefficients(eta10=1.0 / base, eta11=1.0 / (base + p.delta1), interpretation=interpretation)


def effective_hamiltonian(p: DeviceParams, coeffs: CRCoefficients, omega_d: float, t: float) -> np.ndarray:
    """Effective conditional drive Hamiltonian at time t (9x9, Hermitian).

    (nu0 |0><0| + nu1 |1><1| + nu2 |2><2|) on the control, tensored with a
    phase-rotating 0-1 ladder plus a sqrt(2)-weighted 1-2 ladder on the
    target; on resonance with a transition its block becomes static.
    """
    freqs = transition_frequencies(p, dressed=False)
    phi01 = 2.0 * np.pi * (omega_d - freqs.w01_2) * t
    phi12 = 2.0 * np.pi * (omega_d - freqs.w12_2) * t
    target = np.exp(1j * phi01) * proj(0, 1) + np.exp(-1j * phi01) * proj(1, 0)
    target += np.sqrt(2.0) * (np.exp(1j * phi12) * proj(1, 2) + np.exp(-1j * phi12) * proj(2, 1))
    control = np.diag(np.array(coeffs.nus, dtype=complex))
    return kron(control, target)


def rx_subspace(subspace: str, phi: float) -> np.ndarray:
    """3x3 rotation exp(-i (|a><b| + |b><a|) phi / 2) on levels a-b."""
    if subspace not in ("01", "12"):
        raise InvalidParams(f"subspace must be '01' or '12', got {subspace!r}")
    a, b = (0, 1) if subspace == "01" else (1, 2)
    gen = proj(a, b) + proj(b, a)
    return expm_unitary(gen, phi / 2.0)


def ideal_ucr(subspace: str, theta: float, signs=IDEAL_CSX_SIGNS) -> np.ndarray:
    """Conditional-rotation gate sum_i |i><i| (x) R_X^{subspace}(signs[i] theta)."""
    blocks = [rx_subspace(subspace, s * theta) for s in signs]
    u = np.zeros((PAIR_DIM, PAIR_DIM), dtype=complex)
    for i, blk in enumerate(blocks):
        u += kron(proj(i, i), blk)
    return u


def qutrit_hadamard() -> np.ndarray:
    """3x3 discrete-Fourier unitary (entries w^{jk}/sqrt(3), w = exp(2pi i/3))."""
    w = np.exp(2j * np.pi / 3.0)
    j, k = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    return (w ** (j * k)) / np.sqrt(3.0)


def perm_x012() -> np.ndarray:
    """Cyclic permutation |j> -> |j+1 mod 3>."""
    return proj(1, 0) + proj(2, 1) + proj(0, 2)


def zdiag(phi_a: float, phi_b: float) -> np.ndarray:
    """diag(1, exp(i phi_a), exp(i phi_b))."""
    return np.diag([1.0, np.exp(1j * phi_a), np.exp(1j * phi_b)]).astype(complex)


def ideal_single_qutrit(name: str, phi_a: float = 0.0, phi_b: float = 0.0) -> np.ndarray:
    if name == "H3":
        return qutrit_hadamard()
    if name == "X012":
        return perm_x012()
    if name == "X01":
        return rx_subspace("01", np.pi)
    if name == "V":
        return rx_subspace("12", -np.pi / 2.0)
    if name == "Zdiag":
        return zdiag(phi_a, phi_b)
    raise UnknownGate(f"unknown single-qutrit gate {name!r}")


def bell_state() -> np.ndarray:
    """(|00> + |11> + |22>)/sqrt(3)."""
    return (ket2(0, 0) + ket2(1, 1) + ket2(2, 2)) / np.sqrt(3.0)


# Diagonal correction on the control that turns the raw circuit output
# amplitudes (-1, -i, -1)/sqrt(3) into the Bell state (up to global phase).
BELL_CORRECTION_ANGLES = (-np.pi / 2.0, 0.0)


def bell_reference_circuit():
    """Ideal gate sequence preparing the two-qutrit Bell state from |00>.

    Returns (ops, target) where ops is an ordered list of (name, 9x9 unitary)
    applied left-to-right, ending with the diagonal phase correction.
    """
    eye = np.eye(QUTRIT_DIM)
    ops = [
        ("H3 on control", kron(qutrit_hadamard(), eye)),
        ("UCR01(pi)", ideal_ucr("01", np.pi)),
        ("UCR12(pi/2)", ideal_ucr("12", np.pi / 2.0)),
        ("V on target", kron(eye, ideal_single_qutrit("V"))),
        ("X01 on target", kron(eye, ideal_single_qutrit("X01"))),
        ("Zdiag correction on control", kron(zdiag(*BELL_CORRECTION_ANGLES), eye)),
    ]
    return ops, bell_state()
