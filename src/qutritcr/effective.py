"""Analytic effective CR model and the ideal gate library.

The conditional-rotation coefficients (nu0, nu1, nu2) depend on the
device and the CR drive frequency omega_d:

    eta10 = 1/(omega1 - omega_d),  eta11 = 1/(omega1 - omega_d + delta1).

One formula serves both CR tones: at the 0-1 tone's carrier (omega_d near
omega2) and at the 1-2 tone's (omega_d near omega2 + delta2), its rate
ratios (nu1/nu0, nu2/nu0) match the simulator's weak-drive ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, finite_float, transition_frequencies
from .errors import InvalidParams, SingularDenominator, UnknownGate
from .linalg import QUTRIT_DIM, expm_unitary, ket2, kron, proj

IDEAL_CSX_SIGNS = (1.0, 0.0, -1.0)


@dataclass(frozen=True)
class CRCoefficients:
    """Conditional drive coefficients, units 1/GHz."""

    eta10: float
    eta11: float

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


def cr_coefficients(p: DeviceParams, drive_ghz: float) -> CRCoefficients:
    """The effective model's conditional rates for a device driven at
    ``drive_ghz`` (module docstring); nothing in the pipeline calls this.

    Measured against the simulator (the plateau Hamiltonian of a
    ``FlatTopCRPulse`` at 3 MHz block-diagonalized per control level, the
    target's X/Y rate read off each block), the rate ratios
    (nu1/nu0, nu2/nu0) on the default device are 0.2001 and -1.2000 for the
    0-1 tone and -0.1428 and -0.8572 for the 1-2 tone.  At each tone's
    dressed carrier this function gives the same to 5e-5; at the bare
    transitions omega2 and omega2 + delta2 it gives 0.2 and -1.2, and -1/7
    and -6/7.
    """
    finite_float(drive_ghz, "drive frequency")
    base = p.omega1 - drive_ghz
    for denom in (base, base + p.delta1):
        if abs(denom) < 1e-6:
            raise SingularDenominator(f"denominator {denom:.2e} GHz too close to zero")
    return CRCoefficients(eta10=1.0 / base, eta11=1.0 / (base + p.delta1))


def effective_hamiltonian(p: DeviceParams, omega_d: float, t: float) -> np.ndarray:
    """Effective conditional drive Hamiltonian at time t (9x9, Hermitian).

    (nu0 |0><0| + nu1 |1><1| + nu2 |2><2|) on the control, with the rates
    of ``cr_coefficients`` at omega_d, tensored with a phase-rotating 0-1
    ladder plus a sqrt(2)-weighted 1-2 ladder on the target; on resonance
    with a transition its block becomes static.
    """
    freqs = transition_frequencies(p, dressed=False)
    phi01 = 2.0 * np.pi * (omega_d - freqs.w01_2) * t
    phi12 = 2.0 * np.pi * (omega_d - freqs.w12_2) * t
    target = np.exp(1j * phi01) * proj(0, 1) + np.exp(-1j * phi01) * proj(1, 0)
    target += np.sqrt(2.0) * (np.exp(1j * phi12) * proj(1, 2) + np.exp(-1j * phi12) * proj(2, 1))
    control = np.diag(np.array(cr_coefficients(p, omega_d).nus, dtype=complex))
    return kron(control, target)


def rx_subspace(subspace: str, phi: float) -> np.ndarray:
    """3x3 rotation exp(-i (|a><b| + |b><a|) phi / 2) on levels a-b."""
    if subspace not in ("01", "12"):
        raise InvalidParams(f"subspace must be '01' or '12', got {subspace!r}")
    a, b = (0, 1) if subspace == "01" else (1, 2)
    gen = proj(a, b) + proj(b, a)
    return expm_unitary(gen, phi / 2.0)


def on_transmon(channel: int, op: np.ndarray) -> np.ndarray:
    """A 3x3 operator on transmon ``channel`` (1, the control, or 2) of the pair."""
    return kron(op, np.eye(QUTRIT_DIM)) if channel == 1 else kron(np.eye(QUTRIT_DIM), op)


def ideal_ucr(subspace: str, theta: float, signs=IDEAL_CSX_SIGNS) -> np.ndarray:
    """Conditional-rotation gate sum_i |i><i| (x) R_X^{subspace}(signs[i] theta),
    one sign per control level."""
    signs = tuple(signs)
    if len(signs) != QUTRIT_DIM:
        raise InvalidParams(f"need {QUTRIT_DIM} signs, one per control level, got {len(signs)}")
    return sum(kron(proj(i, i), rx_subspace(subspace, s * theta)) for i, s in enumerate(signs))


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
    ops = [
        ("H3 on control", on_transmon(1, qutrit_hadamard())),
        ("UCR01(pi)", ideal_ucr("01", np.pi)),
        ("UCR12(pi/2)", ideal_ucr("12", np.pi / 2.0)),
        ("V on target", on_transmon(2, ideal_single_qutrit("V"))),
        ("X01 on target", on_transmon(2, ideal_single_qutrit("X01"))),
        ("Zdiag correction on control", on_transmon(1, zdiag(*BELL_CORRECTION_ANGLES))),
    ]
    return ops, bell_state()
