import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutritcr.crpulse import FlatTopCRPulse
from qutritcr.device import DeviceParams, transition_frequencies
from qutritcr.effective import (
    bell_reference_circuit,
    bell_state,
    cr_coefficients,
    effective_hamiltonian,
    ideal_single_qutrit,
    ideal_ucr,
    qutrit_hadamard,
    rx_subspace,
)
from qutritcr.errors import InvalidParams, SingularDenominator, UnknownGate
from qutritcr.linalg import dag, herm_defect, ket, ket2, kron, unitary_defect


class TestCRCoefficients:
    def test_literal_values(self, device):
        # [DERIVED] drive at 0: eta10 = 1/4.9, eta11 = 1/4.5
        c = cr_coefficients(device, 0.0)
        assert c.eta10 == pytest.approx(0.204082, abs=1e-6)
        assert c.eta11 == pytest.approx(0.222222, abs=1e-6)
        assert (c.nu0, c.nu1, c.nu2) == pytest.approx((-0.204082, -0.240363, 0.444444), abs=1e-6)

    def test_detuning_values(self, device):
        # [DERIVED] drive at omega2: omega1 - omega_d = Delta = -0.6
        c = cr_coefficients(device, device.omega2)
        assert (c.nu0, c.nu1, c.nu2) == pytest.approx((1.66667, 0.33333, -2.0), abs=1e-5)
        r1, r2 = c.ratios()
        assert (r1, r2) == pytest.approx((0.2, -1.2), abs=1e-12)

    def test_12_tone_values(self, device):
        # [DERIVED] drive at omega2 + delta2: omega1 - omega_d = -0.3
        r1, r2 = cr_coefficients(device, device.omega2 + device.delta2).ratios()
        assert (r1, r2) == pytest.approx((-1.0 / 7.0, -6.0 / 7.0), abs=1e-12)

    def test_algebraic_identities(self, device):
        for drive in (0.0, 4.0, 5.2, 5.43, 5.5, 7.0):
            c = cr_coefficients(device, drive)
            assert c.nu0 == -c.eta10
            assert c.nu1 == c.eta10 - 2.0 * c.eta11
            assert c.nu2 == 2.0 * c.eta11
            assert c.nu0 + c.nu1 + c.nu2 == pytest.approx(0.0, abs=1e-12 * max(abs(v) for v in c.nus))

    def test_delta1_zero_limit(self):
        # [TRIVIAL: algebraic limit] delta1 -> 0 makes nu1 -> -eta10
        p = DeviceParams(delta1=-1e-9)
        c = cr_coefficients(p, 0.0)
        assert c.nu1 == pytest.approx(-c.eta10, abs=1e-9)

    def test_singular_denominator(self):
        # Delta + delta1 = 0.4 - 0.4 = 0 makes eta11 singular
        p = DeviceParams(omega1=5.9, omega2=5.5, delta1=-0.4)
        with pytest.raises(SingularDenominator):
            cr_coefficients(p, p.omega2)

    def test_singular_at_the_control_frequency(self, device):
        # omega_d = omega1 makes eta10 singular
        with pytest.raises(SingularDenominator):
            cr_coefficients(device, device.omega1)

    @pytest.mark.parametrize("drive", [np.nan, np.inf, -np.inf])
    def test_needs_a_finite_drive(self, device, drive):
        # NaN would pass the denominator guard and come back as NaN rates
        with pytest.raises(InvalidParams, match="finite"):
            cr_coefficients(device, drive)


class TestEffectiveHamiltonian:
    def test_resonant_01_block_static(self, device):
        # [TRIVIAL: exponent vanishes at omega_d = w01_2]
        h1 = effective_hamiltonian(device, 5.5, 0.0)
        h2 = effective_hamiltonian(device, 5.5, 137.0)
        assert h1[0, 1] == pytest.approx(h2[0, 1], abs=1e-12)

    def test_resonant_12_block_static(self, device):
        # [TRIVIAL: exponent vanishes at omega_d = w12_2]; the 1-2 ladder
        # carries sqrt(2) nu_c at the rates of that same drive
        drive = device.omega2 + device.delta2
        h1 = effective_hamiltonian(device, drive, 0.0)
        h2 = effective_hamiltonian(device, drive, 137.0)
        assert h1[1, 2] == pytest.approx(h2[1, 2], abs=1e-12)
        nus = cr_coefficients(device, drive).nus
        for c in range(3):
            assert h1[3 * c + 1, 3 * c + 2] == pytest.approx(np.sqrt(2.0) * nus[c], abs=1e-12)

    def test_12_block_beats_at_anharmonicity(self, device):
        # [DERIVED] at omega_d = 5.5 the 1-2 ladder rotates at 0.3 GHz
        period = 1.0 / 0.3
        h1 = effective_hamiltonian(device, 5.5, 0.0)
        h2 = effective_hamiltonian(device, 5.5, period)
        h3 = effective_hamiltonian(device, 5.5, period / 2.0)
        assert h1[1, 2] == pytest.approx(h2[1, 2], abs=1e-9)
        assert h3[1, 2] == pytest.approx(-h1[1, 2], abs=1e-9)

    def test_hermitian_and_block_diagonal(self, device):
        n1 = kron(np.diag([0.0, 1.0, 2.0]), np.eye(3))
        for t in (0.0, 0.37, 12.9):
            h = effective_hamiltonian(device, 5.43, t)
            assert herm_defect(h) < 1e-12
            assert np.max(np.abs(h @ n1 - n1 @ h)) < 1e-12


def _simulator_ratios(p, subspace):
    """(nu1/nu0, nu2/nu0) of the simulator at 3 MHz: per control level c,
    the two plateau eigenvectors with most weight on |c, lo> and |c, lo+1>,
    mapped onto those states by the nearest unitary (the polar factor of
    their overlaps), give the block W diag(lambda) W^dag; its off-diagonal
    entry is the target's X/Y rate."""
    w, v = np.linalg.eigh(FlatTopCRPulse(p, subspace, 0.003).plateau_hamiltonian())
    lo = 0 if subspace == "01" else 1
    rates = []
    for c in range(3):
        rows = [3 * c + lo, 3 * c + lo + 1]
        cols = np.argsort(np.sum(np.abs(v[rows]) ** 2, axis=0))[-2:]
        left, _, right = np.linalg.svd(v[np.ix_(rows, cols)])
        near = left @ right
        rates.append(((near * w[cols]) @ dag(near))[0, 1])
    return rates[1] / rates[0], rates[2] / rates[0]


def _check_against_simulator(p, subspace):
    drive = transition_frequencies(p, dressed=True).of(2, subspace)
    for got, want in zip(_simulator_ratios(p, subspace), cr_coefficients(p, drive).ratios()):
        tol = 1e-3 * max(1.0, abs(want))
        assert abs(got - want) <= tol, (subspace, got, want)
        assert abs(got.imag) <= tol, (subspace, got)


@st.composite
def _devices_off_the_cr_resonances(draw):
    """Devices whose CR tones (omega_d = omega2 and omega2 + delta2) sit at
    least 0.2 GHz from the control's 0-1 and 1-2 transitions and from its
    0-2 two-photon transition; near those the weak-drive ratios leave the
    model by more than 1e-3."""
    omega1 = draw(st.floats(4.5, 5.3))
    omega2 = draw(st.floats(5.2, 6.0))
    delta1 = draw(st.floats(-0.5, -0.2))
    delta2 = draw(st.floats(-0.5, -0.2))
    j = draw(st.floats(0.0005, 0.005))
    for drive in (omega2, omega2 + delta2):
        gaps = (omega1 - drive, omega1 + delta1 - drive, 2.0 * omega1 + delta1 - 2.0 * drive)
        assume(min(abs(g) for g in gaps) >= 0.2)
    return DeviceParams(omega1=omega1, omega2=omega2, delta1=delta1, delta2=delta2, coupling_j=j)


class TestAgainstSimulator:
    @pytest.mark.parametrize("subspace", ["01", "12"])
    def test_default_device(self, device, subspace):
        # [DERIVED] oracle: the block-diagonalized plateau Hamiltonian
        _check_against_simulator(device, subspace)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=_devices_off_the_cr_resonances())
    def test_drawn_devices(self, p):
        for subspace in ("01", "12"):
            _check_against_simulator(p, subspace)


class TestIdealUCR:
    def test_theta_zero(self):
        # [TRIVIAL]
        assert np.allclose(ideal_ucr("01", 0.0), np.eye(9), atol=1e-15)

    def test_csx01_control0_block(self):
        # [PAPER] control-0 block = R_X^01(pi/2)
        u = ideal_ucr("01", np.pi / 2.0)
        s = 1.0 / np.sqrt(2.0)
        expected = np.array([[s, -1j * s, 0], [-1j * s, s, 0], [0, 0, 1]])
        assert np.allclose(u[:3, :3], expected, atol=1e-12)
        # control-1 block is the identity under signs (1, 0, -1)
        assert np.allclose(u[3:6, 3:6], np.eye(3), atol=1e-15)

    def test_csx_squared_is_cr_pi(self):
        # [PAPER: "two applications of U_CSX01 is identical"]
        csx = ideal_ucr("01", np.pi / 2.0)
        assert np.max(np.abs(csx @ csx - ideal_ucr("01", np.pi))) < 1e-12

    def test_one_parameter_group(self):
        u = ideal_ucr("12", 0.31) @ ideal_ucr("12", 0.92)
        assert np.max(np.abs(u - ideal_ucr("12", 1.23))) < 1e-12

    def test_unitary_and_control_commuting(self):
        n1 = kron(np.diag([0.0, 1.0, 2.0]), np.eye(3))
        u = ideal_ucr("01", 1.1, signs=(1.0, -0.3, -1.2))
        assert unitary_defect(u) < 1e-10
        assert np.max(np.abs(u @ n1 - n1 @ u)) < 1e-12

    def test_qubit_limit_opposite_rotations(self):
        # two-level CR structure: control-0 and control-1 blocks are
        # adjoint when the conditional angles are opposite
        u = ideal_ucr("01", 0.8, signs=(1.0, -1.0, 0.0))
        assert np.allclose(u[:3, :3], dag(u[3:6, 3:6]), atol=1e-12)

    @pytest.mark.parametrize("subspace", ["01", "12"])
    @pytest.mark.parametrize("signs", [(1.0, 0.0, -1.0), (1.0, -0.3, -1.2), (-1.0, 2.0, 0.5)])
    def test_equals_the_block_diagonal(self, subspace, signs):
        # one R_X block per control level, as scipy's block_diag places them
        want = scipy.linalg.block_diag(*(rx_subspace(subspace, s * 0.7) for s in signs))
        assert np.array_equal(ideal_ucr(subspace, 0.7, signs=signs), want)

    @pytest.mark.parametrize("signs", [(), (1.0, -1.0), (1.0, 0.0, -1.0, 0.5)])
    def test_needs_one_sign_per_control_level(self, signs):
        # block_diag would have made a 0x0, 6x6 or 12x12 "gate" of these
        with pytest.raises(InvalidParams, match="3 signs"):
            ideal_ucr("01", np.pi, signs=signs)


class TestSingleQutritGates:
    def test_h3_maps_zero_to_superposition(self):
        # [PAPER: "maps |0> to the equal superposition state"]
        out = qutrit_hadamard() @ ket(0)
        assert np.allclose(out, np.ones(3) / np.sqrt(3.0), atol=1e-12)
        assert unitary_defect(qutrit_hadamard()) < 1e-10

    def test_x012_permutation(self):
        # [PAPER: "performs the permutation"]
        x = ideal_single_qutrit("X012")
        assert np.allclose(x @ ket(0), ket(1), atol=1e-15)
        assert np.allclose(x @ ket(2), ket(0), atol=1e-15)

    def test_v_trivial_on_zero(self):
        # [TRIVIAL: R_X^12 acts trivially on |0>]
        assert np.allclose(ideal_single_qutrit("V") @ ket(0), ket(0), atol=1e-15)

    def test_zdiag(self):
        z = ideal_single_qutrit("Zdiag", 0.4, -0.9)
        assert np.allclose(z, np.diag([1.0, np.exp(0.4j), np.exp(-0.9j)]), atol=1e-15)

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate):
            ideal_single_qutrit("T3")

    def test_rx_subspace_generator(self):
        # R_X^{01}(phi) = exp(-i(|0><1|+|1><0|)phi/2)
        phi = 1.3
        r = rx_subspace("01", phi)
        assert r[0, 0] == pytest.approx(np.cos(phi / 2.0))
        assert r[0, 1] == pytest.approx(-1j * np.sin(phi / 2.0))
        assert r[2, 2] == 1.0

    @pytest.mark.parametrize("subspace", ["02", "10", ""])
    def test_rx_subspace_rejects_unknown_subspace(self, subspace):
        with pytest.raises(InvalidParams):
            rx_subspace(subspace, np.pi)


class TestBellReferenceCircuit:
    def test_precorrection_amplitudes(self):
        # [DERIVED] oracle: 9x9 matrix product; amplitudes (-1, -i, -1)/sqrt(3)
        ops, _ = bell_reference_circuit()
        psi = ket2(0, 0)
        for _, u in ops[:-1]:  # everything except the diagonal correction
            psi = u @ psi
        s = 1.0 / np.sqrt(3.0)
        assert psi[0] == pytest.approx(-s, abs=1e-12)
        assert psi[4] == pytest.approx(-1j * s, abs=1e-12)
        assert psi[8] == pytest.approx(-s, abs=1e-12)
        off = np.delete(psi, [0, 4, 8])
        assert np.max(np.abs(off)) < 1e-12

    def test_fidelity_after_correction(self):
        # [DERIVED] same oracle; fidelity 1 - 1e-9
        ops, target = bell_reference_circuit()
        psi = ket2(0, 0)
        for _, u in ops:
            psi = u @ psi
        assert abs(np.vdot(target, psi)) ** 2 > 1.0 - 1e-9

    def test_omitting_x01_breaks_it(self):
        # [DERIVED] negative control: drop the final target X01
        ops, target = bell_reference_circuit()
        psi = ket2(0, 0)
        for name, u in ops:
            if "X01" in name:
                continue
            psi = u @ psi
        assert abs(np.vdot(target, psi)) ** 2 < 0.9

    def test_target_is_bell(self):
        _, target = bell_reference_circuit()
        assert np.allclose(target, bell_state(), atol=1e-15)
        assert np.allclose(bell_state(), (ket2(0, 0) + ket2(1, 1) + ket2(2, 2)) / np.sqrt(3.0))
