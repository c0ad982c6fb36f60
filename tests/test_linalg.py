import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcr.errors import DimMismatch, NotHermitian
from qutritcr.linalg import (
    HERM_TOL,
    NORM_TOL,
    UNITARY_TOL,
    dag,
    expm_unitary,
    ket,
    ket2,
    kron,
    partial_trace,
    proj,
    unitary_defect,
)

I3 = np.eye(3)


def random_hermitian(rng, n=3):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + dag(a)) / 2.0


class TestKron:
    def test_identity(self):
        # [TRIVIAL: identity case]
        assert np.array_equal(kron(I3, I3), np.eye(9))

    def test_projector_times_sigma_x(self):
        # [TRIVIAL: forced by Kronecker indexing]
        sx = np.outer(ket(0), ket(1)) + np.outer(ket(1), ket(0))
        m = kron(proj(1, 1), sx)
        expected = np.zeros((9, 9))
        expected[3, 4] = expected[4, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_diagonal(self):
        # [TRIVIAL: diagonal case]
        m = kron(np.diag([1.0, 2.0, 3.0]), I3)
        assert np.array_equal(np.diag(m), [1, 1, 1, 2, 2, 2, 3, 3, 3])

    def test_associative_integers(self, rng):
        # integer-valued matrices keep kron associativity exact
        a, b, c = (rng.integers(-3, 4, size=(2, 2)) for _ in range(3))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


class TestExpmUnitary:
    def test_zero_scalar_is_identity(self, rng):
        # [TRIVIAL: identity case]
        h = random_hermitian(rng)
        assert np.allclose(expm_unitary(h, 0.0), I3, atol=1e-14)

    def test_sigma_x_half_pi(self):
        # [DERIVED] oracle: eigendecomposition of the 2x2 block, cos(pi/2)=0
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        u = expm_unitary(h, np.pi / 2.0)
        expected = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]], dtype=complex)
        assert np.allclose(u, expected, atol=1e-12)

    def test_inverse_symmetry(self, rng):
        # [TRIVIAL: inverse symmetry]
        h = random_hermitian(rng)
        s = 0.7321
        assert np.allclose(expm_unitary(h, s) @ expm_unitary(h, -s), I3, atol=UNITARY_TOL)

    def test_group_property(self, rng):
        # product over scalars composes (spec 1e-9)
        h = random_hermitian(rng)
        s, t = 0.31, -1.27
        lhs = expm_unitary(h, s) @ expm_unitary(h, t)
        assert np.max(np.abs(lhs - expm_unitary(h, s + t))) < 1e-9

    def test_result_unitary(self, rng):
        h = random_hermitian(rng, 9)
        assert unitary_defect(expm_unitary(h, 2.3)) < UNITARY_TOL

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 3.0), s=st.floats(-2.0, 2.0))
    def test_matches_scipy_expm(self, seed, scale, s):
        # eigendecomposition by numpy's eigh against scipy's Pade expm
        h = scale * random_hermitian(np.random.default_rng(seed), 9)
        assert np.max(np.abs(expm_unitary(h, s) - scipy.linalg.expm(-1j * s * h))) <= 1e-14

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0  # missing the conjugate entry
        with pytest.raises(NotHermitian):
            expm_unitary(m, 1.0)


class TestPartialTrace:
    def test_product_state(self):
        # [TRIVIAL: product state] |12> -> |1><1| on the first qutrit
        rho = partial_trace(ket2(1, 2), keep="first")
        assert np.allclose(rho, proj(1, 1), atol=1e-14)

    def test_bell_is_maximally_mixed(self):
        # [TRIVIAL: maximal-entanglement symmetry]
        psi = (ket2(0, 0) + ket2(1, 1) + ket2(2, 2)) / np.sqrt(3.0)
        assert np.allclose(partial_trace(psi, keep="first"), I3 / 3.0, atol=1e-14)

    def test_schmidt_form(self):
        # [TRIVIAL: Schmidt form]
        psi = (ket2(0, 0) + ket2(1, 1)) / np.sqrt(2.0)
        rho = partial_trace(psi, keep="second")
        assert np.allclose(rho, np.diag([0.5, 0.5, 0.0]), atol=1e-14)

    def test_trace_one_and_psd(self, rng):
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        for keep in ("first", "second"):
            rho = partial_trace(psi, keep=keep)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            partial_trace(np.ones(3) / np.sqrt(3.0), keep="first")


def test_tolerance_constants():
    assert (HERM_TOL, UNITARY_TOL, NORM_TOL) == (1e-12, 1e-10, 1e-9)
