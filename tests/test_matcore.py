import math
import warnings

import numpy as np
import pytest

from schattenlab.matcore import (ComplexMatrix, DomainError, HermitianMatrix,
                                 NumericalError, PositiveDefiniteMatrix,
                                 SpectralDecomposition, ValidationError,
                                 herm_eig, imaginary_power, matrix_function,
                                 polar_decompose, positive_power)

RNG = np.random.default_rng(2024)


def rand_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def rand_hermitian(n):
    a = rand_complex(n)
    return 0.5 * (a + a.conj().T)


def rand_pdm(n, spread=3.0):
    lam = np.exp(RNG.uniform(-spread, spread, n))
    q, _ = np.linalg.qr(rand_complex(n))
    return PositiveDefiniteMatrix((q * lam) @ q.conj().T)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            ComplexMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValidationError):
            ComplexMatrix(m)

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            ComplexMatrix(np.eye(65))

    def test_rejects_non_hermitian(self):
        m = rand_complex(4)
        with pytest.raises(ValidationError):
            HermitianMatrix(m + 10 * np.triu(np.ones((4, 4)), 1))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            PositiveDefiniteMatrix(np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_near_singular(self):
        with pytest.raises(ValidationError):
            PositiveDefiniteMatrix(np.diag([1.0, 1e-15]).astype(complex))

    def test_matrices_are_immutable(self):
        m = ComplexMatrix(np.eye(3, dtype=complex))
        with pytest.raises((ValueError, RuntimeError)):
            m.mat[0, 0] = 5.0


class TestJacobiEig:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_reconstruction(self, n):
        h = rand_hermitian(n)
        s = herm_eig(HermitianMatrix(h))
        assert np.abs(s.reconstruct() - h).max() <= 1e-11 * (1 + np.abs(h).max())

    def test_eigenvalues_sorted(self):
        s = herm_eig(HermitianMatrix(rand_hermitian(12)))
        assert np.all(np.diff(s.eigenvalues) >= 0)

    def test_unitary_vectors(self):
        s = herm_eig(HermitianMatrix(rand_hermitian(10)))
        g = s.vectors.conj().T @ s.vectors
        assert np.abs(g - np.eye(10)).max() <= 1e-12

    def test_graded_eigenvalues(self):
        # rounding Q diag(lam) Q* already moves lam_min by about n eps lam_max
        lam = np.array([1e-10, 1e-4, 1.0])
        q, _ = np.linalg.qr(rand_complex(3))
        h = (q * lam) @ q.conj().T
        got = herm_eig(HermitianMatrix(0.5 * (h + h.conj().T))).eigenvalues
        assert np.all(np.abs(got - lam) <= 1e-5 * lam)

    def test_degenerate_spectrum(self):
        # eigenvalue 1 with multiplicity 3 hidden by a random rotation
        lam = np.array([1.0, 1.0, 1.0, 4.0, 9.0])
        q, _ = np.linalg.qr(rand_complex(5))
        h = (q * lam) @ q.conj().T
        s = herm_eig(HermitianMatrix(0.5 * (h + h.conj().T)))
        assert np.abs(np.sort(s.eigenvalues) - np.sort(lam)).max() <= 1e-12
        assert np.abs(s.reconstruct() - h).max() <= 1e-11

    def test_wide_dynamic_range(self):
        lam = np.array([1e-8, 1e-3, 1.0, 1e3, 1e8])
        q, _ = np.linalg.qr(rand_complex(5))
        h = (q * lam) @ q.conj().T
        s = herm_eig(HermitianMatrix(0.5 * (h + h.conj().T)))
        assert np.abs(np.sort(s.eigenvalues) - lam).max() <= 1e-7


class TestFunctionalCalculus:
    def test_identity_function(self):
        d = rand_pdm(5)
        m = matrix_function(d.spectral, lambda t: t)
        assert np.abs(m.mat - d.mat).max() <= 1e-11

    def test_square_matches_matmul(self):
        d = rand_pdm(5, spread=1.0)
        m = matrix_function(d.spectral, lambda t: t * t)
        assert np.abs(m.mat - d.mat @ d.mat).max() <= 1e-10

    def test_log_exp_roundtrip(self):
        d = rand_pdm(4, spread=1.0)
        lg = matrix_function(d.spectral, math.log)
        back = matrix_function(herm_eig(lg), math.exp)
        assert np.abs(back.mat - d.mat).max() <= 1e-9

    def test_undefined_function_raises(self):
        d = rand_pdm(3)
        with pytest.raises(DomainError):
            matrix_function(herm_eig(HermitianMatrix(-d.mat)), math.sqrt)

    def test_positive_power_consistency(self):
        d = rand_pdm(5, spread=1.5)
        half = positive_power(d, 0.5)
        assert np.abs(half @ half - d.mat).max() <= 1e-9

    def test_cached_spectral_reused(self):
        d = rand_pdm(6)
        assert herm_eig(d) is d.spectral

    def test_from_spectral(self):
        lam = np.array([0.5, 1.0, 2.0])
        q, _ = np.linalg.qr(rand_complex(3))
        d = PositiveDefiniteMatrix.from_spectral(lam, q)
        ref = (q * lam) @ q.conj().T
        assert np.abs(d.mat - ref).max() <= 1e-13
        assert np.abs(d.spectral.eigenvalues - lam).max() == 0.0

    def test_unitary_check_refuses_a_nan_entry(self):
        # NaN compares false with any bound, so the check must not pass it
        q, _ = np.linalg.qr(rand_complex(3))
        q[1, 2] = np.nan
        with pytest.raises(ValidationError, match="not unitary"):
            SpectralDecomposition(np.array([0.5, 1.0, 2.0]), q)

    def test_from_spectral_refuses_a_nan_eigenvalue(self):
        q, _ = np.linalg.qr(rand_complex(3))
        with pytest.raises(ValidationError, match="positive definite"):
            PositiveDefiniteMatrix.from_spectral(np.array([0.5, np.nan, 2.0]), q)


class TestPolarAndUnitaries:
    def test_polar_reconstruction(self):
        for n in (2, 4, 7):
            a = rand_complex(n)
            u, p = polar_decompose(a)
            assert np.abs(u @ p - a).max() <= 1e-10 * (1 + np.abs(a).max())

    def test_polar_positive_part(self):
        a = rand_complex(5)
        _, p = polar_decompose(a)
        lam = np.linalg.eigvalsh(p)
        assert lam.min() >= -1e-12

    def test_polar_rank_deficient(self):
        a = rand_complex(4)
        a[:, 0] = 0.0
        a[:, 2] = a[:, 1]
        u, p = polar_decompose(a)
        assert np.abs(u @ p - a).max() <= 1e-10
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        assert np.abs(p @ p - a.conj().T @ a).max() <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_polar_non_finite_raises(self, bad):
        a = rand_complex(3)
        a[2, 0] = bad
        with pytest.raises(NumericalError):
            polar_decompose(a)

    def test_imaginary_power_is_unitary(self):
        d = rand_pdm(5)
        u = imaginary_power(d, 1.7).mat
        assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-11

    @pytest.mark.parametrize("power", [positive_power, imaginary_power])
    def test_indefinite_hermitian_is_refused_without_nan(self, power):
        # the positivity rule refuses diag(1, -1) before any power is taken:
        # positive_power used to return an all-NaN matrix after a warning
        d = HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="positive definite"):
                power(d, 0.5)

    def test_imaginary_power_group_law(self):
        d = rand_pdm(4)
        u = imaginary_power(d, 0.4).mat
        v = imaginary_power(d, 1.1).mat
        w = imaginary_power(d, 1.5).mat
        assert np.abs(u @ v - w).max() <= 1e-11

