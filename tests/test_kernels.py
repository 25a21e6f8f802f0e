import math

import numpy as np
import pytest

from schattenlab.kernels import (DEGENERATE_GAP, TMapParams, _schur_apply,
                                 divided_difference_kernel, group_spectrum,
                                 loewner_min_eig, mixed_kernel_map, rx_kernel,
                                 t_map, unital_cp_map)
from schattenlab.matcore import (DomainError, PositiveDefiniteMatrix,
                                 ValidationError, herm_eig)

RNG = np.random.default_rng(77)


def rand_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def rand_pdm(n, spread=2.0):
    lam = np.exp(RNG.uniform(-spread, spread, n))
    q, _ = np.linalg.qr(rand_complex(n))
    return PositiveDefiniteMatrix.from_spectral(lam, q)


class TestParams:
    def test_alpha_relation(self):
        tp = TMapParams(beta=0.3, gamma=0.7)
        assert abs(tp.alpha - (2 * 0.3 + 0.7 - 1)) <= 1e-15

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValidationError):
            TMapParams(beta=0.1, gamma=1.0)
        with pytest.raises(ValidationError):
            TMapParams(beta=0.1, gamma=0.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValidationError):
            TMapParams(beta=-0.1, gamma=0.5)


class TestGrouping:
    def test_simple_spectrum(self):
        d = rand_pdm(5)
        g = group_spectrum(herm_eig(d))
        assert len(g) == 5

    def test_clustered_spectrum(self):
        lam = np.array([1.0, 1.0 + 1e-12, 2.0, 5.0, 5.0 + 5e-12])
        q, _ = np.linalg.qr(rand_complex(5))
        d = PositiveDefiniteMatrix.from_spectral(lam, q)
        g = group_spectrum(herm_eig(d))
        assert len(g) == 3

    @staticmethod
    def projections(g):
        return [g.vectors[:, idx] @ g.vectors[:, idx].conj().T
                for idx in g.indices]

    def test_projections_resolve_identity(self):
        d = rand_pdm(6)
        g = group_spectrum(herm_eig(d))
        assert sorted(i for idx in g.indices for i in idx) == list(range(6))
        total = sum(self.projections(g))
        assert np.abs(total - np.eye(6)).max() <= 1e-11

    def test_projections_idempotent(self):
        lam = np.array([1.0, 1.0, 3.0])
        q, _ = np.linalg.qr(rand_complex(3))
        d = PositiveDefiniteMatrix.from_spectral(lam, q)
        g = group_spectrum(herm_eig(d))
        assert len(g) == 2
        for p in self.projections(g):
            assert np.abs(p @ p - p).max() <= 1e-11


class TestDividedDifferenceKernel:
    def test_well_separated_values(self):
        vals = np.array([1.0, 4.0])
        k = divided_difference_kernel(vals, TMapParams(beta=0.0, gamma=0.5))
        assert abs(k[0, 1] - (2.0 - 1.0) / 3.0) <= 1e-14
        assert abs(k[0, 0] - 0.5) <= 1e-14          # derivative at 1
        assert abs(k[1, 1] - 0.5 * 4.0 ** -0.5) <= 1e-14

    def test_weights(self):
        vals = np.array([1.0, 4.0])
        k0 = divided_difference_kernel(vals, TMapParams(beta=0.0, gamma=0.5))
        k1 = divided_difference_kernel(vals, TMapParams(beta=1.0, gamma=0.5))
        assert np.abs(k1 - k0 * np.outer(vals, vals)).max() <= 1e-13

    def test_near_degenerate_uses_derivative(self):
        a = 2.0
        b = a * (1 + 0.5 * DEGENERATE_GAP)
        k = divided_difference_kernel(np.array([a, b]),
                                      TMapParams(beta=0.0, gamma=0.3))
        mid = 0.5 * (a + b)
        assert abs(k[0, 1] - 0.3 * mid ** -0.7) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            divided_difference_kernel(np.array([1.0, -2.0]),
                                      TMapParams(beta=0.0, gamma=0.5))


class TestLoewnerPositivity:
    def test_random_spectra(self):
        for _ in range(50):
            n = int(RNG.integers(2, 9))
            vals = np.exp(RNG.uniform(-math.log(1e3), math.log(1e3), n))
            for g in (0.2, 0.5, 0.9, 1.0):
                assert loewner_min_eig(vals, g) >= -1e-10

    def test_gamma_one_is_rank_one(self):
        vals = np.array([0.5, 1.0, 7.0])
        assert abs(loewner_min_eig(vals, 1.0)) <= 1e-12

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ValidationError):
            loewner_min_eig(np.array([1.0, 2.0]), 1.5)


class TestTMap:
    def test_diagonal_case_oracle(self):
        # with d diagonal the map is entrywise multiplication by the kernel
        lam = np.array([0.5, 1.0, 3.0])
        d = PositiveDefiniteMatrix(np.diag(lam).astype(complex))
        tp = TMapParams(beta=0.4, gamma=0.6)
        delta = rand_complex(3)
        out = t_map(d, tp, delta).mat
        k = divided_difference_kernel(lam, tp)
        assert np.abs(out - k * delta).max() <= 1e-12

    def test_linearity(self):
        d = rand_pdm(4)
        tp = TMapParams(beta=0.2, gamma=0.8)
        a, b = rand_complex(4), rand_complex(4)
        lhs = t_map(d, tp, 2.0 * a + b).mat
        rhs = 2.0 * t_map(d, tp, a).mat + t_map(d, tp, b).mat
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_hermiticity_preserved(self):
        d = rand_pdm(4)
        a = rand_complex(4)
        h = 0.5 * (a + a.conj().T)
        out = t_map(d, TMapParams(beta=0.3, gamma=0.5), h).mat
        assert np.abs(out - out.conj().T).max() <= 1e-11

    def test_basis_covariance(self):
        # conjugating d and delta by a unitary conjugates the output
        d = rand_pdm(4)
        delta = rand_complex(4)
        tp = TMapParams(beta=0.1, gamma=0.4)
        u, _ = np.linalg.qr(rand_complex(4))
        du = PositiveDefiniteMatrix(u @ d.mat @ u.conj().T)
        lhs = t_map(du, tp, u @ delta @ u.conj().T).mat
        rhs = u @ t_map(d, tp, delta).mat @ u.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            t_map(rand_pdm(3), TMapParams(beta=0.1, gamma=0.5), rand_complex(4))


class TestUnitalMap:
    def test_unital(self):
        d = rand_pdm(5)
        out = unital_cp_map(d, 0.75, np.eye(5, dtype=complex)).mat
        assert np.abs(out - np.eye(5)).max() <= 1e-10

    def test_positivity(self):
        d = rand_pdm(4)
        a = rand_complex(4)
        y = a @ a.conj().T
        out = unital_cp_map(d, 0.6, y).mat
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_rejects_small_gamma(self):
        with pytest.raises(ValidationError):
            unital_cp_map(rand_pdm(3), 0.4, np.eye(3, dtype=complex))


class TestMixedKernel:
    def test_single_spectrum_reduces_to_schur(self):
        lam = np.array([1.0, 2.0, 5.0])
        d = PositiveDefiniteMatrix(np.diag(lam).astype(complex))
        delta = rand_complex(3)
        out = mixed_kernel_map(d, d, lambda a, b: a + b, delta).mat
        k = lam[:, None] + lam[None, :]
        assert np.abs(out - k * delta).max() <= 1e-12

    def test_non_finite_kernel_raises(self):
        x, y = rand_pdm(3), rand_pdm(3)
        with pytest.raises(DomainError):
            mixed_kernel_map(x, y, lambda a, b: float("nan"), rand_complex(3))


def test_schur_apply_expands_the_kernel_per_group_pair():
    # ragged groups on both sides; the kernel expanded one group pair at a
    # time must give the same bits
    q1, _ = np.linalg.qr(rand_complex(6))
    q2, _ = np.linalg.qr(rand_complex(6))
    gl = group_spectrum(herm_eig(PositiveDefiniteMatrix.from_spectral(
        np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]), q1)))
    gr = group_spectrum(herm_eig(PositiveDefiniteMatrix.from_spectral(
        np.array([0.5, 4.0, 4.0, 4.0, 4.0, 7.0]), q2)))
    assert [len(i) for i in gl.indices] == [3, 1, 2]
    assert [len(i) for i in gr.indices] == [1, 4, 1]
    kernel = RNG.uniform(0.5, 2.0, (len(gl), len(gr)))
    delta = rand_complex(6)
    k = np.empty((6, 6))
    for gi, idx_i in enumerate(gl.indices):
        for gj, idx_j in enumerate(gr.indices):
            k[np.ix_(idx_i, idx_j)] = kernel[gi, gj]
    d = gl.vectors.conj().T @ delta @ gr.vectors
    want = gl.vectors @ (k * d) @ gr.vectors.conj().T
    assert np.array_equal(_schur_apply(gl, gr, kernel, delta), want)


class TestRxKernel:
    def test_diagonal_is_half(self):
        vals = np.array([0.3, 1.0, 8.0])
        k = rx_kernel(vals, 1.0)
        assert np.abs(np.diagonal(k) - 0.5).max() <= 1e-14

    def test_symmetric(self):
        vals = np.exp(RNG.uniform(-3, 3, 6))
        k = rx_kernel(vals, 0.5)
        assert np.abs(k - k.T).max() <= 1e-14

    def test_entries_below_one(self):
        vals = np.exp(RNG.uniform(-6, 6, 8))
        for alpha in (0.5, 1.0, 3.0):
            k = rx_kernel(vals, alpha)
            assert k.max() <= 1.0 and k.min() >= 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            rx_kernel(np.array([1.0, 2.0]), 0.0)
