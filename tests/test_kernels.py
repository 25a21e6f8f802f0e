import math

import numpy as np
import pytest

from schattenlab.kernels import (CLUSTER_TOL, DEGENERATE_GAP, TMapParams,
                                 _divided_difference, _group_spectrum,
                                 _loewner_matrix, _schur_apply, _t_map,
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


def reference_grouping(lam):
    """The per-eigenvalue grouping loop that group_spectrum replaced."""
    n = lam.shape[0]
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    groups, start = [], 0
    for i in range(1, n + 1):
        if i == n or lam[i] - lam[i - 1] > CLUSTER_TOL * max(scale, abs(lam[i])):
            groups.append(list(range(start, i)))
            start = i
    cols = np.empty(n, dtype=np.intp)
    for g, idx in enumerate(groups):
        cols[idx] = g
    return np.array([lam[g].mean() for g in groups]), cols


def clustered_spectrum(rng, signed):
    """Ascending spectrum of at most 64 values in groups of 1-16, with gaps
    inside a group around the clustering threshold."""
    sizes = []
    while sum(sizes) < 64:
        sizes.append(int(rng.integers(1, 17)))
    sizes[-1] -= sum(sizes) - int(rng.integers(1, 65))
    sizes = [m for m in sizes if m > 0]
    centres = np.sort(np.exp(rng.uniform(-6, 6, len(sizes))))
    if signed:
        centres = np.sort(centres * rng.choice((-1.0, 1.0), len(sizes)))
    step = CLUSTER_TOL * np.abs(centres).max()
    lam = np.concatenate([c + np.cumsum(rng.choice((0.0, 0.3, 0.999, 1.001, 2.0), m))
                          * step for c, m in zip(centres, sizes)])
    return np.sort(lam)


class TestGrouping:
    def test_simple_spectrum(self):
        d = rand_pdm(5)
        values, cols = group_spectrum(herm_eig(d))
        assert len(values) == 5
        assert cols.tolist() == [0, 1, 2, 3, 4]

    def test_clustered_spectrum(self):
        lam = np.array([1.0, 1.0 + 1e-12, 2.0, 5.0, 5.0 + 5e-12])
        q, _ = np.linalg.qr(rand_complex(5))
        d = PositiveDefiniteMatrix.from_spectral(lam, q)
        values, cols = group_spectrum(herm_eig(d))
        assert len(values) == 3
        assert cols.tolist() == [0, 0, 1, 2, 2]

    @staticmethod
    def projections(s):
        v = s.vectors
        _, cols = group_spectrum(s)
        return [v[:, cols == g] @ v[:, cols == g].conj().T
                for g in range(cols.max() + 1)]

    def test_projections_resolve_identity(self):
        s = herm_eig(rand_pdm(6))
        values, cols = group_spectrum(s)
        # every column lies in exactly one group, and every group is used
        assert cols.shape == (6,) and set(cols.tolist()) == set(range(len(values)))
        total = sum(self.projections(s))
        assert np.abs(total - np.eye(6)).max() <= 1e-11

    def test_projections_idempotent(self):
        lam = np.array([1.0, 1.0, 3.0])
        q, _ = np.linalg.qr(rand_complex(3))
        s = herm_eig(PositiveDefiniteMatrix.from_spectral(lam, q))
        assert len(group_spectrum(s)[0]) == 2
        for p in self.projections(s):
            assert np.abs(p @ p - p).max() <= 1e-11

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_the_per_eigenvalue_loop(self, signed):
        rng = np.random.default_rng(2024 + signed)
        for _ in range(300):
            lam = clustered_spectrum(rng, signed)
            values, cols = _group_spectrum(lam)
            want_values, want_cols = reference_grouping(lam)
            assert np.array_equal(values, want_values)
            assert np.array_equal(cols, want_cols)


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


def test_schur_apply_is_the_sum_over_eigenvector_pairs():
    # sum_ij k_ij (v_i v_i*) delta (w_j w_j*), one rank-one projection per
    # eigenvector, whatever the eigenvalues behind the two bases
    n = 6
    vl, _ = np.linalg.qr(rand_complex(n))
    vr, _ = np.linalg.qr(rand_complex(n))
    kernel = RNG.uniform(0.5, 2.0, (n, n))
    delta = rand_complex(n)
    want = np.zeros((n, n), dtype=complex)
    for i in range(n):
        pi = np.outer(vl[:, i], vl[:, i].conj())
        for j in range(n):
            want += kernel[i, j] * (pi @ delta @ np.outer(vr[:, j], vr[:, j].conj()))
    got = _schur_apply(vl, vr, kernel, delta)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def scalar_loewner_matrix(vals, gamma):
    """The Loewner matrix one _divided_difference call per pair, as the
    kernel was computed before it took array operations."""
    n = vals.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = _divided_difference(vals[i], vals[j], gamma)
    return k


def test_loewner_matrix_matches_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(600):
        n = int(rng.integers(1, 17))
        gamma = 1.0 if trial % 7 == 0 else float(rng.uniform(0.01, 1.0))
        vals = 10.0 ** -rng.uniform(0, 12, n)
        vals = rng.choice(vals, n) if trial % 2 else vals     # exact repeats
        if n > 1 and trial % 3 == 0:
            # a pair at, just inside and just outside the derivative switch
            rel = rng.choice((0.5, 0.999, 1.0, 1.001, 2.0)) * DEGENERATE_GAP
            vals[1] = vals[0] * (1.0 + rel * rng.choice((-1.0, 1.0)))
        vals = np.sort(vals * 10.0 ** rng.choice((-100, 0, 100)))
        assert np.array_equal(_loewner_matrix(vals, gamma),
                              scalar_loewner_matrix(vals, gamma))


def grouped_t_map(lam, v, params, delta):
    """t_map as computed before the multipliers ran over the eigenvalues:
    the divided differences of the group means of group_spectrum, expanded
    to one entry per eigenvector pair."""
    values, cols = _group_spectrum(lam)
    k = divided_difference_kernel(values, params)[cols[:, None], cols]
    return v @ (k * (v.conj().T @ delta @ v)) @ v.conj().T


class TestAgainstGroupedTMap:
    @staticmethod
    def worst_gap(rng, draw_lam):
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 17))
            lam = np.sort(draw_lam(n))
            z = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            v, _ = np.linalg.qr(z[0])
            delta = z[1]
            params = TMapParams(float(rng.uniform(0, 1)),
                                float(rng.uniform(0.05, 0.95)))
            want = grouped_t_map(lam, v, params, delta)
            got = _t_map(lam, v, params, delta)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        return worst

    def test_exact_repeats(self):
        rng = np.random.default_rng(5)
        assert self.worst_gap(rng, lambda n: rng.choice(
            np.exp(rng.uniform(-6.9, 6.9, rng.integers(1, n))), n)) <= 1e-14

    def test_clustered_pairs(self):
        # the search's clustered-pairs law: log-eigenvalues repeated with a
        # jitter of 1e-10, which the grouped form replaced by the group mean
        rng = np.random.default_rng(6)

        def draw(n):
            base = rng.uniform(-6.9, 6.9, (n + 1) // 2)
            jitter = rng.uniform(-1e-10, 1e-10, n // 2)
            return np.exp(np.concatenate((base, base[:n // 2] + jitter)))
        assert self.worst_gap(rng, draw) <= 1e-10


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
