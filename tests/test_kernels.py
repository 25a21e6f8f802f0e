import math

import numpy as np
import pytest

from schattenlab.kernels import (CLUSTER_TOL, DEGENERATE_GAP, TMapParams,
                                 _group_spectrum, _schur_apply,
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


def test_schur_apply_expands_the_kernel_per_group_pair():
    # ragged groups on both sides; the kernel expanded one group pair at a
    # time must give the same bits
    q1, _ = np.linalg.qr(rand_complex(6))
    q2, _ = np.linalg.qr(rand_complex(6))
    sl = herm_eig(PositiveDefiniteMatrix.from_spectral(
        np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]), q1))
    sr = herm_eig(PositiveDefiniteMatrix.from_spectral(
        np.array([0.5, 4.0, 4.0, 4.0, 4.0, 7.0]), q2))
    (gl, rows), (gr, cols) = group_spectrum(sl), group_spectrum(sr)
    assert np.bincount(rows).tolist() == [3, 1, 2]
    assert np.bincount(cols).tolist() == [1, 4, 1]
    kernel = RNG.uniform(0.5, 2.0, (len(gl), len(gr)))
    delta = rand_complex(6)
    k = np.empty((6, 6))
    for gi in range(len(gl)):
        for gj in range(len(gr)):
            k[np.ix_(rows == gi, cols == gj)] = kernel[gi, gj]
    vl, vr = sl.vectors, sr.vectors
    want = vl @ (k * (vl.conj().T @ delta @ vr)) @ vr.conj().T
    assert np.array_equal(_schur_apply(vl, rows, vr, cols, kernel, delta), want)


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
