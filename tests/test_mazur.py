import math

import numpy as np
import pytest

from schattenlab.matcore import (HermitianMatrix, PositiveDefiniteMatrix,
                                 ValidationError, imaginary_power,
                                 positive_power)
from schattenlab.mazur import (COINCIDENT_TOL, decomposition_residual, eq1_ratio,
                               interp_corollary_ratio, main_ratio,
                               mazur_lipschitz_ratio, mazur_map,
                               powers_diff_ratio, tmap_ratio)
from schattenlab.kernels import TMapParams, rx_kernel
from schattenlab.schatten import ExponentConfig, schatten_norm
from schattenlab.strip import AnalyticFamily

RNG = np.random.default_rng(40318)


def rand_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def rand_pdm(n, spread=2.0):
    lam = np.exp(RNG.uniform(-spread, spread, n))
    q, _ = np.linalg.qr(rand_complex(n))
    return PositiveDefiniteMatrix.from_spectral(lam, q)


class TestMazurMap:
    def test_identity_when_p_equals_q(self):
        f = rand_complex(4)
        assert np.abs(mazur_map(f, 1.5, 1.5).mat - f).max() <= 1e-10

    def test_sphere_to_sphere(self):
        f = rand_complex(5)
        f = f / schatten_norm(f, 2.0)
        img = mazur_map(f, 2.0, 0.5)
        assert abs(schatten_norm(img, 0.5) - 1.0) <= 1e-9

    def test_positive_input_is_power(self):
        d = rand_pdm(4, spread=1.0)
        img = mazur_map(d.mat, 2.0, 1.0).mat
        ref = (d.spectral.vectors * d.spectral.eigenvalues ** 2) \
            @ d.spectral.vectors.conj().T
        assert np.abs(img - ref).max() <= 1e-9

    def test_scalar_oracle(self):
        # one-dimensional case: z |z|^(p/q - 1)
        z = 1.3 - 0.7j
        img = mazur_map(np.array([[z]]), 3.0, 1.0).mat[0, 0]
        assert abs(img - z * abs(z) ** 2) <= 1e-12

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValidationError):
            mazur_map(rand_complex(2), -1.0, 0.5)


class TestRatioObjectives:
    def test_main_ratio_positive_and_finite(self):
        cfg = ExponentConfig(alpha=1.0, s=4.0 / 3.0, r=math.inf)
        for _ in range(10):
            val = main_ratio(rand_pdm(4), rand_complex(4), cfg)
            assert 0 < val < 100

    def test_main_ratio_commuting_oracle(self):
        # d = I: numerator ||x||_q, denominator n^(alpha/s) * 2 ||x||_p
        cfg = ExponentConfig(alpha=1.0, s=2.0, r=math.inf)
        n = 3
        d = PositiveDefiniteMatrix(np.eye(n, dtype=complex))
        x = rand_complex(n)
        val = main_ratio(d, x, cfg)
        expect = schatten_norm(x, cfg.q) / (n ** 0.5 * 2 * schatten_norm(x, cfg.p))
        assert abs(val - expect) <= 1e-10 * expect

    def test_eq1_scalar_case(self):
        # 1x1 matrices: ratio is |x| 2 d^(p/q) / (2 |x| d * d^(p/q-1)) = 1
        d = PositiveDefiniteMatrix(np.array([[2.0 + 0j]]))
        x = np.array([[0.3 + 1j]])
        assert abs(eq1_ratio(d, x, 1.0, 0.5, +1) - 1.0) <= 1e-12

    def test_eq1_minus_commuting_sentinel(self):
        # x = d kills the denominator exactly while rounding leaves a tiny
        # numerator: the near-kernel sentinel fires instead of a blow-up
        d = rand_pdm(3)
        val = eq1_ratio(d, d.mat.copy(), 1.0, 0.5, -1)
        assert val == 0.0 or math.isinf(val)

    def test_eq1_rejects_bad_exponents(self):
        with pytest.raises(ValidationError):
            eq1_ratio(rand_pdm(2), rand_complex(2), 0.5, 1.0, +1)
        with pytest.raises(ValidationError):
            eq1_ratio(rand_pdm(2), rand_complex(2), 1.0, 0.5, 2)

    def test_interp_ratio_finite(self):
        for _ in range(10):
            val = interp_corollary_ratio(rand_pdm(4), rand_complex(4),
                                         0.3, 0.5, math.inf)
            assert 0 < val < 100

    def test_powers_diff_scalar_oracle(self):
        # scalars a, b: |a^2 - b^2| / (max(a,b) |a - b|) with p=1, q=1/2
        a, b = 3.0, 1.0
        x = PositiveDefiniteMatrix(np.array([[a + 0j]]))
        y = PositiveDefiniteMatrix(np.array([[b + 0j]]))
        val = powers_diff_ratio(x, y, 1.0, 0.5)
        assert abs(val - (a * a - b * b) / (a * (a - b))) <= 1e-12

    def test_powers_diff_symmetry(self):
        x, y = rand_pdm(4), rand_pdm(4)
        assert abs(powers_diff_ratio(x, y, 1.0, 0.5)
                   - powers_diff_ratio(y, x, 1.0, 0.5)) <= 1e-10

    def test_mazur_lipschitz_variants_agree_on_positives(self):
        x, y = rand_pdm(4, spread=1.0), rand_pdm(4, spread=1.0)
        a = mazur_lipschitz_ratio(x.mat, y.mat, 2.0, 0.5, variant="mazur")
        b = mazur_lipschitz_ratio(x.mat, y.mat, 2.0, 0.5, variant="abs-power")
        assert abs(a - b) <= 1e-8 * max(a, b)

    def test_sentinel_on_identical_pair(self):
        x = rand_complex(3)
        assert mazur_lipschitz_ratio(x, x.copy(), 2.0, 0.5) == 0.0

    @pytest.mark.parametrize("ratio", ["mazur", "abs-power", "powers-diff"])
    def test_near_coincident_pair_is_one_point(self, ratio):
        # pairs within COINCIDENT_TOL in every entry count as one point, in
        # the public functions as in the search
        rng = np.random.default_rng(41)
        if ratio == "powers-diff":
            lam = np.exp(rng.uniform(-0.5, 0.5, 3))
            u, _ = np.linalg.qr(rng.standard_normal((3, 3))
                                + 1j * rng.standard_normal((3, 3)))
            x = PositiveDefiniteMatrix.from_spectral(lam, u)
            y = PositiveDefiniteMatrix.from_spectral(lam * (1.0 + 1e-15), u)
            assert 0.0 < np.abs(x.mat - y.mat).max() < COINCIDENT_TOL
            assert powers_diff_ratio(x, y, 1.0, 2 / 3) == 0.0
        else:
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = x.copy()
            y[0, 1] += 4e-15
            assert mazur_lipschitz_ratio(x, y, 2.0, 0.5, ratio) == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            mazur_lipschitz_ratio(rand_complex(2), rand_complex(2), 2.0, 0.5,
                                  variant="nope")


# points the search's evaluator builders refuse, matrices of two sizes and an
# indefinite d: each public function refuses them too, with a ValidationError
PRECONDITION_CASES = {
    "eq1-p-inf": lambda d3, x3, x4: eq1_ratio(d3, x3, math.inf, 1.0, +1),
    "powers-diff-p-inf": lambda d3, x3, x4: powers_diff_ratio(d3, d3, math.inf, 1.0),
    "abs-power-p-inf": lambda d3, x3, x4: mazur_lipschitz_ratio(
        x3, x3 + 1.0, math.inf, 1.0, "abs-power"),
    "rx-kernel-alpha-inf": lambda d3, x3, x4: rx_kernel(np.array([1.0, 2.0]),
                                                        math.inf),
    "family-alpha-inf": lambda d3, x3, x4: AnalyticFamily(d3, x3, math.inf),
    "interp-dims": lambda d3, x3, x4: interp_corollary_ratio(d3, x4, 0.5, 2.0, 2.0),
    "eq1-dims": lambda d3, x3, x4: eq1_ratio(d3, x4, 2.0, 1.0, +1),
    "powers-diff-dims": lambda d3, x3, x4: powers_diff_ratio(
        d3, PositiveDefiniteMatrix(np.eye(4, dtype=complex)), 2.0, 1.0),
    "mazur-lipschitz-dims": lambda d3, x3, x4: mazur_lipschitz_ratio(x3, x4, 2.0, 1.0),
    "family-dims": lambda d3, x3, x4: AnalyticFamily(d3, x4, 1.0),
    "tmap-dims": lambda d3, x3, x4: tmap_ratio(d3, x4, TMapParams(0.3, 0.7),
                                               1.0, math.inf),
    "tmap-exponents-inf": lambda d3, x3, x4: tmap_ratio(
        d3, x3, TMapParams(0.3, 0.7), math.inf, math.inf),
    "main-indefinite": lambda d3, x3, x4: main_ratio(
        HermitianMatrix(np.diag([1.0, -1.0, 2.0]).astype(complex)), x3,
        ExponentConfig(alpha=1.0, s=2.0, r=math.inf)),
}


@pytest.mark.parametrize("case", sorted(PRECONDITION_CASES))
def test_public_functions_refuse_what_the_search_refuses(case):
    with pytest.raises(ValidationError):
        PRECONDITION_CASES[case](rand_pdm(3), rand_complex(3), rand_complex(4))


class TestDecomposition:
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.45])
    def test_identity_and_block_agreement(self, t):
        x, y = rand_pdm(4), rand_pdm(4)
        res, gap = decomposition_residual(x, y, t)
        scale = max(schatten_norm(x.mat, math.inf),
                    schatten_norm(y.mat, math.inf)) ** (1 + t)
        assert res <= 1e-9 * scale
        assert gap <= 1e-9 * scale

    def test_identical_pair(self):
        x = rand_pdm(3)
        res, gap = decomposition_residual(x, PositiveDefiniteMatrix(x.mat.copy()), 0.3)
        assert res <= 1e-10
        assert gap <= 1e-10

    def test_rejects_t_out_of_range(self):
        x, y = rand_pdm(2), rand_pdm(2)
        with pytest.raises(ValidationError):
            decomposition_residual(x, y, 0.6)


NEAR_SINGULAR_CASES = {
    "main": lambda d, x: main_ratio(d, x, ExponentConfig(1.0, 4.0 / 3.0, math.inf)),
    "interp": lambda d, x: interp_corollary_ratio(d, x, 0.3, 0.5, math.inf),
    "eq1-plus": lambda d, x: eq1_ratio(d, x, 1.0, 0.5, +1),
    "eq1-minus": lambda d, x: eq1_ratio(d, x, 1.0, 0.5, -1),
    "tmap": lambda d, x: tmap_ratio(d, x, TMapParams(0.3, 0.7), 1.0, math.inf),
    "family": lambda d, x: AnalyticFamily(d, x, 1.0),
    "matrix-class": lambda d, x: PositiveDefiniteMatrix(d.mat),
    "positive-power": lambda d, x: positive_power(d, 0.5),
    "imaginary-power": lambda d, x: imaginary_power(d, 0.5),
}


@pytest.mark.parametrize("case", sorted(NEAR_SINGULAR_CASES))
def test_near_singular_d_is_refused_by_the_one_positivity_rule(case):
    # min eig 1e-14 is positive but below 1e-12 * max eig: every entry point
    # refuses the d that PositiveDefiniteMatrix refuses, with its message
    d = HermitianMatrix(np.diag([1.0, 1e-14]).astype(complex))
    x = np.array([[1.0, 2.0 - 1.0j], [0.5j, -1.0]])
    with pytest.raises(ValidationError, match="positive definite"):
        NEAR_SINGULAR_CASES[case](d, x)
