import math

import numpy as np
import pytest

from schattenlab.matcore import NumericalError, ValidationError
from schattenlab.schatten import (ZERO_CUT, ExponentConfig, _exponents,
                                  _power_sum_norm, _power_sum_norms,
                                  schatten_norm, singular_values)

RNG = np.random.default_rng(515)


def rand_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


class TestSingularValues:
    def test_descending(self):
        sig = singular_values(rand_complex(7))
        assert np.all(np.diff(sig) <= 0)

    def test_diagonal_oracle(self):
        m = np.diag([3.0, -1.0, 0.5]).astype(complex)
        sig = singular_values(m)
        assert np.abs(sig - [3.0, 1.0, 0.5]).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
    def test_rank_one_quasinorm(self, n, p):
        # u v* has the single nonzero singular value |u| |v|, so every
        # Schatten p-norm equals it; a floor of noise singular values would
        # inflate the p < 1 quasinorms
        u = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        v = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        exact = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(schatten_norm(np.outer(u, v.conj()), p) - exact) <= 1e-12 * exact

    def test_graded_singular_values(self):
        # rounding U diag(sig) V* already moves sig_min by about n eps sig_max,
        # which is 7e-6 relative for sig_min = 1e-10 at n = 3
        sig = np.array([1.0, 1e-4, 1e-10])
        u, _ = np.linalg.qr(rand_complex(3))
        v, _ = np.linalg.qr(rand_complex(3))
        got = singular_values((u * sig) @ v.conj().T)
        assert np.all(np.abs(got - sig) <= 1e-5 * sig)

    def test_non_finite_input_raises(self):
        a = rand_complex(3)
        a[1, 2] = np.nan
        with pytest.raises(NumericalError):
            singular_values(a)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3,), (2, 3, 3)])
    @pytest.mark.parametrize("call", [singular_values, lambda a: schatten_norm(a, 1.0)],
                             ids=["singular_values", "schatten_norm"])
    def test_malformed_input_is_refused(self, shape, call):
        # a rectangular matrix stays accepted; an empty one, a vector and a
        # stack are refused as input errors, not numerical failures
        assert singular_values(np.ones((2, 3))).shape == (2,)
        with pytest.raises(ValidationError, match="non-empty matrix"):
            call(np.ones(shape, complex))


class TestNormValues:
    def test_known_diagonal(self):
        # diag(1, 2): p=1 -> 3, p=2 -> sqrt(5), p=inf -> 2, p=1/2 -> (1+sqrt 2)^2
        m = np.diag([1.0, 2.0]).astype(complex)
        assert abs(schatten_norm(m, 1) - 3.0) <= 1e-13
        assert abs(schatten_norm(m, 2) - math.sqrt(5)) <= 1e-13
        assert abs(schatten_norm(m, math.inf) - 2.0) <= 1e-13
        assert abs(schatten_norm(m, 0.5) - (1 + math.sqrt(2)) ** 2) <= 1e-12

    def test_zero_matrix(self):
        z = np.zeros((3, 3), dtype=complex)
        for p in (0.3, 1, 2, math.inf):
            assert schatten_norm(z, p) == 0.0

    def test_extreme_scale_no_overflow(self):
        m = 1e150 * np.diag([1.0, 0.5]).astype(complex)
        val = schatten_norm(m, 0.25)
        assert math.isfinite(val)
        assert abs(val / 1e150 - (1 + 0.5 ** 0.25) ** 4) <= 1e-10

    def test_tiny_scale_no_underflow(self):
        m = 1e-150 * np.diag([1.0, 0.5]).astype(complex)
        val = schatten_norm(m, 0.25)
        assert val > 0

    def test_zero_cut_for_quasinorm(self):
        # a hard zero singular value must not contribute under p < 1
        m = np.diag([1.0, 0.0]).astype(complex)
        assert abs(schatten_norm(m, 0.5) - 1.0) <= 1e-13

    def test_small_exponent_overflow_is_a_numerical_error(self):
        # ||I_4||_p = 4^(1/p) is 4^1000 at p = 0.001, past the float range
        with pytest.raises(NumericalError, match="p = 0.001"):
            schatten_norm(np.eye(4), 0.001)
        with pytest.raises(NumericalError, match="p = 0.001"):
            _power_sum_norm(np.ones(4), 0.001)
        with pytest.raises(NumericalError, match="p = 0.001"):
            _power_sum_norms(np.array([[1.0, 0.5, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]), 0.001)
        # just inside the range the value is the plain formula's
        assert schatten_norm(np.eye(4), 0.002) == 4.0 ** (1.0 / 0.002)
        assert _power_sum_norms(np.ones((2, 4)), 0.002).tolist() == [4.0 ** (1.0 / 0.002)] * 2

    def test_invalid_exponent(self):
        for p in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="Schatten exponent"):
                schatten_norm(np.diag([3.0, 1.0]).astype(complex), p)


def descending_rows(rng, m, n):
    """m descending rows of length n: graded rows spanning up to 40 decades
    at scales 1e-150 to 1e150, rows whose tail is cut at 1e-20 of their
    largest entry or at exactly ZERO_CUT, and all-zero rows."""
    rows = np.exp(rng.uniform(-92.0, 0.0, (m, n))) * 10.0 ** rng.uniform(-150, 150, (m, 1))
    for i in range(m // 4, m // 2):
        k = int(rng.integers(1, n + 1))
        rows[i, k:] = 1e-20 * rows[i].max() * rng.uniform(0.0, 1.0, n - k)
    rows[m // 2, 1:] = ZERO_CUT * rows[m // 2].max()
    rows[-3:] = 0.0
    return -np.sort(-rows, axis=1)


def four_line_norm(sig, p):
    """The row norm as first written: numpy scalars throughout, ending in a
    numpy scalar's ** (libm's pow)."""
    smax = sig[0]
    if smax == 0.0:
        return 0.0
    if math.isinf(p):
        return float(smax)
    scaled = sig / smax
    if p < 1.0:
        scaled = scaled[scaled > ZERO_CUT]
    return float(smax * (scaled ** p).sum() ** (1.0 / p))


class TestRowNorm:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_equals_the_four_line_formula(self, n):
        # graded, cut and zero rows; at 1/p = 1.5 and 3.33 an array ** would
        # differ from the scalar one in the last bit on several rows
        rows = descending_rows(np.random.default_rng(1000 + n), 48, n)
        for p in (0.3, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, math.inf):
            assert [_power_sum_norm(r, p) for r in rows] \
                == [four_line_norm(r, p) for r in rows]


class TestStackedNorm:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_equals_the_row_norm_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        rows = descending_rows(rng, 24, n)
        for p in (0.3, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, math.inf):
            want = [_power_sum_norm(r, p) for r in rows]
            assert _power_sum_norms(rows, p).tolist() == want
            # a leading stack shape, and a stack of one row
            assert _power_sum_norms(rows.reshape(2, 12, n), p).ravel().tolist() == want
            assert _power_sum_norms(rows[:1], p).tolist() == want[:1]

    def test_keeps_the_leading_shape(self):
        rows = descending_rows(np.random.default_rng(0), 12, 3).reshape(2, 2, 3, 3)
        assert _power_sum_norms(rows, 0.5).shape == (2, 2, 3)


class TestNormProperties:
    def test_homogeneity(self):
        a = rand_complex(5)
        for p in (0.4, 1.0, 2.5, math.inf):
            assert abs(schatten_norm(3.5 * a, p) - 3.5 * schatten_norm(a, p)) \
                <= 1e-10 * schatten_norm(a, p)

    def test_p_triangle_quasinorm(self):
        for _ in range(25):
            p = RNG.uniform(0.2, 1.0)
            a, b = rand_complex(4), rand_complex(4)
            lhs = schatten_norm(a + b, p) ** p
            assert lhs <= schatten_norm(a, p) ** p + schatten_norm(b, p) ** p + 1e-9

    def test_triangle_norm(self):
        for _ in range(25):
            p = RNG.uniform(1.0, 5.0)
            a, b = rand_complex(4), rand_complex(4)
            assert schatten_norm(a + b, p) \
                <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-9

    def test_monotone_in_p(self):
        # p -> ||a||_p is non-increasing
        a = rand_complex(6)
        ps = [0.3, 0.5, 1.0, 2.0, 4.0, math.inf]
        vals = [schatten_norm(a, p) for p in ps]
        assert all(x >= y - 1e-10 for x, y in zip(vals, vals[1:]))

    def test_hoelder(self):
        for _ in range(20):
            s = RNG.uniform(0.5, 3.0)
            r = RNG.uniform(0.5, 3.0)
            p = 1.0 / (1.0 / s + 1.0 / r)
            a, b = rand_complex(5), rand_complex(5)
            assert schatten_norm(a @ b, p) \
                <= schatten_norm(a, s) * schatten_norm(b, r) * (1 + 1e-10)

    def test_adjoint_invariance(self):
        a = rand_complex(5)
        for p in (0.5, 1.7):
            assert abs(schatten_norm(a.conj().T, p) - schatten_norm(a, p)) \
                <= 1e-10 * schatten_norm(a, p)


class TestExponentConfig:
    def test_derived_exponents(self):
        cfg = ExponentConfig(alpha=1.0, s=4.0 / 3.0, r=math.inf)
        assert abs(cfg.p - 4.0 / 3.0) <= 1e-14
        assert abs(cfg.q - 2.0 / 3.0) <= 1e-14
        assert abs(cfg.gamma - 0.5) <= 1e-14

    def test_finite_r(self):
        cfg = ExponentConfig(alpha=0.5, s=1.0, r=2.0)
        assert abs(1.0 / cfg.p - 1.5) <= 1e-14
        assert abs(1.0 / cfg.q - (1.5 / 1.0 + 0.5)) <= 1e-14

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            ExponentConfig(alpha=0.0, s=1.0, r=math.inf)

    def test_rejects_bad_s(self):
        with pytest.raises(ValidationError):
            ExponentConfig(alpha=1.0, s=-2.0, r=math.inf)

    def test_frozen(self):
        cfg = ExponentConfig(alpha=1.0, s=1.0, r=math.inf)
        with pytest.raises(Exception):
            cfg.alpha = 2.0


class TestExponentHelper:
    S_VALUES = (0.1, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 2.0, 7.3, 1e300, math.inf)
    R_VALUES = (0.3, 1.0, 1.0 / 3.0, 2.0, 5.5, 1e300, math.inf)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.5, -0.4])
    def test_matches_inline_formulas_bitwise(self, alpha):
        for s in self.S_VALUES:
            for r in self.R_VALUES:
                if math.isinf(s) and math.isinf(r):
                    continue
                inv_r = 0.0 if math.isinf(r) else 1.0 / r
                p, q = _exponents(s, r, alpha)
                assert p == 1.0 / (1.0 / s + inv_r)
                assert q == 1.0 / ((1.0 + alpha) / s + inv_r)

    def test_exponent_config_uses_it(self):
        cfg = ExponentConfig(alpha=0.7, s=1.3, r=2.9)
        assert (cfg.p, cfg.q) == _exponents(1.3, 2.9, 0.7)

    @pytest.mark.parametrize("s, r, alpha", [
        (0.0, 1.0, 1.0), (-1.0, math.inf, 1.0), (1.0, 0.0, 1.0),
        (1.0, -2.0, 1.0), (1.0, -math.inf, 1.0), (math.nan, 1.0, 1.0),
        (1.0, math.nan, 1.0), (1.0, 1.0, math.nan), (math.inf, math.inf, 1.0),
        (1.0, math.inf, math.inf), (math.inf, 2.0, math.inf),
        (1.0, math.inf, -1.0), (1.0, math.inf, -3.0),
    ])
    def test_rejects(self, s, r, alpha):
        with pytest.raises(ValidationError):
            _exponents(s, r, alpha)
