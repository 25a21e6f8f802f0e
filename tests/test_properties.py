"""Property tests of the spectral layer on rank-deficient, graded and
1e+-100-scaled matrices, and of the homogeneity of the Schatten norm, the
polar factors and the degree-0 ratios at scales near 1e+-150.

Hypothesis draws the structure (dimension, kind, scale, exponents) and a
seed for numpy, which fills in the entries.  The runs are derandomized, so
every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenlab.kernels import TMapParams, t_map
from schattenlab.matcore import (NumericalError, PositiveDefiniteMatrix,
                                 ValidationError, polar_decompose)
from schattenlab.mazur import (eq1_ratio, interp_corollary_ratio, main_ratio,
                               mazur_lipschitz_ratio, mazur_map, tmap_ratio)
from schattenlab.schatten import ZERO_CUT, ExponentConfig, schatten_norm
from schattenlab.strip import AnalyticFamily, BoundaryGridCache, convexity_defect

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None,
                    database=None)

SCALES = (1e-100, 1.0, 1e100)


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def structured(rng, n, kind, scale):
    """A random n x n matrix of the given kind, times scale."""
    if kind == "rank-deficient":
        r = int(rng.integers(0, n))
        b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        c = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        a = b @ c.conj().T
    elif kind == "graded":
        # sigma_max = 1, the rest down to 1e-12
        sig = 10.0 ** -np.append(0, rng.integers(0, 13, n - 1)).astype(float)
        a = (haar_unitary(rng, n) * sig) @ haar_unitary(rng, n).conj().T
    else:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * a


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("full", "rank-deficient", "graded")))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return structured(rng, n, kind, scale)


@PROPERTY
@given(matrices())
def test_polar_factors(a):
    u, p = polar_decompose(a)
    n = a.shape[0]
    top = np.abs(a).max()
    assert np.abs(u @ p - a).max() <= 1e-12 * n * top
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12 * n
    assert np.abs(p - p.conj().T).max() <= 1e-12 * n * top
    assert np.linalg.eigvalsh(p).min() >= -1e-12 * n * top


# the powers of two nearest 1e+-150, so that c A is exact and the test sees
# the program's own scaling: a decimal c rounds each entry of A by up to
# eps/2, which by itself moves a 1e-12 singular value by about 1e-4
# relative and the p = 0.3 quasinorm by about 2e-8
EXTREME = (2.0 ** 498, 2.0 ** -498)


@PROPERTY
@given(st.integers(1, 6), st.sampled_from(("rank-deficient", "graded")),
       st.sampled_from(EXTREME), st.sampled_from((0.3, 0.5, 1.0, 2.0, math.inf)),
       st.integers(0, 2 ** 32 - 1))
def test_schatten_norm_is_homogeneous_at_extreme_scales(n, kind, c, p, seed):
    # graded: sigma from 1e-12 to 1; LAPACK rescales c A by an inexact
    # factor unless matcore's SVD first scales it by a power of two
    a = structured(np.random.default_rng(seed), n, kind, 1.0)
    want = c * schatten_norm(a, p)
    assert abs(schatten_norm(c * a, p) - want) <= 1e-13 * want


@PROPERTY
@given(matrices(), st.sampled_from(EXTREME))
def test_polar_factors_are_homogeneous_at_extreme_scales(a, c):
    # U of c A is U of A, and P of c A is c P, bit for bit: both come from
    # one SVD, which scales by a power of two, not by LAPACK's inexact factor
    u, p = polar_decompose(a)
    uc, pc = polar_decompose(c * a)
    assert np.array_equal(uc, u)
    assert np.array_equal(pc, c * p)


def outcome(ratio, *args):
    """ratio(*args), or the class of the error it raises."""
    try:
        return ratio(*args)
    except (ValidationError, NumericalError) as exc:
        return type(exc)


def agree(got, want):
    if isinstance(want, type):
        return got is want
    return got == want or abs(got - want) <= 1e-13 * abs(want)


@PROPERTY
@given(st.integers(1, 6), st.sampled_from(("rank-deficient", "graded")),
       st.sampled_from((0.5, 1.0, 2.0)), st.sampled_from((0.5, 2.0, math.inf)),
       st.integers(0, 2 ** 32 - 1))
def test_degree_zero_ratios_are_homogeneous_at_extreme_scales(n, kind, s, r, seed):
    # every ratio below is unchanged when x, or x and y together, are
    # scaled; c = 2^498 puts c x where LAPACK would rescale inexactly (2^450
    # would not) and keeps the Mazur map's |c x|^1.5 finite.  The defect
    # squares norms of c x, so x has sigma_max <= 1 and d's spectrum lies
    # in [1/e, e], which keeps them finite
    rng = np.random.default_rng(seed)
    d = PositiveDefiniteMatrix.from_spectral(np.exp(rng.uniform(-1, 1, n)),
                                             haar_unitary(rng, n))
    x, y = (a / max(np.linalg.norm(a, 2), 1.0)
            for a in (structured(rng, n, kind, 1.0) for _ in range(2)))
    cfg = ExponentConfig(1.0 / s, s, r)
    params = TMapParams(0.5 / s, 0.5)
    ratios = [lambda x: main_ratio(d, x, cfg),
              lambda x: interp_corollary_ratio(d, x, 0.5, s, r),
              lambda x: eq1_ratio(d, x, 2.0 * s, s, +1),
              lambda x: eq1_ratio(d, x, 2.0 * s, s, -1),
              lambda x: tmap_ratio(d, x, params, s, r)]
    if n > 1:
        # a dim-1 family is constant, which convexity_defect refuses by an
        # absolute test (dev <= 1e-12) that rounding passes at c x but not
        # at x: a known floor (ROADMAP item 8), not the SVD's scaling
        ratios.append(lambda x: convexity_defect(
            BoundaryGridCache(AnalyticFamily(d, x, 1.0 / s), 0.5), 0.5))
    c = 2.0 ** 498
    for ratio in ratios:
        assert agree(outcome(ratio, c * x), outcome(ratio, x))
    for variant in ("mazur", "abs-power"):
        want = outcome(mazur_lipschitz_ratio, x, y, 1.5 * s, s, variant)
        got = outcome(mazur_lipschitz_ratio, c * x, c * y, 1.5 * s, s, variant)
        assert agree(got, want)


@PROPERTY
@given(matrices(), st.floats(0.4, 3.0), st.floats(1.0 / 3.0, 0.99))
def test_mazur_map_moves_p_norm_to_q_norm(f, p, ratio):
    # ||M_{p,q}(f)||_q^q = ||f||_p^p for 0 < q < p; p/q <= 3 keeps
    # |f|^(p/q) representable at scales 1e+-100
    q = ratio * p
    lhs = schatten_norm(mazur_map(f, p, q), q) ** q
    rhs = schatten_norm(f, p) ** p
    assert abs(lhs - rhs) <= 1e-9 * rhs + zero_cut_share(f, p, q)


def zero_cut_share(f, p, q):
    """Most that the q-quasinorm of M_{p,q}(f) can lose to ZERO_CUT.

    For q < 1 the norm drops singular values below ZERO_CUT sigma_max; each
    dropped sigma_i^(p/q) of M_{p,q}(f) held at most ZERO_CUT^q sigma_max(f)^p
    of its q-th power.
    """
    if q >= 1.0:
        return 0.0
    return f.shape[0] * ZERO_CUT ** q * np.linalg.norm(f, 2) ** p


def test_mazur_identity_below_the_zero_cut():
    # shrunk counterexample of the property with the ZERO_CUT term left out:
    # M_{1,1/2} squares sigma = 1e-111, which ends 1e-16 below sigma_max(M)
    # and is dropped, so the identity misses sigma^p = 1e-111 of 1.001e-103
    rng = np.random.default_rng(7)
    sig = np.array([1e-103, 1e-106, 1e-108, 1e-111])
    f = (haar_unitary(rng, 4) * sig) @ haar_unitary(rng, 4).conj().T
    lhs = schatten_norm(mazur_map(f, 1.0, 0.5), 0.5) ** 0.5
    assert abs(lhs - (sig.sum() - 1e-111)) <= 1e-9 * sig.sum()
    assert abs(lhs - sig.sum()) <= zero_cut_share(f, 1.0, 0.5)


class TestMazurMapOutsideNormalRange:
    """Shrunk counterexamples of the property above, from before it kept
    |f|^(p/q) inside the normal double range."""

    F = 1.25730221 - 1.32104863j

    def test_overflow_is_refused(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="overflows"):
            mazur_map(np.array([[self.F * 1e99]]), 1.0, 0.25)

    def test_underflow_rounds_to_zero(self):
        # |f|^4 is about 3e-402, below the smallest subnormal double
        m = mazur_map(np.array([[self.F * 1e-101]]), 1.0, 0.25).mat
        assert np.all(m == 0.0)

    def test_subnormal_result_keeps_its_absolute_accuracy(self):
        # |f|^(1/0.34375) is about 1e-323, a few subnormal spacings
        f = -9.99949583e-112 - 1.00414987e-113j
        m = mazur_map(np.array([[f]]), 1.0, 0.34375).mat
        assert abs(abs(m[0, 0]) - abs(f) ** (1.0 / 0.34375)) <= 2 * 5e-324


def naive_t_map(lam, vectors, params, delta):
    """sum_ij k_ij P_i delta P_j over the distinct eigenvalues lam_i."""
    beta, gamma = params.beta, params.gamma
    values = np.unique(lam)
    projections = [vectors[:, lam == v] @ vectors[:, lam == v].conj().T
                   for v in values]
    out = np.zeros_like(delta)
    for a, pa in zip(values, projections):
        for b, pb in zip(values, projections):
            k = gamma * a ** (gamma - 1.0) if a == b \
                else (a ** gamma - b ** gamma) / (a - b)
            out += k * a ** beta * b ** beta * (pa @ delta @ pb)
    return out


@PROPERTY
@given(matrices(), st.sampled_from(SCALES), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0), st.floats(0.05, 0.95))
def test_t_map_matches_naive_sum(delta, d_scale, seed, beta, gamma):
    rng = np.random.default_rng(seed)
    n = delta.shape[0]
    # a continuous graded spectrum over twelve decades, with exact repeats
    lam = rng.choice(d_scale * 10.0 ** -rng.uniform(0, 12, rng.integers(1, n + 1)), n)
    vectors = haar_unitary(rng, n)
    d = PositiveDefiniteMatrix.from_spectral(lam, vectors)
    params = TMapParams(beta, gamma)
    got = t_map(d, params, delta).mat
    # from_spectral sorts the spectrum; the naive sum takes it as drawn
    want = naive_t_map(lam, vectors, params, delta)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
