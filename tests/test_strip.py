import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenlab import cli, estimator, strip
from schattenlab.matcore import (NumericalError, PositiveDefiniteMatrix,
                                 ValidationError, herm_eig)
from schattenlab.schatten import _power_sum_norm, schatten_norm, singular_values
from schattenlab.strip import (AnalyticFamily, BoundaryGridCache, BoundarySet,
                               boundary_measure, boundary_norm_profile,
                               convexity_defect, cosh_measure, dilate,
                               doubling_bound, doubling_ratio, family_eval,
                               poisson_density)

RNG = np.random.default_rng(9090)


def rand_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def rand_pdm(n, spread=1.5):
    lam = np.exp(RNG.uniform(-spread, spread, n))
    q, _ = np.linalg.qr(rand_complex(n))
    return PositiveDefiniteMatrix.from_spectral(lam, q)


class TestBoundarySet:
    def test_merges_overlaps(self):
        a = BoundarySet(((0.0, 1.0), (0.5, 2.0), (3.0, 4.0)), ())
        assert a.intervals0 == ((0.0, 2.0), (3.0, 4.0))

    def test_rejects_reversed(self):
        with pytest.raises(ValidationError):
            BoundarySet(((1.0, 0.0),), ())

    def test_rejects_infinite_endpoint(self):
        with pytest.raises(ValidationError):
            BoundarySet(((0.0, math.inf),), ())

    def test_merges_touching(self):
        a = BoundarySet(((0.0, 1.0), (1.0, 2.0)), ())
        assert a.intervals0 == ((0.0, 2.0),)

    def test_contained_interval_does_not_shrink(self):
        a = BoundarySet(((0.0, 5.0), (1.0, 2.0)), ((1.0, 2.0), (0.0, 5.0)))
        assert a.intervals0 == a.intervals1 == ((0.0, 5.0),)

    def test_unsorted_mixed_pairs(self):
        a = BoundarySet(([np.float64(3.0), 4], (np.float32(0.5), 1.0),
                         np.array([-2.0, -1.0])), ())
        assert a.intervals0 == ((-2.0, -1.0), (0.5, 1.0), (3.0, 4.0))
        assert all(type(x) is float for iv in a.intervals0 for x in iv)

    def test_rejects_nan_endpoint(self):
        with pytest.raises(ValidationError):
            BoundarySet(((0.0, 1.0), (math.nan, 2.0)), ())
        with pytest.raises(ValidationError):
            BoundarySet((), ((0.0, math.nan),))

    def test_rejects_bad_interval_after_valid_ones(self):
        valid = ((0.0, 1.0), (0.5, 2.0), (3.0, 4.0))
        # the last two start inside a valid interval, where a merge step
        # taken before the check would swallow them
        for bad in ((6.0, 5.0), (5.0, math.inf), (4.5, math.nan),
                    (3.5, 3.2), (3.5, math.inf)):
            with pytest.raises(ValidationError):
                BoundarySet(valid + (bad,), ())
        with pytest.raises(ValidationError):
            BoundarySet((), valid + ((10.0, 9.0),))

    def test_dilate(self):
        a = BoundarySet(((-1.0, 2.0),), ((0.5, 1.0),))
        b = dilate(a)
        assert b.intervals0 == ((-2.0, 4.0),)
        assert b.intervals1 == ((1.0, 2.0),)

    def test_dilate_equals_the_set_of_doubled_intervals(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            lines = []
            for _ in (0, 1):
                m = int(rng.integers(0, 6))
                scale = 10.0 ** rng.uniform(-3, 300, m)
                a = rng.uniform(-1, 1, m) * scale
                lines.append(tuple(zip(a, a + rng.uniform(0, 1, m) * scale)))
            aset = BoundarySet(*lines)
            want = BoundarySet(tuple((2 * a, 2 * b) for a, b in aset.intervals0),
                               tuple((2 * a, 2 * b) for a, b in aset.intervals1))
            assert dilate(aset) == want

    def test_dilate_rejects_an_endpoint_doubled_past_the_float_range(self):
        for bad in (BoundarySet(((0.0, 1.0), (2.0, 9e307)), ()),
                    BoundarySet((), ((-9e307, -1.0), (0.0, 1.0))),
                    BoundarySet(((-1.7e308, 1.7e308),), ())):
            with pytest.raises(ValidationError):
                dilate(bad)


def merged_rows(rows):
    """strip._merge_rows of rows of three (a, b, used) slots, as one tuple
    of (a, b) float pairs per row, as _merge returns them."""
    a, b, used = (np.array([[slot[k] for slot in row] for row in rows]).reshape(-1, 3)
                  for k in range(3))
    starts, ends, counts = strip._merge_rows(a.astype(float), b.astype(float),
                                             used.astype(bool))
    pairs = tuple(zip(starts.tolist(), ends.tolist()))
    off = [0] + np.cumsum(counts).tolist()
    return [pairs[i:j] for i, j in zip(off, off[1:])]


def row_by_row(rows):
    return [strip._merge([(a, b) for a, b, used in row if used]) for row in rows]


# endpoints from a small grid, so that ties and touching intervals are common
ENDPOINT = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 1.5, 2.0)) | st.floats(-3.0, 3.0)
SLOT = st.builds(lambda a, length, used: (a, a + length, used),
                 ENDPOINT, st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 2.0),
                 st.booleans())


class TestMergeRows:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.lists(SLOT, min_size=3, max_size=3), min_size=1, max_size=12))
    def test_equals_merge_row_by_row(self, rows):
        assert merged_rows(rows) == row_by_row(rows)

    @pytest.mark.parametrize("row, want", [
        # equal starts with different ends, in either order
        (((1.0, 3.0), (1.0, 2.0), (5.0, 6.0)), ((1.0, 3.0), (5.0, 6.0))),
        (((1.0, 2.0), (4.0, 5.0), (1.0, 3.0)), ((1.0, 3.0), (4.0, 5.0))),
        # touching: a start equal to the previous end
        (((1.0, 2.0), (0.0, 1.0), (3.0, 4.0)), ((0.0, 2.0), (3.0, 4.0))),
        (((2.0, 3.0), (1.0, 2.0), (0.0, 1.0)), ((0.0, 3.0),)),
        # a contained interval, before or after the one containing it
        (((1.0, 2.0), (0.0, 5.0), (6.0, 7.0)), ((0.0, 5.0), (6.0, 7.0))),
        (((0.0, 5.0), (6.0, 7.0), (1.0, 2.0)), ((0.0, 5.0), (6.0, 7.0))),
        # all three slots merging into one
        (((2.0, 3.0), (0.0, 2.5), (2.9, 4.0)), ((0.0, 4.0),)),
        (((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0),)),
        # three disjoint, unsorted
        (((4.0, 5.0), (0.0, 1.0), (2.0, 3.0)), ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))),
    ])
    def test_hand_picked_rows(self, row, want):
        rows = [tuple((a, b, True) for a, b in row)]
        assert merged_rows(rows) == row_by_row(rows) == [want]

    def test_unused_slots_are_left_out(self):
        rows = [((0.0, 1.0, False), (0.0, 1.0, False), (0.0, 1.0, False)),
                ((5.0, 6.0, False), (0.0, 1.0, True), (0.5, 2.0, False)),
                ((0.0, 3.0, True), (9.0, 9.5, False), (1.0, 4.0, True))]
        assert merged_rows(rows) == row_by_row(rows) == [
            (), ((0.0, 1.0),), ((0.0, 4.0),)]

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.0, math.nan), (2.0, 1.0),
                                     (-math.inf, 0.0), (0.0, math.inf)])
    def test_rejects_a_bad_used_slot(self, bad):
        rows = [((0.0, 1.0, True), (0.5, 2.0, True), (3.0, 4.0, True)),
                ((0.0, 1.0, True), bad + (True,), (3.0, 4.0, False))]
        with pytest.raises(ValidationError):
            merged_rows(rows)
        with pytest.raises(ValidationError):
            row_by_row(rows)
        # the same slot, unused, is left out unread
        rows[1] = rows[1][:1] + (bad + (False,),) + rows[1][2:]
        assert merged_rows(rows) == row_by_row(rows)


class TestPoisson:
    def test_density_positive_and_even(self):
        for g in (0.2, 0.5, 0.8):
            for k in (0, 1):
                assert poisson_density(g, k, 1.3) > 0
                assert abs(poisson_density(g, k, 1.3)
                           - poisson_density(g, k, -1.3)) <= 1e-15

    def test_density_peak_at_zero(self):
        ts = np.linspace(0, 5, 50)
        vals = [poisson_density(0.4, 1, t) for t in ts]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_mass_of_second_line_is_gamma(self):
        for g in (0.1, 0.37, 0.5, 0.9):
            m = boundary_measure(g, BoundarySet((), ((-40.0, 40.0),)))
            assert abs(m - g) <= 1e-8

    def test_total_mass_one(self):
        for g in (0.25, 0.5, 0.75):
            assert abs(boundary_measure(g, BoundarySet.full()) - 1.0) <= 1e-8

    def test_monotone_in_set(self):
        small = BoundarySet(((0.0, 1.0),), ())
        big = BoundarySet(((0.0, 2.0),), ())
        assert boundary_measure(0.5, small) < boundary_measure(0.5, big)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValidationError):
            poisson_density(1.5, 0, 0.0)


def gauss_legendre(f, a, b, panel=0.05, order=16):
    """Composite Gauss-Legendre rule for f on [a, b]; f takes an array."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, max(1, int(math.ceil((b - a) / panel))) + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return float((half * wg * f(mid + half * xg)).sum())


def density(gamma0, k):
    """The harmonic-measure density on Re z = k, on arrays."""
    sign = 1.0 if k == 0 else -1.0
    return lambda t: np.sin(gamma0 * np.pi) / (
        2.0 * (np.cosh(np.pi * t) - sign * np.cos(gamma0 * np.pi)))


def random_intervals(count):
    ivs = []
    for _ in range(count):
        a = float(RNG.uniform(-6, 6))
        ivs.append((a, a + float(RNG.uniform(0.01, 3.0))))
    return tuple(ivs)


class TestClosedFormMeasure:
    """The closed-form measures against quadrature of the densities, so that
    the Poisson-mass and doubling checks do not test the formula against
    itself."""

    def test_density_matches_module(self):
        for g in (0.1, 0.5, 0.9):
            for k in (0, 1):
                assert abs(density(g, k)(np.array(0.7)) - poisson_density(g, k, 0.7)) \
                    <= 1e-15

    @pytest.mark.parametrize("gamma0", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_random_sets_on_both_lines(self, gamma0):
        for _ in range(10):
            aset = BoundarySet(random_intervals(int(RNG.integers(1, 4))),
                               random_intervals(int(RNG.integers(1, 4))))
            want = sum(gauss_legendre(density(gamma0, k), a, b)
                       for k, ivs in ((0, aset.intervals0), (1, aset.intervals1))
                       for a, b in ivs)
            assert abs(boundary_measure(gamma0, aset) - want) <= 1e-12

    def test_cosh_measure(self):
        for _ in range(20):
            aset = BoundarySet(random_intervals(2), random_intervals(1))
            want = sum(gauss_legendre(lambda t: 1.0 / np.cosh(np.pi * t), a, b)
                       for a, b in aset.intervals0 + aset.intervals1)
            assert abs(cosh_measure(aset) - want) <= 1e-12

    @pytest.mark.parametrize("a,b", [(5.9, 6.0), (11.8, 12.0)])
    def test_short_interval_in_the_tail(self, a, b):
        # the measure is about 2e-10 and 4e-18 here; a plain difference of
        # arctangents loses it to cancellation
        for k in (0, 1):
            aset = BoundarySet(((a, b),), ()) if k == 0 else BoundarySet((), ((a, b),))
            want = gauss_legendre(density(0.1, k), a, b)
            assert abs(boundary_measure(0.1, aset) - want) <= 1e-12 * want

    @pytest.mark.parametrize("gamma0", [0.0, 1.5])
    def test_rejects_gamma_out_of_range(self, gamma0):
        with pytest.raises(ValidationError):
            boundary_measure(gamma0, BoundarySet(((0.0, 1.0),), ()))


class TestDoubling:
    def test_ratio_below_bound(self):
        for _ in range(20):
            a = float(RNG.uniform(-2, 2))
            b = a + float(RNG.uniform(0.1, 1.5))
            aset = BoundarySet(((a, b),), ((a - 1, b),))
            g = float(RNG.uniform(0.1, 0.9))
            ratio, bound = doubling_ratio(g, aset)
            # the dilated set need not contain the original (intervals away
            # from 0 move off the density peak), so only the upper bound holds
            assert 0.0 < ratio <= bound

    def test_bound_formula(self):
        assert abs(doubling_bound(0.5) - 4.0) <= 1e-14

    def test_cosh_reference_doubling(self):
        for _ in range(20):
            a = float(RNG.uniform(-3, 3))
            b = a + float(RNG.uniform(0.1, 2.0))
            aset = BoundarySet(((a, b),), ())
            assert cosh_measure(dilate(aset)) <= 2 * cosh_measure(aset) + 1e-9

    def test_null_set_raises(self):
        with pytest.raises(ValidationError):
            doubling_ratio(0.5, BoundarySet(((0.0, 0.0),), ()))


# the boundary measures as plain loops: every call takes tan(theta/2) anew,
# clips with global TAIL_CUT and calls math.* by attribute.  The module must
# give the same bits
def measure_loop(c, intervals):
    total = 0.0
    cc = c * c
    for a, b in intervals:
        if a < -strip.TAIL_CUT:
            a = -strip.TAIL_CUT
        if b > strip.TAIL_CUT:
            b = strip.TAIL_CUT
        if b <= a:
            continue
        ha, hb = 0.5 * math.pi * a, 0.5 * math.pi * b
        diff = math.sinh(0.5 * math.pi * (b - a)) / (math.cosh(ha) * math.cosh(hb))
        total += math.atan2(c * diff, cc + math.tanh(ha) * math.tanh(hb))
    return total / math.pi


def boundary_measure_loop(gamma0, aset):
    return (measure_loop(math.tan(0.5 * gamma0 * math.pi), aset.intervals0)
            + measure_loop(math.tan(0.5 * (1.0 - gamma0) * math.pi), aset.intervals1))


# endpoints past the tail cut and on it, and widths of zero
MEASURE_END = (st.sampled_from((-strip.TAIL_CUT, 0.0, strip.TAIL_CUT))
               | st.floats(-50.0, 50.0))
MEASURE_LINE = st.lists(st.tuples(MEASURE_END, st.just(0.0) | st.floats(0.0, 60.0))
                        .map(lambda iv: (iv[0], iv[0] + iv[1])), max_size=4)
MEASURE_SET = st.builds(BoundarySet, MEASURE_LINE, MEASURE_LINE)


class TestMeasuresEqualTheirLoops:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9)) | st.floats(1e-3, 1.0 - 1e-3),
           MEASURE_SET)
    def test_boundary_measure(self, gamma0, aset):
        assert boundary_measure(gamma0, aset).hex() == \
            boundary_measure_loop(gamma0, aset).hex()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(MEASURE_SET)
    def test_cosh_measure(self, aset):
        assert cosh_measure(aset).hex() == \
            (2.0 * measure_loop(1.0, aset.intervals0 + aset.intervals1)).hex()

    @pytest.mark.parametrize("gamma0", [0.1, 2.0 / 3.0, 0.9])
    def test_gamma0_types_give_the_same_bits(self, gamma0):
        aset = BoundarySet(((-41.0, -3.0), (0.5, 0.5), (2.0, 2.25)), ((-1.0, 45.0),))
        want = boundary_measure_loop(gamma0, aset).hex()
        for g in (gamma0, np.float64(gamma0), np.array(gamma0), gamma0, np.array(gamma0)):
            assert boundary_measure(g, aset).hex() == want

    @pytest.mark.parametrize("gamma0", [0.0, 1.0, 1.5, math.nan, np.float64(math.nan),
                                        np.array(1.0)])
    def test_out_of_range_gamma0_raises_on_every_call(self, gamma0):
        for _ in range(3):
            with pytest.raises(ValidationError, match="gamma0 must be in"):
                boundary_measure(gamma0, BoundarySet.full())
        assert boundary_measure(0.5, BoundarySet.full()) == \
            boundary_measure_loop(0.5, BoundarySet.full())


class TestAnalyticFamily:
    def test_center_value(self):
        d = rand_pdm(4)
        x = rand_complex(4)
        alpha = 1.0
        fam = AnalyticFamily(d, x, alpha)
        gamma0 = alpha / (1 + alpha)
        # at z = gamma0 = 1/2 with alpha = 1: d x d
        got = family_eval(fam, gamma0).mat
        ref = d.mat @ x @ d.mat
        assert np.abs(got - ref).max() <= 1e-9 * (1 + np.abs(ref).max())

    def test_endpoint_values(self):
        d = rand_pdm(3)
        x = rand_complex(3)
        fam = AnalyticFamily(d, x, 0.5)
        d15 = (d.spectral.vectors * d.spectral.eigenvalues ** 1.5) \
            @ d.spectral.vectors.conj().T
        assert np.abs(family_eval(fam, 0.0).mat - x @ d15).max() <= 1e-9
        assert np.abs(family_eval(fam, 1.0).mat - d15 @ x).max() <= 1e-9

    def test_rejects_exterior_point(self):
        fam = AnalyticFamily(rand_pdm(2), rand_complex(2), 1.0)
        with pytest.raises(ValidationError):
            family_eval(fam, 1.5)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_equals_the_formed_product_at_complex_points(self, n):
        # the reference forms d^(c z) and d^(c (1-z)) in the standard basis
        rng = np.random.default_rng(700 + n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        lam = np.exp(rng.uniform(-2.0, 2.0, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for alpha in (0.3, 1.0, 3.0):
            d = PositiveDefiniteMatrix.from_spectral(lam, u)
            fam = AnalyticFamily(d, x, alpha)
            s, c = d.spectral, 1.0 + alpha
            for z in [k + 1j * t for k in (0.0, 1.0) for t in rng.uniform(-5.0, 5.0, 4)]:
                left = (s.vectors * np.exp(c * z * np.log(s.eigenvalues))) @ s.vectors.conj().T
                right = (s.vectors * np.exp(c * (1.0 - z) * np.log(s.eigenvalues))) \
                    @ s.vectors.conj().T
                ref = left @ x @ right
                got = family_eval(fam, z).mat
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("construct", ["public", "eigenbasis"])
    def test_evaluation_equals_v_f_v_star_bit_for_bit(self, construct):
        # the reference forms v* at every node, as family_eval once did
        rng = np.random.default_rng(41)
        for n in (1, 3, 5):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if construct == "public":
                fam = AnalyticFamily(rand_pdm(n), x, 1.5)
            else:
                fam = AnalyticFamily._of_eigenbasis(np.sort(np.exp(rng.uniform(-2, 2, n))),
                                                    x, 1.5)
            for z in (0.0, 1.0, 0.6, 0.3 - 2j, 1.0 + 7.5j, 1j * -0.25):
                want = fam.v @ fam.eig_at(complex(z)) @ fam.v.conj().T
                assert family_eval(fam, z).mat.tobytes() == want.tobytes()

    def test_evaluation_reuses_the_eigenbasis_of_construction(self, monkeypatch):
        from schattenlab import mazur
        fam = AnalyticFamily(rand_pdm(3), rand_complex(3), 1.0)

        def refuse(*args):
            raise AssertionError("d diagonalized again")
        monkeypatch.setattr(mazur, "herm_eig", refuse)
        monkeypatch.setattr(strip, "herm_eig", refuse, raising=False)
        family_eval(fam, 0.5 + 1j)
        BoundaryGridCache(fam, 0.5)

    def test_rejects_indefinite_d(self):
        d = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValidationError, match="positive definite"):
            AnalyticFamily(d, rand_complex(2), 1.0)

    def test_boundary_norms_constant_for_hermitian_x(self):
        d = rand_pdm(4)
        a = rand_complex(4)
        x = 0.5 * (a + a.conj().T)
        fam = AnalyticFamily(d, x, 1.0)
        base = schatten_norm(x @ (d.spectral.vectors * d.spectral.eigenvalues ** 2)
                             @ d.spectral.vectors.conj().T, 1.0)
        n0, n1 = boundary_norm_profile(fam, 1.0, np.linspace(-2, 2, 9))
        assert np.abs(n0 - base).max() <= 1e-8 * base
        assert np.abs(n1 - base).max() <= 1e-8 * base


class TestConvexityDefect:
    def test_positive_on_random_families(self):
        for _ in range(5):
            d = rand_pdm(3, spread=1.0)
            x = rand_complex(3)
            fam = AnalyticFamily(d, x, 1.0)
            cache = BoundaryGridCache(fam, 0.5)
            for q in (0.5, 1.0, 2.0):
                assert convexity_defect(cache, q) > 0

    def test_cache_shared_across_q(self):
        d = rand_pdm(3, spread=1.0)
        fam = AnalyticFamily(d, rand_complex(3), 1.0)
        cache = BoundaryGridCache(fam, 0.5)
        a = convexity_defect(cache, 1.0)
        assert convexity_defect(cache, 0.5) != a
        assert convexity_defect(cache, 1.0) == a
        assert convexity_defect(BoundaryGridCache(fam, 0.5), 1.0) == a

    @pytest.mark.parametrize("gamma0", [0.25, 0.5, 0.62, 0.9])
    def test_q2_defect_is_one(self, gamma0):
        # at q = 2 the mean-value property of F gives ||F||^2 - ||F(gamma0)||^2
        # = ||F - F(gamma0)||^2 exactly.  The last family is nearly constant,
        # so an error in the F term swamps its small numerator; that numerator
        # cancels ||F||^2 against ||F(gamma0)||^2, so rounding alone moves the
        # ratio by a few eps ||F||^2 / ||F - F(gamma0)||^2 (1.6e-8 at gamma0 =
        # 0.9, and 4.5e-9 with a 32-fold finer quadrature)
        rng = np.random.default_rng(int(100 * gamma0))

        def family(logs, alpha):
            n = len(logs)
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return AnalyticFamily(PositiveDefiniteMatrix.from_spectral(np.exp(logs), u), x, alpha)
        fams = [family(rng.uniform(-1.5, 1.5, n), rng.uniform(0.3, 2.0)) for n in (2, 3, 4)]
        for fam in fams + [family([0.686, 0.6865], 1.64)]:
            cache = BoundaryGridCache(fam, gamma0)
            full, dev, _ = defect_terms(cache, 2.0)
            ill = (full / dev) ** 2
            assert abs(convexity_defect(cache, 2.0) - 1.0) <= 1e-8 + 16 * np.finfo(float).eps * ill

    def test_degenerate_family_raises(self):
        # x commuting with d makes F constant in norm and F - F(gamma0)
        # boundary-null only when x is a multiple of a unitary times d-powers;
        # the truly constant case is d = I
        d = PositiveDefiniteMatrix(np.eye(3, dtype=complex))
        fam = AnalyticFamily(d, rand_complex(3), 1.0)
        with pytest.raises(ValidationError):
            convexity_defect(BoundaryGridCache(fam, 0.5), 1.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_constant_family_of_large_norm_raises(self, q):
        # a 1x1 family is constant, F = d^(1 + alpha) x with ||F|| near 3e10;
        # rounding leaves ||F - F(gamma0)|| near 1e-6, far above an absolute
        # floor of 1e-12, and the defect came out as -2e17, -5e16 and 0.0
        d = PositiveDefiniteMatrix(np.array([[math.exp(8.0)]], dtype=complex))
        fam = AnalyticFamily(d, np.array([[1.0 + 0.5j]]), 2.0)
        with pytest.raises(ValidationError, match="degenerate"):
            convexity_defect(BoundaryGridCache(fam, 2.0 / 3.0), q)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_degeneracy_does_not_depend_on_the_scale_of_x(self, q):
        # the defect is a degree-0 ratio; at x -> 2^-60 x the boundary norms
        # are near 1e-18, under an absolute floor of 1e-12
        d, x = rand_pdm(3, spread=1.0), rand_complex(3)
        want = convexity_defect(BoundaryGridCache(AnalyticFamily(d, x, 1.0), 0.5), q)
        small = BoundaryGridCache(AnalyticFamily(d, 2.0 ** -60 * x, 1.0), 0.5)
        assert convexity_defect(small, q) == pytest.approx(want, rel=1e-12)

    def test_rejects_large_q(self):
        fam = AnalyticFamily(rand_pdm(2), rand_complex(2), 1.0)
        with pytest.raises(ValidationError):
            convexity_defect(BoundaryGridCache(fam, 0.5), 3.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_overflow_is_a_numerical_error(self, q):
        # the defect is a ratio of squared norms: with x graded from 1 down
        # to 1e-12 and scaled by 30 2^510 they overflow, which must raise
        # NumericalError (the CLI's numerical-failure exit), with no
        # RuntimeWarning and no bare OverflowError; at 2^498 they do not
        rng = np.random.default_rng(20)

        def unitary():
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            return np.linalg.qr(z)[0]
        d = PositiveDefiniteMatrix.from_spectral(np.exp(rng.uniform(-1, 1, 4)), unitary())
        x = (unitary() * 10.0 ** -np.array([0.0, 4.0, 8.0, 12.0])) @ unitary().conj().T
        assert math.isfinite(convexity_defect(
            BoundaryGridCache(AnalyticFamily(d, 2.0 ** 498 * x, 2.0), 0.5), q))
        cache = BoundaryGridCache(AnalyticFamily(d, 30 * 2.0 ** 510 * x, 2.0), 0.5)
        with pytest.raises(NumericalError, match="overflows"):
            convexity_defect(cache, q)


def per_node_tables(d, x, alpha, gamma0, nodes):
    """center_sv, sv and diff_sv of the family of (d, x, alpha) built one line
    and one node at a time: the reference for the cache's stacked tables."""
    s = herm_eig(d)
    lam, v = s.eigenvalues, s.vectors
    xp = v.conj().T @ np.asarray(x, dtype=complex) @ v
    c = 1.0 + alpha
    log_lam = np.log(lam)
    center = (lam ** (c * gamma0))[:, None] * xp * (lam ** (c * (1 - gamma0)))[None, :]
    sv, diff_sv = [], []
    for k in (0, 1):
        base = (lam ** (c * k))[:, None] * xp * (lam ** (c * (1 - k)))[None, :]
        sv.append(singular_values(base))
        diff_sv.append([])
        for t in nodes:
            rot = np.exp(1j * c * t * log_lam)
            m = rot[:, None] * base * np.conj(rot)[None, :]
            diff_sv[k].append(singular_values(m - center))
    return singular_values(center), np.array(sv), np.array(diff_sv)


def defect_terms(cache, q):
    """The F term, the grid term and F(gamma0)'s norm of the defect: the F
    term from the exact line masses, the grid term summed one line at a
    time and one node at a time."""
    masses = (1.0 - cache.gamma0, cache.gamma0)
    full = (masses[0] * _power_sum_norm(cache.sv[0], q) ** q
            + masses[1] * _power_sum_norm(cache.sv[1], q) ** q) ** (1.0 / q)
    acc = 0.0
    for k in (0, 1):
        norms = np.array([_power_sum_norm(sv, q) for sv in cache.diff_sv[k]])
        acc += float((cache.weights[k] * norms ** q).sum())
    return full, acc ** (1.0 / q), _power_sum_norm(cache.center_sv, q)


def defect_or_degenerate(cache, q):
    try:
        return convexity_defect(cache, q)
    except ValidationError:
        return "degenerate"


class TestBoundaryGridTables:
    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16])
    @pytest.mark.parametrize("law", ["gaussian", "rank-one"])
    def test_stacked_tables_equal_the_per_node_construction(self, n, law):
        rng = np.random.default_rng(100 * n + len(law))
        lam = np.exp(rng.uniform(-1.5, 1.5, n))
        u, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        d = PositiveDefiniteMatrix.from_spectral(lam, u)
        if law == "gaussian":
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            a = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            b = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            x = a @ b.conj().T
        alpha = float(rng.uniform(0.3, 2.0))
        gamma0 = alpha / (1.0 + alpha)
        fam = AnalyticFamily(d, x, alpha)
        cache = BoundaryGridCache(fam, gamma0)
        ref = BoundaryGridCache(fam, gamma0)
        ref.center_sv, ref.sv, ref.diff_sv = per_node_tables(d, x, alpha, gamma0,
                                                             cache.nodes)
        nodes = len(cache.nodes)
        assert nodes == 192
        assert cache.sv.shape == (2, n)
        assert cache.diff_sv.shape == (2, nodes, n)
        assert cache.weights.shape == (2, nodes)
        assert np.array_equal(cache.center_sv, ref.center_sv)
        assert np.array_equal(cache.sv, ref.sv)
        assert np.array_equal(cache.diff_sv, ref.diff_sv)
        for q in (0.3, 0.5, 1.0, 2.0):
            assert defect_or_degenerate(cache, q) == defect_or_degenerate(ref, q)

    def test_build_makes_one_single_and_two_stacked_svd_calls(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(a):
                calls.append((name, np.shape(a)))
                return fn(a)
            return wrapped
        monkeypatch.setattr(strip, "singular_values",
                            counting("single", strip.singular_values))
        monkeypatch.setattr(strip, "_svdvals", counting("stacked", strip._svdvals))
        BoundaryGridCache(AnalyticFamily(rand_pdm(3), rand_complex(3), 1.0), 0.5)
        assert sorted(calls) == [("single", (3, 3)), ("stacked", (2, 3, 3)),
                                 ("stacked", (2, 192, 3, 3))]

    def test_weights_equal_the_per_node_poisson_density(self):
        fam = AnalyticFamily(rand_pdm(2), rand_complex(2), 1.0)
        wq = strip._gauss_panels()[1]
        for gamma0 in np.concatenate((np.linspace(0.01, 0.99, 99),
                                      RNG.uniform(0, 1, 20))):
            cache = BoundaryGridCache(fam, gamma0)
            for k in (0, 1):
                dens = np.array([poisson_density(gamma0, k, t) for t in cache.nodes])
                assert np.array_equal(cache.weights[k], wq * dens)

    def test_grid_equals_the_per_panel_construction(self):
        xg, wg = np.polynomial.legendre.leggauss(8)
        nodes, weights = [], []
        for a in range(-12, 12):
            nodes.append(0.5 * (2 * a + 1.0) + 0.5 * xg)
            weights.append(0.5 * wg)
        got_nodes, got_weights, cosh_pt = strip._gauss_panels()
        assert np.array_equal(got_nodes, np.concatenate(nodes))
        assert np.array_equal(got_weights, np.concatenate(weights))
        assert np.array_equal(cosh_pt, [math.cosh(math.pi * t) for t in got_nodes])

    def test_grid_is_built_once_read_only_and_without_poisson_density(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("poisson_density called")
        monkeypatch.setattr(strip, "poisson_density", refuse)
        fam = AnalyticFamily(rand_pdm(3), rand_complex(3), 1.0)
        a, b = BoundaryGridCache(fam, 0.5), BoundaryGridCache(fam, 0.25)
        assert a.nodes is b.nodes
        assert all(not arr.flags.writeable for arr in strip._gauss_panels())

    def test_defect_equals_the_per_line_sums(self):
        fam = AnalyticFamily(rand_pdm(4), rand_complex(4), 1.0)
        gamma0 = 0.3
        cache = BoundaryGridCache(fam, gamma0)
        lines = (BoundarySet(((-40.0, 40.0),), ()), BoundarySet((), ((-40.0, 40.0),)))
        for q in (0.3, 0.5, 2 / 3, 1.0, 1.5, 2.0):
            full, dev, center = defect_terms(cache, q)
            assert convexity_defect(cache, q) == (full ** 2 - center ** 2) / dev ** 2
            # F's norm is constant on each line, weighted by the line's mass
            exact = sum(boundary_measure(gamma0, line) * schatten_norm(family_eval(fam, k), q) ** q
                        for k, line in enumerate(lines)) ** (1.0 / q)
            assert abs(full - exact) <= 1e-12 * exact


# fixed, so building it draws nothing from RNG
FAMILY = AnalyticFamily(PositiveDefiniteMatrix(np.diag([1.0, 2.0]).astype(complex)),
                        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex), 1.0)


def load_strip_check(tmp_path, key, value):
    path = tmp_path / "strip.ini"
    path.write_text("[experiment]\nkind = strip-check\n[strip-check]\n%s = %r\n"
                    % (key, value))
    return cli.load_config(str(path))


def defect_min_eval(**params):
    return estimator.OBJECTIVES["convexity-defect-min"].make_eval(
        dict({"alpha": 1.0, "q": 1.0}, **params))


# every entry point of strip's two parameter rules, by rule
RULE_ENTRIES = {
    "gamma0 must be in (0, 1)": {
        "poisson_density": lambda v, tmp: poisson_density(v, 0, 0.0),
        "boundary_measure": lambda v, tmp: boundary_measure(v, BoundarySet.full()),
        "BoundaryGridCache": lambda v, tmp: BoundaryGridCache(FAMILY, v),
        "convexity-defect-min": lambda v, tmp: defect_min_eval(gamma0=v),
        "strip-check config": lambda v, tmp: load_strip_check(tmp, "gamma0", v),
    },
    "q must be in (0, 2]": {
        "convexity_defect": lambda v, tmp: convexity_defect(BoundaryGridCache(FAMILY, 0.5), v),
        "convexity-defect-min": lambda v, tmp: defect_min_eval(q=v),
        "strip-check config": lambda v, tmp: load_strip_check(tmp, "q", v),
    },
}
RULE_CASES = [(rule, entry, value)
              for rule, entries in RULE_ENTRIES.items() for entry in entries
              for value in ((0.0, 1.0, math.nan) if rule.startswith("gamma0")
                            else (0.0, 2.5, math.nan))]


@pytest.mark.parametrize("rule, entry, value", RULE_CASES,
                         ids=["%s:%s:%r" % (r.split()[0], e, v) for r, e, v in RULE_CASES])
def test_every_entry_point_refuses_with_the_same_message(tmp_path, rule, entry, value):
    with pytest.raises((ValidationError, cli.ConfigError),
                       match=re.escape("%s, got %r" % (rule, value))):
        RULE_ENTRIES[rule][entry](value, tmp_path)
