import inspect
import math

import numpy as np
import pytest

from schattenlab import strip, verify
from schattenlab.matcore import PositiveDefiniteMatrix, ValidationError
from schattenlab.mazur import powers_diff_ratio
from schattenlab.schatten import _power_sum_norm, schatten_norm


@pytest.mark.parametrize("value, tolerance, lower, passed", [
    (1e-9, 1e-9, False, True), (1.1e-9, 1e-9, False, False),
    (-math.inf, 0.0, False, True), (math.nan, 1e-9, False, False),
    (-1e-8, -1e-8, True, True), (-1.1e-8, -1e-8, True, False),
    (math.inf, -1e-8, True, True), (math.nan, -1e-8, True, False),
])
def test_result_passes_within_its_bound(value, tolerance, lower, passed):
    # the value at the bound passes; a NaN never does
    result = verify._result("check", value, tolerance, lower=lower)
    assert result["passed"] is passed
    assert result["tolerance"] == tolerance


def test_boundary_constancy_seed_24():
    # singular values taken from the eigenvalues of A*A carried a noise floor
    # near 1e-8 sigma_max, which failed this check at seed 24 (1.65e-5)
    result, = verify.verify_boundary_constancy(seed=24)
    assert result["passed"], result


class TestConvexityDefectEnsemble:
    @pytest.mark.parametrize("seed", [11, 12, 15])
    def test_passes_where_quadrature_of_the_F_term_failed(self, seed):
        # the grid's Poisson weights missed the line masses by more than the
        # numerator of a near-constant family (minima -0.78, -0.39, -5.01)
        result, = verify.verify_convexity_defect(seed=seed)
        assert result["passed"], result

    def test_counts_excluded_families(self):
        result, = verify.verify_convexity_defect(seed=0, families=2)
        assert result["passed"]
        assert "0 of 2 families excluded" in result["detail"]

    def test_only_degenerate_families_end_the_loop(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise ValidationError("degenerate family")
        monkeypatch.setattr(verify, "BoundaryGridCache", degenerate)
        result, = verify.verify_convexity_defect(seed=0, families=3)
        assert not result["passed"]
        assert "30 of 30 families excluded" in result["detail"]

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("not a degenerate family")
        monkeypatch.setattr(verify, "BoundaryGridCache", broken)
        with pytest.raises(ZeroDivisionError):
            verify.verify_convexity_defect(seed=0, families=3)


class TestRandomBoundarySets:
    def test_is_lazy(self):
        # building a whole batch at once costs several MB of peak memory
        sets = verify._random_boundary_sets(np.random.default_rng(0), 3000)
        assert inspect.isgenerator(sets)

    def test_same_seed_same_sets(self):
        def draw():
            return list(verify._random_boundary_sets(
                np.random.default_rng(5), 200))
        assert draw() == draw()

    def test_line_choice_shares(self):
        count = 20000
        shares = {"line0": 0, "line1": 0, "both": 0}
        for a, _ in verify._random_boundary_sets(np.random.default_rng(1), count):
            if a.intervals0 and a.intervals1:
                shares["both"] += 1
            else:
                shares["line0" if a.intervals0 else "line1"] += 1
        for key, expected in (("line0", 0.2), ("line1", 0.2), ("both", 0.6)):
            assert abs(shares[key] / count - expected) <= 0.015, shares

    def test_interval_law(self, monkeypatch):
        # the used slots of each line, as they go into the merge
        raw = []
        real = verify._merge_rows

        def record(a, b, used):
            lines = [tuple(zip(ra[ru].tolist(), rb[ru].tolist()))
                     for ra, rb, ru in zip(a, b, used)]
            # rows 2i and 2i + 1 are the two lines of one set
            raw.extend(zip(lines[::2], lines[1::2]))
            return real(a, b, used)
        monkeypatch.setattr(verify, "_merge_rows", record)
        list(verify._random_boundary_sets(np.random.default_rng(2), 2000))
        assert len(raw) == 2000
        counts = set()
        for line0, line1 in raw:
            for ivs in (line0, line1):
                if ivs:
                    counts.add(len(ivs))
                for a, b in ivs:
                    assert -4.0 <= a < 4.0
                    assert 0.05 - 1e-12 <= b - a <= 2.0 + 1e-12
        assert counts == {1, 2, 3}

    @pytest.mark.parametrize("count", [1, 7, 257, 3000])
    def test_pairs_are_merged_sets_and_their_dilations(self, count):
        # SET_CHUNK is 256: 257 and 3000 sets cross chunk edges
        pairs = list(verify._random_boundary_sets(np.random.default_rng(count), count))
        assert len(pairs) == count
        for a, a2 in pairs:
            assert a == strip.BoundarySet(a.intervals0, a.intervals1)
            assert a2 == strip.dilate(a)
            assert all(type(x) is float for line in (a.intervals0, a.intervals1,
                                                     a2.intervals0, a2.intervals1)
                       for iv in line for x in iv)


class TestDoubling:
    def test_reruns_identical(self):
        assert verify.verify_doubling(seed=0) == verify.verify_doubling(seed=0)

    def test_detail_counts_sets(self):
        bound, cosh = verify.verify_doubling(seed=0, sets_per_gamma=10,
                                             gammas=(0.2, 0.6, 0.7))
        assert bound["detail"].endswith("over 30 sets")
        assert cosh["detail"].endswith("over 10 sets")

    def test_one_measure_pair_per_set(self, monkeypatch):
        # the random sets may be drawn in batches, but every set is still
        # measured on its own: two measures per set, none shared
        calls = {"boundary": 0, "cosh": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(strip, "boundary_measure",
                            counted("boundary", strip.boundary_measure))
        monkeypatch.setattr(verify, "cosh_measure",
                            counted("cosh", verify.cosh_measure))
        results = verify.verify_doubling(seed=3, sets_per_gamma=50,
                                         gammas=(0.1, 0.5))
        assert all(r["passed"] for r in results)
        assert calls == {"boundary": 2 * 50 * 2, "cosh": 2 * 50}


class TestMazurChecks:
    def test_two_point_witness_passes_p_over_q_not_the_ceiling(self):
        # x = diag(1, e), y = diag(e, 1): the ratio tends to 2^(1/q - 1/p),
        # under verify_mazur's ceiling (p/q) 2^(1/q - 1/p) = 12
        p, q, e = 1.0, 1.0 / 3.0, 1e-9
        x = PositiveDefiniteMatrix(np.diag([1.0, e]).astype(complex))
        y = PositiveDefiniteMatrix(np.diag([e, 1.0]).astype(complex))
        ratio = powers_diff_ratio(x, y, p, q)
        assert abs(ratio - 4.0) <= 1e-6
        assert p / q < ratio <= p / q * 2.0 ** (1.0 / q - 1.0 / p)

    def test_diagonal_ceiling_holds_at_seed_1(self):
        # p/q alone failed here (seeds 1, 3, 8, 9, 10, 14 and 16 of 0-19)
        results = {r["name"]: r for r in verify.verify_mazur(seed=1)}
        assert results["mazur.diagonal_ceiling"]["passed"], results


# --- the strip checks against copies of their per-set and per-node loops ---
#
# The copies below are the strip check's loops as they were before its
# norms were stacked: each set built and merged on its own, each interval
# clipped with max and min, each node's norm taken from its own SVD, and
# each defect row's norm on its own.  The checks must report exactly (==)
# what these loops report.

def merge_loop(intervals):
    merged = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        assert math.isfinite(a) and math.isfinite(b) and a <= b
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def measure_loop(c, intervals):
    total = 0.0
    for a, b in intervals:
        a, b = max(a, -strip.TAIL_CUT), min(b, strip.TAIL_CUT)
        if b <= a:
            continue
        ha, hb = 0.5 * math.pi * a, 0.5 * math.pi * b
        diff = math.sinh(0.5 * math.pi * (b - a)) / (math.cosh(ha) * math.cosh(hb))
        total += math.atan2(c * diff, c * c + math.tanh(ha) * math.tanh(hb))
    return total / math.pi


def harmonic_loop(gamma0, lines):
    return (measure_loop(math.tan(0.5 * gamma0 * math.pi), lines[0])
            + measure_loop(math.tan(0.5 * (1.0 - gamma0) * math.pi), lines[1]))


def sets_loop(rng, count):
    branch = rng.uniform(size=(count, 2))
    ks = rng.integers(1, 4, size=(count, 2))
    a = rng.uniform(-4, 4, size=(count, 2, 3))
    ivs = np.stack((a, a + rng.uniform(0.05, 2.0, size=(count, 2, 3))), axis=-1)
    for i in range(count):
        line0, line1 = ivs[i, 0, :ks[i, 0]], ivs[i, 1, :ks[i, 1]]
        if branch[i, 0] < 0.2:
            line1 = ()
        elif branch[i, 1] < 0.25:
            line0 = ()
        yield merge_loop(line0), merge_loop(line1)


def doubling_loop(seed, sets_per_gamma, gammas):
    rng = verify._rng(seed, "doubling")
    worst_excess = -math.inf
    for g in gammas:
        bound = 4.0 / (1.0 - abs(math.cos(g * math.pi)))
        for lines in sets_loop(rng, sets_per_gamma):
            doubled = [tuple((2 * a, 2 * b) for a, b in line) for line in lines]
            ratio = harmonic_loop(g, doubled) / harmonic_loop(g, lines)
            worst_excess = max(worst_excess, ratio - bound)
    worst = -math.inf
    for lines in sets_loop(rng, sets_per_gamma):
        doubled = [tuple((2 * a, 2 * b) for a, b in line) for line in lines]
        worst = max(worst, 2.0 * measure_loop(1.0, doubled[0] + doubled[1])
                    - 2.0 * (2.0 * measure_loop(1.0, lines[0] + lines[1])))
    return [worst_excess, worst]


def norm_profile_loop(F, q, t_grid):
    return (np.array([schatten_norm(strip.family_eval(F, 1j * t), q) for t in t_grid]),
            np.array([schatten_norm(strip.family_eval(F, 1.0 + 1j * t), q)
                      for t in t_grid]))


def defect_loop(cache, q):
    acc = 0.0
    for weights, rows in zip(cache.weights, cache.diff_sv):
        norms = np.array([_power_sum_norm(sv, q) for sv in rows])
        acc += float((weights * norms ** q).sum())
    dev = acc ** (1.0 / q)
    full = ((1.0 - cache.gamma0) * _power_sum_norm(cache.sv[0], q) ** q
            + cache.gamma0 * _power_sum_norm(cache.sv[1], q) ** q) ** (1.0 / q)
    if dev <= 1e-12 * full:
        raise ValidationError("degenerate family")
    center = _power_sum_norm(cache.center_sv, q)
    return (full ** 2 - center ** 2) / dev ** 2


class TestStripChecksEqualTheirLoops:
    # the last case is the strip-defect workload's size: 3000 sets per gamma0
    @pytest.mark.parametrize("seed, sets", [(0, verify.SETS_PER_GAMMA),
                                            (7, verify.SETS_PER_GAMMA),
                                            (2024, 3000)],
                             ids=["0", "7", "2024-bench-size"])
    def test_doubling(self, seed, sets):
        results = verify.verify_doubling(seed=seed, sets_per_gamma=sets)
        assert [r["value"] for r in results] == doubling_loop(
            seed, sets, verify.GAMMAS)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_boundary_constancy(self, seed, monkeypatch):
        stacked = verify.verify_boundary_constancy(seed=seed)
        monkeypatch.setattr(verify, "boundary_norm_profile", norm_profile_loop)
        assert stacked == verify.verify_boundary_constancy(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_convexity_defect(self, seed, monkeypatch):
        stacked = verify.verify_convexity_defect(seed=seed, families=50)
        monkeypatch.setattr(verify, "convexity_defect", defect_loop)
        assert stacked == verify.verify_convexity_defect(seed=seed, families=50)
