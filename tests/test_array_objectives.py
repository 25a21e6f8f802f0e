"""The search objectives' evaluators against the public ratio functions.

The evaluators compute on plain arrays and check unitarity once per unitary
array.  A dx state holds d's log-spectrum and x in d's eigenbasis.  These
tests pin the exception class each evaluator raises for a bad state, that
an evaluator and the public ratio function give the same bits on the same
state, and that the eigenbasis arithmetic of the dx ratios agrees with the
same ratios formed from d = U diag(lam) U* in a general basis, its powers
and their products.

The dx instances are drawn as the search drew them while its states held
d's unitary: log-spectrum, Haar unitary U, then x in the standard basis.
"""

import itertools
import math

import numpy as np
import pytest

from schattenlab.estimator import (LAYOUTS, LOG_SPEC_CLIP, OBJECTIVES,
                                   SPECTRUM_LAWS, X_LAWS, InstanceSpec,
                                   _draw_log_spectrum, _draw_x, _haar_unitary,
                                   _initial_state, _normalized_spectrum,
                                   _rng_for, _serialize_state,
                                   _triangular_ratio, deserialize_state,
                                   maximize, replay_witness, review_flagged)
from schattenlab.kernels import TMapParams, _t_map
from schattenlab.matcore import (HermitianMatrix, NumericalError,
                                 PositiveDefiniteMatrix, ValidationError,
                                 _power, _svd, _svdvals)
from schattenlab.mazur import (_eigen_args, _eq1_plus, _interp, _main,
                               _safe_ratio, _tmap_ratio, eq1_ratio,
                               interp_corollary_ratio, main_ratio,
                               mazur_lipschitz_ratio, powers_diff_ratio,
                               tmap_ratio)
from schattenlab.schatten import (ExponentConfig, _exponents, _power_sum_norm,
                                  schatten_norm)
from schattenlab.strip import AnalyticFamily, BoundaryGridCache, convexity_defect

PARAMS = {
    "main": {"alpha": 1.0, "s": 4.0 / 3.0, "r": math.inf},
    "interp": {"eps": 0.3, "s": 0.5, "r": math.inf},
    "eq1-plus": {"p": 1.0, "q": 0.5},
    "eq1-minus": {"p": 1.0, "q": 0.5},
    "eq2": {"p": 1.0, "q": 2.0 / 3.0},
    "mazur": {"p": 2.0, "q": 0.5},
    "abs-power": {"p": 2.0, "q": 0.5},
    "tmap": {"beta": 0.3, "gamma": 0.7, "s": 1.0, "r": math.inf},
    "triangular-probe": {"p": 1.5},
    "convexity-defect-min": {"alpha": 2.0, "q": 1.0, "gamma0": 0.6},
}
DX = ("main", "interp", "eq1-plus", "eq1-minus", "tmap", "triangular-probe")


def dx_draw(spec, rng):
    """(logspec, U, x): d = U diag(exp(logspec)) U* and x in the standard
    basis, in the search's former draw order."""
    logspec = _draw_log_spectrum(rng, spec.dim, spec.spectrum_law)
    u = _haar_unitary(rng, spec.dim)
    return logspec, u, _draw_x(rng, spec.dim, spec.x_law)


def state(oid, dim=3, seed=0, start=0, **laws):
    """A start state of oid; a dx state is dx_draw's instance in d's
    eigenbasis, (logspec, X' = U* x U)."""
    spec = InstanceSpec(dim=dim, seed=seed, **laws)
    rng = _rng_for(seed, start)
    kind = OBJECTIVES[oid].kind
    if kind != "dx":
        return _initial_state(LAYOUTS[kind], spec, rng)
    logspec, u, x = dx_draw(spec, rng)
    return {"logspec": logspec, "x": u.conj().T @ x @ u}


def witness_report(oid):
    """A report of a zero-budget search of oid: its witness is the start."""
    return maximize(oid, PARAMS[oid], InstanceSpec(dim=3, seed=3), budget=0, starts=1)


def with_block(blob, key, value):
    """A copy of the serialized state blob with block key set to value."""
    return dict(blob, **_serialize_state({key: value}))


def evaluate(oid, st):
    return OBJECTIVES[oid].make_eval(PARAMS[oid])(st)


class TestChecksStayOnTheSearchPath:
    @pytest.mark.parametrize("oid,key", [(oid, "logspec") for oid in DX]
                             + [("eq2", "logspec"), ("eq2", "logspec2")])
    def test_nan_log_spectrum(self, oid, key):
        st = state(oid)
        st[key] = st[key].copy()
        st[key][1] = np.nan
        with pytest.raises(ValidationError):
            evaluate(oid, st)

    @pytest.mark.parametrize("oid,key", [(oid, "unitary") for oid in DX]
                             + [("eq2", "unitary"), ("eq2", "unitary2")])
    def test_scaled_unitary(self, oid, key):
        # a block that is not unitary is never scored: eq2's unitary2 is
        # checked on evaluation, and the unitary of d, which dx and eq2
        # states no longer hold, makes replay refuse the witness
        rep = witness_report(oid)
        u = deserialize_state(rep.witness).get(key, np.eye(3, dtype=complex))
        rep.witness = with_block(rep.witness, key, 1.01 * u)
        in_layout = key in LAYOUTS[OBJECTIVES[oid].kind][1]
        with pytest.raises(ValidationError,
                           match="not unitary" if in_layout else "'unitary'"):
            replay_witness(rep)

    @pytest.mark.parametrize("oid,exc", [
        ("main", NumericalError), ("interp", NumericalError),
        ("eq1-plus", NumericalError), ("eq1-minus", NumericalError),
        ("mazur", NumericalError), ("abs-power", NumericalError),
        ("triangular-probe", NumericalError), ("tmap", NumericalError)])
    def test_infinite_x(self, oid, exc):
        st = state(oid)
        st["x"] = np.full_like(st["x"], np.inf)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(exc):
            evaluate(oid, st)

    @pytest.mark.parametrize("oid,exc", [("mazur", NumericalError),
                                         ("abs-power", NumericalError),
                                         ("convexity-defect-min", NumericalError)])
    def test_power_overflow(self, oid, exc):
        # |x|^(p/q) = |x|^4 of entries near 1e200 overflows, and so does the
        # square of the defect's boundary norms: a numerical failure, not a
        # rejected proposal
        st = state(oid)
        st["x"] = 1e200 * st["x"]
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(exc, match="overflows"):
            evaluate(oid, st)

    def test_each_new_unitary_is_checked(self):
        ev = OBJECTIVES["eq2"].make_eval(PARAMS["eq2"])
        st = state("eq2")
        assert math.isfinite(ev(st))
        assert math.isfinite(ev(dict(st, logspec2=st["logspec2"] + 0.1)))
        with pytest.raises(ValidationError, match="not unitary"):
            ev(dict(st, unitary2=1.01 * st["unitary2"]))

    def test_replay_of_tampered_unitary(self):
        rep = maximize("eq2", PARAMS["eq2"], InstanceSpec(dim=3, seed=3),
                       budget=5, starts=2)
        u = deserialize_state(rep.witness)["unitary2"]
        rep.witness = with_block(rep.witness, "unitary2", 1.01 * u)
        with pytest.raises(ValidationError, match="not unitary"):
            replay_witness(rep)


def graded(rng, n):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q1, q2


@pytest.mark.parametrize("n", [1, 3, 8, 16, 64])
@pytest.mark.parametrize("kind", ["graded", "rank-deficient", "clustered"])
def test_stacked_svd_equals_single_calls(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    mats = []
    for _ in range(4):
        u, v = graded(rng, n)
        if kind == "graded":
            sig = np.logspace(0, -12, n)
        elif kind == "rank-deficient":
            sig = np.where(np.arange(n) < max(n // 2, 1), rng.uniform(0.5, 2, n), 0.0)
        else:
            sig = np.repeat(rng.uniform(0.5, 2, (n + 1) // 2), 2)[:n] \
                + rng.uniform(-1e-10, 1e-10, n)
        mats.append((u * sig) @ v.conj().T)
    # members that the SVD decomposes again as 2^-e m, and zero matrices,
    # which it leaves as they are
    mats += [2.0 ** 498 * mats[0], 2.0 ** -498 * mats[1], np.zeros((n, n), complex)]
    stack = np.stack(mats)
    for row, m in zip(_svdvals(stack), mats):
        assert np.array_equal(row, _svdvals(m))
    for factors, m in zip(zip(*_svd(stack)), mats):
        for got, want in zip(factors, _svd(m)):
            assert np.array_equal(got, want)
    # decomposed again at an exact power of two, a scaled member keeps the
    # bits of the matrix it was scaled from
    assert np.array_equal(_svdvals(mats[4]), 2.0 ** 498 * _svdvals(mats[0]))
    assert np.array_equal(_svdvals(mats[5]), 2.0 ** -498 * _svdvals(mats[1]))
    empty = np.zeros((0, n, n), complex)
    assert _svdvals(empty).shape == (0, n)
    assert [f.shape for f in _svd(empty)] == [(0, n, n), (0, n), (0, n, n)]


def pdm(st, s, suffix=""):
    """eq2's first matrix diag(exp(clip(logspec))), or with suffix "2" its
    second U2 diag(exp(clip(logspec2))) U2*, scaled to ||.||_s = 1, as a
    validated matrix."""
    lam, _ = _normalized_spectrum(st["logspec" + suffix], s)
    u = st["unitary2"] if suffix else np.eye(lam.shape[0])
    return PositiveDefiniteMatrix.from_spectral(lam, u)


def dx_args(st, s):
    """A dx state as (d, x): d = diag(lam) with lam ascending, scaled to
    ||d||_s = 1, as a validated matrix, and the state's x conjugated by the
    permutation matrix that sorts lam."""
    lam, order = _normalized_spectrum(st["logspec"], s)
    perm = np.eye(lam.shape[0])[:, order]
    return (PositiveDefiniteMatrix.from_spectral(lam[order], np.eye(lam.shape[0])),
            perm.T @ st["x"] @ perm)


def public_ratio(oid, st):
    """The ratio of the state through the public, validating functions."""
    prm = PARAMS[oid]
    if oid == "main":
        cfg = ExponentConfig(prm["alpha"], prm["s"], prm["r"])
        return main_ratio(*dx_args(st, cfg.s), cfg)
    if oid == "interp":
        return interp_corollary_ratio(*dx_args(st, prm["s"]),
                                      prm["eps"], prm["s"], prm["r"])
    if oid in ("eq1-plus", "eq1-minus"):
        return eq1_ratio(*dx_args(st, prm["p"]), prm["p"], prm["q"],
                         +1 if oid == "eq1-plus" else -1)
    if oid == "eq2":
        return powers_diff_ratio(pdm(st, prm["p"]), pdm(st, prm["p"], "2"),
                                 prm["p"], prm["q"])
    if oid in ("mazur", "abs-power"):
        return mazur_lipschitz_ratio(st["x"], st["y"], prm["p"], prm["q"],
                                     variant=oid)
    if oid == "tmap":
        return tmap_ratio(*dx_args(st, prm["s"]),
                          TMapParams(prm["beta"], prm["gamma"]),
                          prm["s"], prm["r"])
    if oid == "convexity-defect-min":
        return convexity_defect(BoundaryGridCache(
            AnalyticFamily(*dx_args(st, 2.0), prm["alpha"]), prm["gamma0"]), prm["q"])
    # triangular-probe has no public function; its eigenbasis arguments
    # come from _eigen_args, as every public dx ratio's do
    lam, _, xe = _eigen_args(*dx_args(st, prm["p"]))
    return _triangular_ratio(lam, xe, prm["p"])


@pytest.mark.parametrize("oid", sorted(PARAMS))
@pytest.mark.parametrize("dim,laws", [
    (3, {}), (8, {"spectrum_law": "clustered-pairs", "x_law": "rank-one"}),
    (16, {"spectrum_law": "geometric", "x_law": "hermitian-gaussian"})])
def test_evaluator_equals_public_ratio(oid, dim, laws):
    for start in range(3):
        st = state(oid, dim=dim, seed=17, start=start, **laws)
        assert evaluate(oid, st) == public_ratio(oid, st)


def test_defect_evaluator_builds_no_validated_matrix(monkeypatch):
    # the defect family is built from _eigen_state's (lam, X'), as every
    # other dx evaluator's arguments are: no validated matrix is built and
    # the diagonal d is not diagonalized again
    from schattenlab import mazur
    st = state("convexity-defect-min")
    want = evaluate("convexity-defect-min", st)

    def refuse(*args, **kwargs):
        raise AssertionError("validated matrix or eigensolver on the search path")
    monkeypatch.setattr(PositiveDefiniteMatrix, "from_spectral", refuse)
    monkeypatch.setattr(HermitianMatrix, "__init__", refuse)
    monkeypatch.setattr(mazur, "herm_eig", refuse)
    assert evaluate("convexity-defect-min", st) == want


@pytest.mark.parametrize("oid", DX + ("eq2",))
def test_nan_in_unitary(oid):
    # unitarity is checked once per unitary array, and eq2 forms its second
    # matrix from the unitary, so that check must refuse a non-finite entry
    # itself; a dx witness that still holds a unitary for d is refused by
    # the flag review, which would otherwise score it without that block
    if oid == "eq2":
        st = state(oid)
        st["unitary2"] = st["unitary2"].copy()
        st["unitary2"][0, 1] = np.nan
        with pytest.raises(ValidationError, match="not unitary"):
            evaluate(oid, st)
        return
    rep = witness_report(oid)
    u = np.eye(3, dtype=complex)
    u[0, 1] = np.nan
    rep.flagged_witnesses = [with_block(rep.witness, "unitary", u)]
    with pytest.raises(ValidationError, match="'unitary'"):
        review_flagged(rep)


# --- one sort for d's spectrum ---------------------------------------------

def sorted_after_scaling(logspec, unitary, s):
    """(lam, V, d's matrix) as the search built them while it scaled the
    spectrum in logspec's order and sorted the eigenpairs afterwards, with
    a stable sort that keeps tied eigenvalues in logspec's order."""
    lam = np.exp(np.clip(logspec, -LOG_SPEC_CLIP, LOG_SPEC_CLIP))
    lam = lam / _power_sum_norm(np.sort(lam)[::-1], s)
    order = np.argsort(lam, kind="stable")
    lam, v = lam[order], unitary[:, order]
    m = (v * lam) @ v.conj().T
    return lam, v, 0.5 * (m + m.conj().T)


def eigenpairs(logspec, u, s):
    """(lam ascending, U's columns in that order) of d = U diag(lam) U*,
    with lam from _normalized_spectrum."""
    lam, order = _normalized_spectrum(logspec, s)
    return lam[order], u[:, order]


def spectra_with_clip_ties(seed):
    """(log-spectrum, unitary) pairs: every spectrum law's draws, and draws
    with several entries past each clip, which clip to exact ties whose
    order the sort must keep."""
    rng = np.random.default_rng(seed)
    for law, dim in itertools.product(SPECTRUM_LAWS, range(1, 17)):
        spec = InstanceSpec(dim=dim, seed=seed, spectrum_law=law)
        logspec, u, _ = dx_draw(spec, _rng_for(seed, 0))
        yield logspec, u
    for dim in range(2, 17):
        logspec = rng.uniform(-2.0, 2.0, dim) * LOG_SPEC_CLIP
        logspec[rng.permutation(dim)[:2]] = [LOG_SPEC_CLIP, -LOG_SPEC_CLIP - 1.0]
        yield logspec, _haar_unitary(rng, dim)


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0 / 3.0, math.inf])
def test_normalized_spectrum_sorts_once_with_the_same_bits(s):
    ties = 0
    for logspec, u in spectra_with_clip_ties(seed=9):
        lam, v = eigenpairs(logspec, u, s)
        want = sorted_after_scaling(logspec, u, s)
        assert np.array_equal(lam, want[0])
        assert np.array_equal(v, want[1])
        assert np.array_equal(_power(lam, v, 1.0), want[2])
        ties += int(np.sum(np.diff(lam) == 0.0))
    assert ties > 20


# --- eigenbasis arithmetic against formed matrices ------------------------
#
# The dx ratios as they were computed before they moved to the eigenbasis
# of d: from d = V diag(lam) V* (dm), its powers and the matrix products,
# with d's norms from singular values.

def formed_main(dm, lam, v, x, cfg):
    num = schatten_norm(x @ _power(lam, v, 1.0 + cfg.alpha), cfg.q)
    sv = _svdvals(np.stack((dm, dm @ x + x @ dm)))
    return _safe_ratio(num, _power_sum_norm(sv[0], cfg.s) ** cfg.alpha
                       * _power_sum_norm(sv[1], cfg.p))


def formed_interp(dm, x, eps, s, r, p):
    num = schatten_norm(x @ dm, p)
    sv = _svdvals(np.stack((dm, x, dm @ x + x @ dm)))
    return _safe_ratio(num, (_power_sum_norm(sv[0], s) * _power_sum_norm(sv[1], r)) ** eps
                       * _power_sum_norm(sv[2], p) ** (1.0 - eps))


def formed_eq1_plus(dm, lam, v, x, p, q):
    d_pow = _power(lam, v, p / q)
    num = schatten_norm(x @ d_pow + d_pow @ x, q)
    sv = _svdvals(np.stack((dm @ x + x @ dm, dm)))
    return _safe_ratio(num, _power_sum_norm(sv[0], p)
                       * _power_sum_norm(sv[1], p) ** (p / q - 1.0))


def formed_tmap(dm, lam, v, x, params, p, q, s):
    sv = _svdvals(np.stack((x, dm)))
    return _safe_ratio(schatten_norm(_t_map(lam, v, params, x), q),
                       _power_sum_norm(sv[0], p) * _power_sum_norm(sv[1], s) ** params.alpha)


def formed_triangular(dm, x, p):
    return _safe_ratio(schatten_norm(x @ dm, p), schatten_norm(dm @ x + x @ dm, p))


def ratio_pairs():
    """(name, the s-norm d is scaled by, eigenbasis ratio of (lam, X'),
    formed ratio of (dm, lam, V, x)) for each dx ratio at PARAMS."""
    cfg = ExponentConfig(*(PARAMS["main"][k] for k in ("alpha", "s", "r")))
    ip = PARAMS["interp"]
    eps, s, r = ip["eps"], ip["s"], ip["r"]
    p_int, _ = _exponents(s, r)
    p, q = PARAMS["eq1-plus"]["p"], PARAMS["eq1-plus"]["q"]
    tm = PARAMS["tmap"]
    tp = TMapParams(tm["beta"], tm["gamma"])
    tpq = _exponents(tm["s"], tm["r"], tp.alpha)
    p_tri = PARAMS["triangular-probe"]["p"]
    return [
        ("main", cfg.s, lambda lam, xe: _main(lam, xe, cfg),
         lambda dm, lam, v, x: formed_main(dm, lam, v, x, cfg)),
        ("interp", s, lambda lam, xe: _interp(lam, xe, eps, s, r, p_int),
         lambda dm, lam, v, x: formed_interp(dm, x, eps, s, r, p_int)),
        ("eq1-plus", p, lambda lam, xe: _eq1_plus(lam, xe, p, q),
         lambda dm, lam, v, x: formed_eq1_plus(dm, lam, v, x, p, q)),
        ("tmap", tm["s"], lambda lam, xe: _tmap_ratio(lam, xe, tp, *tpq, tm["s"]),
         lambda dm, lam, v, x: formed_tmap(dm, lam, v, x, tp, *tpq, tm["s"])),
        ("triangular-probe", p_tri, lambda lam, xe: _triangular_ratio(lam, xe, p_tri),
         lambda dm, lam, v, x: formed_triangular(dm, x, p_tri)),
    ]


def dx_states(spectrum_law, seed):
    """(logspec, U, x) of two starts of every x law at each dim from 1 to 16."""
    for x_law, dim, start in itertools.product(X_LAWS, range(1, 17), range(2)):
        spec = InstanceSpec(dim=dim, spectrum_law=spectrum_law, x_law=x_law, seed=seed)
        yield dx_draw(spec, _rng_for(seed, start))


def relative_gap(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("spectrum_law", SPECTRUM_LAWS)
def test_eigenbasis_ratios_agree_with_formed_matrices(spectrum_law):
    # The ratios are invariant under conjugating d and x by one unitary,
    # which is what lets the search hold (logspec, X') alone.  Largest gap
    # here: 7.0e-13 (eq1-plus, clustered pairs, dim 10), from the SVDs'
    # absolute accuracy on the small singular values of graded products.
    for logspec, u, x in dx_states(spectrum_law, seed=5):
        for name, s, eigen, formed in ratio_pairs():
            lam, v = eigenpairs(logspec, u, s)
            got = eigen(lam, v.conj().T @ x @ v)
            want = formed(_power(lam, v, 1.0), lam, v, x)
            assert relative_gap(got, want) <= 1e-12, (name, lam.shape[0])


@pytest.mark.parametrize("spectrum_law", SPECTRUM_LAWS)
def test_eigenpair_order_moves_only_the_svd_rounding(spectrum_law):
    # Permuting the eigenpairs permutes the entries of every Schur product
    # exactly; what moves is LAPACK's SVD of the permuted product, accurate
    # to eps * sigma_max, not relative to each singular value, and the
    # rounding of d's norms, which read lam in the order given (ascending
    # from the search and the public functions).  On graded products that
    # reaches the ratio: the largest gap here is 4.4e-12 (eq1-plus,
    # log-uniform, dim 11).
    for logspec, u, x in dx_states(spectrum_law, seed=6):
        n = x.shape[0]
        perm = np.random.default_rng(n).permutation(n)
        for name, s, eigen, _ in ratio_pairs():
            lam, v = eigenpairs(logspec, u, s)
            xe = v.conj().T @ x @ v
            got = eigen(lam[perm], xe[np.ix_(perm, perm)])
            assert relative_gap(got, eigen(lam, xe)) <= 1e-11, (name, n)
