"""The search objectives' evaluators against the public ratio functions.

The evaluators compute on plain arrays and check unitarity once per unitary
array.  These tests pin the exception class each evaluator raises for a bad
state, that an evaluator and the public ratio function give the same bits on
the same state, and that the eigenbasis arithmetic of the dx ratios agrees
with the same ratios formed from d, its powers and their products.
"""

import itertools
import math

import numpy as np
import pytest

from schattenlab.estimator import (LAYOUTS, LOG_SPEC_CLIP, OBJECTIVES,
                                   SPECTRUM_LAWS, X_LAWS, InstanceSpec,
                                   _haar_unitary, _initial_state,
                                   _normalized_spectrum, _rng_for, maximize,
                                   replay_witness)
from schattenlab.kernels import TMapParams, _t_map
from schattenlab.matcore import (NumericalError, PositiveDefiniteMatrix,
                                 ValidationError, _power, _svdvals)
from schattenlab.mazur import (_eq1_plus, _interp, _main, _safe_ratio,
                               _tmap_ratio, eq1_ratio, interp_corollary_ratio,
                               main_ratio, mazur_lipschitz_ratio,
                               powers_diff_ratio, tmap_ratio)
from schattenlab.schatten import (ExponentConfig, _exponents, _power_sum_norm,
                                  schatten_norm)

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
}
DX = ("main", "interp", "eq1-plus", "eq1-minus", "tmap", "triangular-probe")


def state(oid, dim=3, seed=0, start=0, **laws):
    spec = InstanceSpec(dim=dim, seed=seed, **laws)
    return _initial_state(LAYOUTS[OBJECTIVES[oid].kind], spec, _rng_for(seed, start))


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
        st = state(oid)
        st[key] = 1.01 * st[key]
        with pytest.raises(ValidationError, match="not unitary"):
            evaluate(oid, st)

    @pytest.mark.parametrize("oid,exc", [
        ("main", NumericalError), ("interp", NumericalError),
        ("eq1-plus", NumericalError), ("eq1-minus", NumericalError),
        ("mazur", NumericalError), ("abs-power", NumericalError),
        ("triangular-probe", NumericalError), ("tmap", ValidationError)])
    def test_infinite_x(self, oid, exc):
        st = state(oid)
        st["x"] = np.full_like(st["x"], np.inf)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(exc):
            evaluate(oid, st)

    @pytest.mark.parametrize("oid,exc", [("mazur", NumericalError),
                                         ("abs-power", NumericalError)])
    def test_power_overflow(self, oid, exc):
        # |x|^(p/q) = |x|^4 of entries near 1e200 overflows: a numerical
        # failure of both variants, not a rejected proposal
        st = state(oid)
        st["x"] = 1e200 * st["x"]
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(exc, match="overflows"):
            evaluate(oid, st)

    def test_each_new_unitary_is_checked(self):
        ev = OBJECTIVES["main"].make_eval(PARAMS["main"])
        st = state("main")
        assert math.isfinite(ev(st))
        assert math.isfinite(ev(dict(st, logspec=st["logspec"] + 0.1)))
        with pytest.raises(ValidationError, match="not unitary"):
            ev(dict(st, unitary=1.01 * st["unitary"]))

    def test_replay_of_tampered_unitary(self):
        rep = maximize("main", PARAMS["main"], InstanceSpec(dim=3, seed=3),
                       budget=5, starts=2)
        u = rep.witness["unitary"]
        rep.witness["unitary"] = {
            "re": (1.01 * np.asarray(u["re"])).tolist(),
            "im": (1.01 * np.asarray(u["im"])).tolist()}
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
    stacked = _svdvals(np.stack(mats))
    for row, m in zip(stacked, mats):
        assert np.array_equal(row, _svdvals(m))


def pdm(st, s, suffix=""):
    """The state's d (or second d) as a validated matrix, scaled to ||d||_s = 1."""
    return PositiveDefiniteMatrix.from_spectral(*_normalized_spectrum(
        st["logspec" + suffix], st["unitary" + suffix], s))


def public_ratio(oid, st):
    """The ratio of the state through the public, validating functions."""
    prm = PARAMS[oid]
    if oid == "main":
        cfg = ExponentConfig(prm["alpha"], prm["s"], prm["r"])
        return main_ratio(pdm(st, cfg.s), st["x"], cfg)
    if oid == "interp":
        return interp_corollary_ratio(pdm(st, prm["s"]), st["x"],
                                      prm["eps"], prm["s"], prm["r"])
    if oid in ("eq1-plus", "eq1-minus"):
        return eq1_ratio(pdm(st, prm["p"]), st["x"], prm["p"], prm["q"],
                         +1 if oid == "eq1-plus" else -1)
    if oid == "eq2":
        return powers_diff_ratio(pdm(st, prm["p"]), pdm(st, prm["p"], "2"),
                                 prm["p"], prm["q"])
    if oid in ("mazur", "abs-power"):
        return mazur_lipschitz_ratio(st["x"], st["y"], prm["p"], prm["q"],
                                     variant=oid)
    if oid == "tmap":
        return tmap_ratio(pdm(st, prm["s"]), st["x"],
                          TMapParams(prm["beta"], prm["gamma"]),
                          prm["s"], prm["r"])
    d = pdm(st, prm["p"])
    x = st["x"]
    return _safe_ratio(schatten_norm(x @ d.mat, prm["p"]),
                       schatten_norm(d.mat @ x + x @ d.mat, prm["p"]))


@pytest.mark.parametrize("oid", sorted(PARAMS))
@pytest.mark.parametrize("dim,laws", [
    (3, {}), (8, {"spectrum_law": "clustered-pairs", "x_law": "rank-one"}),
    (16, {"spectrum_law": "geometric", "x_law": "hermitian-gaussian"})])
def test_evaluator_equals_public_ratio(oid, dim, laws):
    for start in range(3):
        st = state(oid, dim=dim, seed=17, start=start, **laws)
        assert evaluate(oid, st) == public_ratio(oid, st)


@pytest.mark.parametrize("oid", DX)
def test_nan_in_unitary(oid):
    # unitarity is checked once per unitary array, and the dx ratios never
    # form d, so that check must refuse a non-finite entry itself
    st = state(oid)
    st["unitary"] = st["unitary"].copy()
    st["unitary"][0, 1] = np.nan
    with pytest.raises(ValidationError, match="not unitary"):
        evaluate(oid, st)


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


def spectra_with_clip_ties(seed):
    """(log-spectrum, unitary) pairs: every spectrum law's draws, and draws
    with several entries past each clip, which clip to exact ties whose
    order the sort must keep."""
    rng = np.random.default_rng(seed)
    for law, dim in itertools.product(SPECTRUM_LAWS, range(1, 17)):
        st = state("main", dim=dim, seed=seed, spectrum_law=law)
        yield st["logspec"], st["unitary"]
    for dim in range(2, 17):
        logspec = rng.uniform(-2.0, 2.0, dim) * LOG_SPEC_CLIP
        logspec[rng.permutation(dim)[:2]] = [LOG_SPEC_CLIP, -LOG_SPEC_CLIP - 1.0]
        yield logspec, _haar_unitary(rng, dim)


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0 / 3.0, math.inf])
def test_normalized_spectrum_sorts_once_with_the_same_bits(s):
    ties = 0
    for logspec, u in spectra_with_clip_ties(seed=9):
        lam, v = _normalized_spectrum(logspec, u, s)
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


def ratio_pairs():
    """(name, the s-norm d is scaled by, eigenbasis ratio of (lam, V, x),
    formed ratio of (dm, lam, V, x)) for each dx ratio at PARAMS."""
    cfg = ExponentConfig(*(PARAMS["main"][k] for k in ("alpha", "s", "r")))
    ip = PARAMS["interp"]
    eps, s, r = ip["eps"], ip["s"], ip["r"]
    p_int, _ = _exponents(s, r)
    p, q = PARAMS["eq1-plus"]["p"], PARAMS["eq1-plus"]["q"]
    tm = PARAMS["tmap"]
    tp = TMapParams(tm["beta"], tm["gamma"])
    tpq = _exponents(tm["s"], tm["r"], tp.alpha)
    return [
        ("main", cfg.s, lambda lam, v, x: _main(lam, v, x, cfg),
         lambda dm, lam, v, x: formed_main(dm, lam, v, x, cfg)),
        ("interp", s, lambda lam, v, x: _interp(lam, v, x, eps, s, r, p_int),
         lambda dm, lam, v, x: formed_interp(dm, x, eps, s, r, p_int)),
        ("eq1-plus", p, lambda lam, v, x: _eq1_plus(lam, v, x, p, q),
         lambda dm, lam, v, x: formed_eq1_plus(dm, lam, v, x, p, q)),
        ("tmap", tm["s"], lambda lam, v, x: _tmap_ratio(lam, v, x, tp, *tpq, tm["s"]),
         lambda dm, lam, v, x: formed_tmap(dm, lam, v, x, tp, *tpq, tm["s"])),
    ]


def dx_states(spectrum_law, seed):
    """Two start states of every x law at each dim from 1 to 16."""
    for x_law, dim, start in itertools.product(X_LAWS, range(1, 17), range(2)):
        spec = InstanceSpec(dim=dim, spectrum_law=spectrum_law, x_law=x_law, seed=seed)
        yield _initial_state(LAYOUTS["dx"], spec, _rng_for(seed, start))


def relative_gap(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("spectrum_law", SPECTRUM_LAWS)
def test_eigenbasis_ratios_agree_with_formed_matrices(spectrum_law):
    # largest gap here: 7.0e-13 (eq1-plus, clustered pairs, dim 10), from the
    # SVDs' absolute accuracy on the small singular values of graded products
    for st in dx_states(spectrum_law, seed=5):
        for name, s, eigen, formed in ratio_pairs():
            lam, v = _normalized_spectrum(st["logspec"], st["unitary"], s)
            dm = _power(lam, v, 1.0)
            got, want = eigen(lam, v, st["x"]), formed(dm, lam, v, st["x"])
            assert relative_gap(got, want) <= 1e-12, (name, lam.shape[0])


@pytest.mark.parametrize("spectrum_law", SPECTRUM_LAWS)
def test_eigenpair_order_moves_only_the_svd_rounding(spectrum_law):
    # Permuting the eigenpairs permutes the entries of every Schur product
    # exactly, and d's norms sort lam first; what moves is LAPACK's SVD of
    # the permuted product, accurate to eps * sigma_max, not relative to
    # each singular value.  On graded products that reaches the ratio: the
    # largest gap here is 4.9e-12 (eq1-plus, dim 11), where a singular value
    # of 2.3e-12 sigma_max moves by 5.6e-6 of itself.
    for st in dx_states(spectrum_law, seed=6):
        n = st["x"].shape[0]
        perm = np.random.default_rng(n).permutation(n)
        for name, s, eigen, _ in ratio_pairs():
            lam, v = _normalized_spectrum(st["logspec"], st["unitary"], s)
            got = eigen(lam[perm], v[:, perm], st["x"])
            assert relative_gap(got, eigen(lam, v, st["x"])) <= 1e-11, (name, n)
