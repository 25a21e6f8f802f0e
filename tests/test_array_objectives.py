"""The search objectives' evaluators against the public ratio functions.

The evaluators compute on plain arrays and check unitarity once per unitary
array.  These tests pin the exception class each evaluator raises for a bad
state, and that an evaluator and the public ratio function give the same
bits on the same state.
"""

import math

import numpy as np
import pytest

from schattenlab.estimator import (OBJECTIVES, InstanceSpec, _initial_state,
                                   _normalized_pdm, _rng_for, maximize,
                                   replay_witness)
from schattenlab.kernels import TMapParams, t_map
from schattenlab.matcore import NumericalError, ValidationError, _svdvals
from schattenlab.mazur import (_safe_ratio, eq1_ratio, interp_corollary_ratio,
                               main_ratio, mazur_lipschitz_ratio,
                               powers_diff_ratio)
from schattenlab.schatten import ExponentConfig, _exponents, schatten_norm

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
    return _initial_state(OBJECTIVES[oid].kind, spec, _rng_for(seed, start))


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

    @pytest.mark.parametrize("oid,exc", [("mazur", ValidationError),
                                         ("abs-power", NumericalError)])
    def test_power_overflow(self, oid, exc):
        # |x|^(p/q) = |x|^4 of entries near 1e200 overflows; for the Mazur
        # map that is a rejected proposal, not a failed run
        st = state(oid)
        st["x"] = 1e200 * st["x"]
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(exc):
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


def public_ratio(oid, st):
    """The ratio of the state through the public, validating functions."""
    prm = PARAMS[oid]
    if oid == "main":
        cfg = ExponentConfig(prm["alpha"], prm["s"], prm["r"])
        return main_ratio(_normalized_pdm(st["logspec"], st["unitary"], cfg.s),
                          st["x"], cfg)
    if oid == "interp":
        return interp_corollary_ratio(
            _normalized_pdm(st["logspec"], st["unitary"], prm["s"]), st["x"],
            prm["eps"], prm["s"], prm["r"])
    if oid in ("eq1-plus", "eq1-minus"):
        return eq1_ratio(_normalized_pdm(st["logspec"], st["unitary"], prm["p"]),
                         st["x"], prm["p"], prm["q"], +1 if oid == "eq1-plus" else -1)
    if oid == "eq2":
        return powers_diff_ratio(
            _normalized_pdm(st["logspec"], st["unitary"], prm["p"]),
            _normalized_pdm(st["logspec2"], st["unitary2"], prm["p"]),
            prm["p"], prm["q"])
    if oid in ("mazur", "abs-power"):
        return mazur_lipschitz_ratio(st["x"], st["y"], prm["p"], prm["q"],
                                     variant=oid)
    if oid == "tmap":
        tp = TMapParams(prm["beta"], prm["gamma"])
        p, q = _exponents(prm["s"], prm["r"], tp.alpha)
        d = _normalized_pdm(st["logspec"], st["unitary"], prm["s"])
        return _safe_ratio(schatten_norm(t_map(d, tp, st["x"]), q),
                           schatten_norm(st["x"], p)
                           * schatten_norm(d.mat, prm["s"]) ** tp.alpha)
    d = _normalized_pdm(st["logspec"], st["unitary"], prm["p"])
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
