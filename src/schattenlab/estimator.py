"""Reproducible adversarial search over the inequality ratio objectives.

Instances are generated deterministically from a seed, hill-climbed with
multiplicative log-space perturbations of spectra and additive
perturbations of the off-diagonal element, and the best witness is
reported with a monotone improvement trace.  Identical inputs give
byte-identical reports; parallel workers merge in start-index order so the
worker count never changes the result.  A run of many searches opens one
pool (open_pool) and hands it to every maximize call, which maps its
starts over it in one chunk per worker.

The validated matrix classes of matcore are for input to the public API.
The search computes on plain arrays: each objective's evaluator calls the
same array function as the public ratio function, with the same
arithmetic, so both give the same bits on the same state.  Finiteness and
positivity are checked on every evaluation; unitarity once per unitary.
"""

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import numpy.random  # noqa: F401  -- loaded lazily; forked pool workers inherit it

from .kernels import TMapParams, rx_kernel
from .matcore import (DomainError, NumericalError, PositiveDefiniteMatrix,
                      ValidationError, _as_array, _check_unitary,
                      _positive_spectrum, _spectral_arrays)
from .mazur import (_check_pq, _eq1_minus, _eq1_plus, _interp, _main,
                    _mazur_lipschitz, _powers_diff, _safe_ratio, _tmap_ratio)
from .schatten import (ExponentConfig, _check_alpha, _exponents,
                       _power_sum_norm, schatten_norm)
from .strip import AnalyticFamily, BoundaryGridCache, convexity_defect

SPECTRUM_LAWS = ("log-uniform", "clustered-pairs", "geometric")
X_LAWS = ("gaussian-complex", "hermitian-gaussian", "rank-one", "unitary")

LOG_SPEC_RANGE = math.log(1e3)   # spectra drawn log-uniform over [1e-3, 1e3]
LOG_SPEC_CLIP = 8.0              # hill climbing keeps log-eigenvalues in [-8, 8]

DEFAULT_SCHEDULE = (0.5, 1e-3)   # geometric step decay over the budget
REVIEW_JITTER = 1e-6             # step of the flag review's jittered copies


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one random instance family."""

    dim: int
    spectrum_law: str = "log-uniform"
    x_law: str = "gaussian-complex"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.dim <= 64:
            raise ValidationError("dim must be in [1, 64], got %r" % (self.dim,))
        if self.spectrum_law not in SPECTRUM_LAWS:
            raise ValidationError("unknown spectrum law %r" % (self.spectrum_law,))
        if self.x_law not in X_LAWS:
            raise ValidationError("unknown x law %r" % (self.x_law,))


@dataclass
class RatioReport:
    """Outcome of one adversarial search."""

    objective_id: str
    exponents: dict
    best_ratio: float
    witness: dict
    trace: list                  # [[iteration, ratio], ...], monotone
    seed: int
    flagged_instances: int
    flagged_witnesses: list
    starts: int
    budget: int
    spec: dict
    direction: str

    def plateau_improvement(self):
        """Relative improvement over the final quarter of the trace."""
        if self.budget == 0 or not self.trace:
            return 0.0
        cut = 0.75 * self.budget
        at_cut = self.trace[0][1]
        for it, val in self.trace:
            if it <= cut:
                at_cut = val
            else:
                break
        final = self.trace[-1][1]
        if at_cut == 0.0:
            return math.inf if final != at_cut else 0.0
        return abs(final - at_cut) / abs(at_cut)

    def to_dict(self):
        # the fields themselves: asdict would deep-copy every witness and trace
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return dict(out, plateau_improvement=self.plateau_improvement())


def _rng_for(seed, start_index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(start_index,)))


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _haar_unitary(rng, n):
    z = _complex_gaussian(rng, (n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _draw_log_spectrum(rng, dim, law):
    if law == "log-uniform":
        return rng.uniform(-LOG_SPEC_RANGE, LOG_SPEC_RANGE, dim)
    if law == "clustered-pairs":
        half = (dim + 1) // 2
        base = rng.uniform(-LOG_SPEC_RANGE, LOG_SPEC_RANGE, half)
        out = np.empty(dim)
        out[:half] = base
        jitter = rng.uniform(-1e-10, 1e-10, dim - half)
        out[half:] = base[:dim - half] + jitter
        return out
    if law == "geometric":
        start = rng.uniform(-LOG_SPEC_RANGE, 0.0)
        step = rng.uniform(0.05, 2.0 * LOG_SPEC_RANGE / max(dim, 2))
        return start + step * np.arange(dim)
    raise ValidationError("unknown spectrum law %r" % (law,))


def _draw_x(rng, dim, law):
    if law == "gaussian-complex":
        return _complex_gaussian(rng, (dim, dim))
    if law == "hermitian-gaussian":
        a = _complex_gaussian(rng, (dim, dim))
        return 0.5 * (a + a.conj().T)
    if law == "rank-one":
        u = _complex_gaussian(rng, (dim, 1))
        v = _complex_gaussian(rng, (dim, 1))
        return u @ v.conj().T
    if law == "unitary":
        return _haar_unitary(rng, dim)
    raise ValidationError("unknown x law %r" % (law,))


def random_instance(spec):
    """(d, x) drawn deterministically from the spec."""
    rng = _rng_for(spec.seed, 0)
    logspec = _draw_log_spectrum(rng, spec.dim, spec.spectrum_law)
    u = _haar_unitary(rng, spec.dim)
    d = PositiveDefiniteMatrix.from_spectral(np.exp(logspec), u)
    x = _draw_x(rng, spec.dim, spec.x_law)
    return d, x


# --- objective machinery -------------------------------------------------

def _normalized_spectrum(logspec, s):
    """Spectrum exp(logspec), clipped, scaled to unit Schatten s-norm."""
    lam = np.exp(np.clip(logspec, -LOG_SPEC_CLIP, LOG_SPEC_CLIP))
    return lam / _power_sum_norm(np.sort(lam)[::-1], s)


def _normalized_pdm(logspec, unitary, s):
    """Positive matrix from log-spectrum and unitary, scaled to ||d||_s = 1."""
    return PositiveDefiniteMatrix.from_spectral(_normalized_spectrum(logspec, s),
                                                unitary)


def _spectrum_reader(s, log_key="logspec", unitary_key="unitary", formed=False):
    """state -> (lam, V) of d = _normalized_pdm(state[log_key],
    state[unitary_key], s): its eigenvalues ascending and its eigenvectors in
    that order, with the checks of from_spectral.  With formed, the reader
    also forms d and returns (d's matrix, lam, V); only the objectives that
    do not work in d's eigenbasis need it.

    Positivity and finiteness of the spectrum are checked on every call.  A
    search never changes a start's unitary, so unitarity (which includes
    finiteness) is checked once per unitary array, on its first use; the
    arrays of a state are never modified in place.
    """
    arrays = _spectral_arrays if formed else _positive_spectrum
    checked = None

    def read(st):
        nonlocal checked
        u = st[unitary_key]
        out = arrays(_normalized_spectrum(st[log_key], s), u)
        if u is not checked:
            _check_unitary(np.asarray(u, dtype=complex), out[-2].shape[0])
            checked = u
        return out
    return read


def _triangular_ratio(dm, x, p):
    return _safe_ratio(schatten_norm(x @ dm, p), schatten_norm(dm @ x + x @ dm, p))


def _rx_ratio(logspec, x, alpha):
    lam = np.exp(np.clip(logspec, -LOG_SPEC_CLIP, LOG_SPEC_CLIP))
    k = rx_kernel(lam, alpha)
    num = schatten_norm(k * x, math.inf)
    den = schatten_norm(x, math.inf)
    if den == 0.0:
        return 0.0
    return num / den


class _Objective:
    """One registered ratio objective: state layout, exponent keys, evaluation.

    make_eval raises ValidationError for an exponent point it cannot
    evaluate; the config parser relies on that to validate grid points.
    """

    def __init__(self, kind, direction, make_eval, keys, optional=()):
        self.kind = kind            # "dx", "pair-pos", "pair-gen", "rx", "family"
        self.direction = direction  # "max" or "min"
        self.make_eval = make_eval  # params dict -> callable(state) -> float
        self.keys = keys            # float-valued exponent keys, grid order
        self.optional = optional    # the keys a grid may leave out


def _make_main(params):
    cfg = ExponentConfig(params["alpha"], params["s"], params["r"])
    spectrum = _spectrum_reader(cfg.s)
    return lambda st: _main(*spectrum(st), _as_array(st["x"]), cfg)


def _make_interp(params):
    eps, s, r = params["eps"], params["s"], params["r"]
    if not 0 < eps < 1:
        raise ValidationError("eps must be in (0, 1), got %r" % (eps,))
    p, _ = _exponents(s, r)
    spectrum = _spectrum_reader(s)
    return lambda st: _interp(*spectrum(st), _as_array(st["x"]), eps, s, r, p)


def _make_eq1(ratio, formed):
    def make(params):
        p, q = params["p"], params["q"]
        _check_pq(p, q)
        spectrum = _spectrum_reader(p, formed=formed)
        return lambda st: ratio(*spectrum(st), _as_array(st["x"]), p, q)
    return make


def _make_eq2(params):
    p, q = params["p"], params["q"]
    _check_pq(p, q)
    first = _spectrum_reader(p, formed=True)
    second = _spectrum_reader(p, "logspec2", "unitary2", formed=True)

    def ev(st):
        x, y = first(st), second(st)
        if np.abs(x[0] - y[0]).max() < 1e-14:
            return 0.0
        return _powers_diff(*x, *y, p, q)
    return ev


def _make_mazur(variant):
    def make(params):
        p, q = params["p"], params["q"]
        _check_pq(p, q)

        def ev(st):
            if np.abs(st["x"] - st["y"]).max() < 1e-14:
                return 0.0
            return _mazur_lipschitz(_as_array(st["x"]), _as_array(st["y"]),
                                    p, q, variant)
        return ev
    return make


def _make_tmap(params):
    tp = TMapParams(params["beta"], params["gamma"])
    s, r = params["s"], params["r"]
    p, q = _exponents(s, r, tp.alpha)
    spectrum = _spectrum_reader(s)
    return lambda st: _tmap_ratio(*spectrum(st), _as_array(st["x"]), tp, p, q, s)


def _make_triangular(params):
    p = params["p"]
    if not p > 0:
        raise ValidationError("p must be positive, got %r" % (p,))
    spectrum = _spectrum_reader(p, formed=True)
    return lambda st: _triangular_ratio(spectrum(st)[0], _as_array(st["x"]), p)


def _make_rx(params):
    alpha = params["alpha"]
    _check_alpha(alpha)
    return lambda st: _rx_ratio(st["logspec"], st["x"], alpha)


def _make_defect_min(params):
    alpha, q = params["alpha"], params["q"]
    _check_alpha(alpha)
    if not 0 < q <= 2:
        raise ValidationError("q must be in (0, 2], got %r" % (q,))
    gamma0 = params.get("gamma0", alpha / (1.0 + alpha))
    if not 0 < gamma0 < 1:
        raise ValidationError("gamma0 must be in (0, 1), got %r" % (gamma0,))

    def ev(st):
        d = _normalized_pdm(st["logspec"], st["unitary"], 2.0)
        fam = AnalyticFamily(d, st["x"], alpha)
        try:
            return convexity_defect(fam, gamma0, q,
                                    BoundaryGridCache(fam, gamma0))
        except ValidationError:
            return math.inf  # degenerate family: never an improvement
    return ev


# the only objective registry: the config parser reads each objective's
# exponent keys from here, all float-valued ("inf" where it makes sense)
OBJECTIVES = {
    "main": _Objective("dx", "max", _make_main, ("alpha", "s", "r")),
    "interp": _Objective("dx", "max", _make_interp, ("eps", "s", "r")),
    "eq1-plus": _Objective("dx", "max", _make_eq1(_eq1_plus, False), ("p", "q")),
    "eq1-minus": _Objective("dx", "max", _make_eq1(_eq1_minus, True), ("p", "q")),
    "eq2": _Objective("pair-pos", "max", _make_eq2, ("p", "q")),
    "mazur": _Objective("pair-gen", "max", _make_mazur("mazur"), ("p", "q")),
    "abs-power": _Objective("pair-gen", "max", _make_mazur("abs-power"),
                            ("p", "q")),
    "tmap": _Objective("dx", "max", _make_tmap, ("beta", "gamma", "s", "r")),
    "triangular-probe": _Objective("dx", "max", _make_triangular, ("p",)),
    "rx-probe": _Objective("rx", "max", _make_rx, ("alpha",)),
    "convexity-defect-min": _Objective("family", "min", _make_defect_min,
                                       ("alpha", "q", "gamma0"), ("gamma0",)),
}


def _initial_state(kind, spec, rng, diagonal=False):
    dim = spec.dim
    if kind in ("dx", "rx", "family"):
        st = {"logspec": _draw_log_spectrum(rng, dim, spec.spectrum_law),
              "unitary": np.eye(dim, dtype=complex) if diagonal
              else _haar_unitary(rng, dim),
              "x": _draw_x(rng, dim, spec.x_law)}
        if diagonal:
            st["x"] = np.diag(np.diagonal(st["x"])).astype(complex)
        return st
    if kind == "pair-pos":
        st = {"logspec": _draw_log_spectrum(rng, dim, spec.spectrum_law),
              "logspec2": _draw_log_spectrum(rng, dim, spec.spectrum_law)}
        if diagonal:
            st["unitary"] = st["unitary2"] = np.eye(dim, dtype=complex)
        else:
            st["unitary"] = _haar_unitary(rng, dim)
            st["unitary2"] = _haar_unitary(rng, dim)
        return st
    if kind == "pair-gen":
        return {"x": _draw_x(rng, dim, spec.x_law),
                "y": _draw_x(rng, dim, spec.x_law)}
    raise ValidationError("unknown objective kind %r" % (kind,))


def _matrix_bump(st, key, rng, step, x_law, diagonal):
    scale = max(np.abs(st[key]).max(), 1e-6)
    bump = step * scale * _complex_gaussian(rng, st[key].shape)
    if x_law == "hermitian-gaussian":
        bump = 0.5 * (bump + bump.conj().T)
    if diagonal:
        bump = np.diag(np.diagonal(bump))
    return bump


def _perturb(st, rng, step, x_law, diagonal=False):
    """One random proposal: perturb a random block of the state, or all of it.

    Blocks are the log-spectra (multiplicative moves) and the matrix parts
    (additive moves); pairs additionally get a translation move that shifts
    x and y by the same bump, which walks along the near-coincident ridge
    without collapsing the difference.
    """
    spectra = [k for k in ("logspec", "logspec2") if k in st]
    mats = [k for k in ("x", "y")
            if k in st and isinstance(st.get(k), np.ndarray) and st[k].ndim == 2]
    modes = ["all"] + (["spectra"] if spectra else []) + mats
    if len(mats) == 2:
        modes.append("translate")
    mode = modes[rng.integers(len(modes))]

    out = dict(st)
    if mode == "translate":
        bump = _matrix_bump(st, "x", rng, step, x_law, diagonal)
        out["x"] = st["x"] + bump
        out["y"] = st["y"] + bump
        return out
    if mode in ("all", "spectra"):
        for key in spectra:
            out[key] = st[key] + step * rng.standard_normal(st[key].shape)
    for key in mats:
        if mode in ("all", key):
            out[key] = st[key] + _matrix_bump(st, key, rng, step, x_law, diagonal)
    return out


def _serialize_state(st):
    out = {}
    for key, val in st.items():
        arr = np.asarray(val)
        if np.iscomplexobj(arr):
            out[key] = {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        else:
            out[key] = arr.tolist()
    return out


def deserialize_state(blob):
    out = {}
    for key, val in blob.items():
        if isinstance(val, dict) and "re" in val:
            out[key] = np.asarray(val["re"], dtype=float) \
                + 1j * np.asarray(val["im"], dtype=float)
        else:
            out[key] = np.asarray(val, dtype=float)
    return out


def _step_at(i, budget):
    hi, lo = DEFAULT_SCHEDULE
    if budget <= 1:
        return hi
    return hi * (lo / hi) ** (i / (budget - 1))


def _run_start(args):
    (objective_id, params, spec, start_index, budget, diagonal) = args
    obj = OBJECTIVES[objective_id]
    score = obj.make_eval(params)
    rng = _rng_for(spec.seed, start_index)

    def evaluate(state, iteration):
        try:
            return score(state)
        except (NumericalError, DomainError) as exc:
            raise type(exc)("objective %s, start %d, iteration %d, seed %d: %s"
                            % (objective_id, start_index, iteration, spec.seed,
                               exc)) from exc

    st = _initial_state(obj.kind, spec, rng, diagonal)
    sign = 1.0 if obj.direction == "max" else -1.0
    flagged = 0
    flagged_states = []

    val = evaluate(st, 0)
    if math.isinf(val) and obj.direction == "max":
        flagged += 1
        flagged_states.append(_serialize_state(st))
        val = -math.inf
    best, best_st = val, st
    events = [(0, best)]

    # pattern moves: while a random perturbation keeps improving, repeat the
    # same displacement instead of drawing a fresh one -- this follows the
    # narrow ridges these ratio landscapes develop near their suprema
    delta = None
    for i in range(budget):
        if delta is not None:
            cand = {k: best_st[k] + delta[k] if k in delta else best_st[k]
                    for k in best_st}
        else:
            step = _step_at(i, budget)
            cand = _perturb(best_st, rng, step, spec.x_law, diagonal)
        try:
            v = evaluate(cand, i + 1)
        except ValidationError:
            delta = None
            continue
        if math.isinf(v) and obj.direction == "max":
            flagged += 1
            if len(flagged_states) < 3:
                flagged_states.append(_serialize_state(cand))
            delta = None
            continue
        if sign * v > sign * best:
            delta = {k: cand[k] - best_st[k] for k in cand
                     if isinstance(cand[k], np.ndarray)
                     and not np.array_equal(cand[k], best_st[k])}
            best, best_st = v, cand
            events.append((i + 1, best))
        else:
            delta = None

    return best, _serialize_state(best_st), events, flagged, flagged_states


def open_pool(jobs, starts):
    """Process pool for searches of `starts` starts at `jobs` jobs.

    At jobs > 1, a ProcessPoolExecutor of min(jobs, starts) workers: it
    forks all of them at once, and a worker beyond one per start would
    idle.  At one job, a context that yields None.
    """
    if jobs > 1:
        return ProcessPoolExecutor(max_workers=min(jobs, starts))
    return contextlib.nullcontext()


def maximize(objective_id, exponents, spec, budget, starts=16, jobs=1,
             diagonal=False, pool=None):
    """Multi-start hill climbing of a registered ratio objective.

    Returns a RatioReport; 'convexity-defect-min' minimizes instead.
    Identical arguments yield an identical report regardless of jobs.
    At jobs > 1 the starts are mapped over `pool` (from open_pool, sized
    for the same jobs and starts) in one chunk per worker; without a pool
    one is opened for this call alone.
    """
    if objective_id not in OBJECTIVES:
        raise ValidationError("unknown objective %r (known: %s)"
                              % (objective_id, ", ".join(sorted(OBJECTIVES))))
    if starts < 1:
        raise ValidationError("needs at least one start")
    obj = OBJECTIVES[objective_id]
    tasks = [(objective_id, dict(exponents), spec, idx, budget, diagonal)
             for idx in range(starts)]
    scope = open_pool(jobs, starts) if pool is None else contextlib.nullcontext(pool)
    with scope as pool:
        if pool is None:
            results = [_run_start(t) for t in tasks]
        else:
            chunk = -(-starts // min(jobs, starts))
            results = list(pool.map(_run_start, tasks, chunksize=chunk))

    sign = 1.0 if obj.direction == "max" else -1.0
    best_idx = 0
    for idx, res in enumerate(results):
        if sign * res[0] > sign * results[best_idx][0]:
            best_idx = idx

    # per-iteration global best across starts, reduced to change points
    per_start = []
    for res in results:
        vals = np.full(budget + 1, -sign * math.inf)
        for it, v in res[2]:
            vals[it:] = v
        per_start.append(vals)
    combined = per_start[0]
    for vals in per_start[1:]:
        combined = np.maximum(combined, vals) if sign > 0 else np.minimum(combined, vals)
    trace = []
    for it, v in enumerate(combined):
        if not trace or v != trace[-1][1]:
            trace.append([int(it), float(v)])

    flagged_total = sum(res[3] for res in results)
    flagged_witnesses = []
    for res in results:
        for fs in res[4]:
            if len(flagged_witnesses) < 5:
                flagged_witnesses.append(fs)

    return RatioReport(
        objective_id=objective_id,
        exponents=dict(exponents),
        best_ratio=float(results[best_idx][0]),
        witness=results[best_idx][1],
        trace=trace,
        seed=spec.seed,
        flagged_instances=flagged_total,
        flagged_witnesses=flagged_witnesses,
        starts=starts,
        budget=budget,
        spec={"dim": spec.dim, "spectrum_law": spec.spectrum_law,
              "x_law": spec.x_law, "diagonal": diagonal},
        direction=obj.direction,
    )


def replay_witness(report):
    """Re-evaluate the reported best witness; must reproduce best_ratio."""
    obj = OBJECTIVES[report.objective_id]
    evaluate = obj.make_eval(report.exponents)
    return evaluate(deserialize_state(report.witness))


def review_flagged(report, trials=3):
    """Replay each flagged near-kernel witness under small jitter.

    A flagged instance is benign when jittered copies yield finite,
    moderate ratios: the sentinel then reflects numerical degeneracy of
    the denominator.  A witness whose jittered ratios stay enormous would
    be a counterexample candidate.  Returns a list of verdict dicts.
    """
    obj = OBJECTIVES[report.objective_id]
    evaluate = obj.make_eval(report.exponents)
    scale = max(abs(report.best_ratio), 1.0)
    verdicts = []
    for widx, blob in enumerate(report.flagged_witnesses):
        st = deserialize_state(blob)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=report.seed, spawn_key=(0xF1A6, widx)))
        ratios = []
        for _ in range(trials):
            cand = _perturb(st, rng, REVIEW_JITTER,
                            report.spec.get("x_law", "gaussian-complex"),
                            report.spec.get("diagonal", False))
            try:
                v = evaluate(cand)
            except ValidationError:
                continue
            if math.isfinite(v):
                ratios.append(v)
        benign = bool(ratios) and max(ratios) <= 1e3 * scale
        verdicts.append({"witness_index": widx, "benign": benign,
                         "jittered_ratios": ratios})
    return verdicts
