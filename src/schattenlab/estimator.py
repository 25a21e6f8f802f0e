"""Reproducible adversarial search over the inequality ratio objectives.

Instances are drawn deterministically from an InstanceSpec, the whole
recipe (seed and diagonal included; a report's spec block and seed
rebuild it), hill-climbed with multiplicative log-space perturbations of
spectra and additive perturbations of the off-diagonal element, and the
best witness is reported with a monotone improvement trace.  On
commuting instances (diagonal, or dim 1) every convexity-defect-min
family is degenerate, so that search is refused.  Identical inputs give
byte-identical reports; results merge in start-index order, so the
number of jobs never changes the result.  run_searches runs a list of
searches, forking its children once; maximize runs one.  A start returns
its states as arrays; maximize serializes only the witnesses it reports.
multiprocessing is imported at jobs > 1 only, so importing the package
loads none of it.  Each result carries a diagnostics block of
deterministic search counters.

A state is a dict of arrays whose blocks LAYOUTS lists per objective
kind.  The ratios on one d and one x are unitarily invariant, so a dx
state is d = diag(exp(logspec)), clipped and scaled, and x in d's
eigenbasis; eq2's first matrix is diagonal too.  Replay refuses a witness
whose blocks differ from its layout's.

The validated matrix classes of matcore are for input to the public API.
The search computes on plain arrays: each objective's evaluator calls the
same array function as the public ratio function, with the same
arithmetic, so both give the same bits on the same state.  Finiteness and
positivity are checked on every evaluation; unitarity once per unitary.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
import numpy.random  # noqa: F401  -- loaded lazily; forked children inherit it

from .kernels import TMapParams, rx_kernel
from .matcore import (MAX_DIM, DomainError, NumericalError, ValidationError,
                      _as_array, _check_unitary, _power, _positive_order,
                      _svdvals)
# bench/tests/test_bench.py reads estimator.PositiveDefiniteMatrix
from .matcore import PositiveDefiniteMatrix  # noqa: F401
from .mazur import (_check_pq, _eq1_minus, _eq1_plus, _interp,
                    _interp_exponent, _main, _mazur_lipschitz, _powers_diff,
                    _safe_ratio, _tmap_ratio)
from .schatten import (ExponentConfig, _check_alpha, _check_exponent,
                       _exponents, _power_sum_norm)
from .strip import (AnalyticFamily, BoundaryGridCache, _check_defect_q,
                    _check_gamma0, convexity_defect)

SPECTRUM_LAWS = ("log-uniform", "clustered-pairs", "geometric")
X_LAWS = ("gaussian-complex", "hermitian-gaussian", "rank-one", "unitary")

LOG_SPEC_RANGE = math.log(1e3)   # spectra drawn log-uniform over [1e-3, 1e3]
LOG_SPEC_CLIP = 8.0              # hill climbing keeps log-eigenvalues in [-8, 8]

DEFAULT_SCHEDULE = (0.5, 1e-3)   # geometric step decay over the budget
REVIEW_JITTER = 1e-6             # step of the flag review's jittered copies

# the counters of a report's diagnostics block, summed over its starts:
# objective evaluations (the initial state and one proposal per budget
# step), accepted proposals, proposals that repeated the last accepted
# displacement (pattern moves) and those of them accepted, proposals
# refused with ValidationError, and +inf sentinels of a maximized objective
DIAGNOSTICS = ("evaluations", "accepted", "pattern_moves", "pattern_accepted",
               "rejected", "flagged")


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one random instance family; diagonal ones commute."""

    dim: int
    spectrum_law: str = "log-uniform"
    x_law: str = "gaussian-complex"
    seed: int = 0
    diagonal: bool = False

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValidationError("dim must be in [1, %d], got %r" % (MAX_DIM, self.dim))
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
    diagnostics: dict            # DIAGNOSTICS, summed over the starts

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
        # a sentinel (every initial state flagged or degenerate) or zero at
        # the cut has no relative change: any move from it is infinite
        if at_cut == 0.0 or math.isinf(at_cut):
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
    # geometric, the last law InstanceSpec admits
    start = rng.uniform(-LOG_SPEC_RANGE, 0.0)
    step = rng.uniform(0.05, 2.0 * LOG_SPEC_RANGE / max(dim, 2))
    return start + step * np.arange(dim)


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
    # unitary, the last law InstanceSpec admits
    return _haar_unitary(rng, dim)


# --- objective machinery -------------------------------------------------

def _spectrum(logspec):
    """exp(logspec), clipped, in logspec's order."""
    # minimum(maximum(...)) is clip's arithmetic without its overhead; a NaN
    # passes through both to _positive_order
    return np.exp(np.minimum(np.maximum(logspec, -LOG_SPEC_CLIP), LOG_SPEC_CLIP))


def _normalized_spectrum(logspec, s):
    """(lam, order): _spectrum(logspec) scaled to ||d||_s = 1, in logspec's
    order, and the stable order that sorts it; ValidationError unless > 0."""
    lam = _spectrum(logspec)
    order = _positive_order(lam)
    return lam / _power_sum_norm(lam[order[::-1]], s), order


def _eigen_state(st, s):
    """(lam ascending, the state's x with rows and columns in that order) of
    a dx state normalized at s: the arguments of the dx array functions."""
    lam, order = _normalized_spectrum(st["logspec"], s)
    return lam[order], _as_array(st["x"])[order[:, None], order]


def _triangular_ratio(lam, x, p):
    sv = _svdvals(np.array((x * lam, x * np.add.outer(lam, lam))))
    return _safe_ratio(_power_sum_norm(sv[0], p), _power_sum_norm(sv[1], p))


def _rx_ratio(logspec, x, alpha):
    x = _as_array(x)   # a real x takes the complex SVD, as every state's x
    lam = _spectrum(logspec)
    _positive_order(lam)   # a check only: the kernel reads lam in state order
    sv = _svdvals(np.array((rx_kernel(lam, alpha) * x, x)))
    return _safe_ratio(_power_sum_norm(sv[0], math.inf),
                       _power_sum_norm(sv[1], math.inf))


class _Objective:
    """One registered ratio objective: state layout, exponent keys, evaluation.

    make_eval raises ValidationError for an exponent point it cannot
    evaluate; _check_point relies on that to refuse a point before any start.
    """

    def __init__(self, kind, direction, make_eval, keys, optional=()):
        self.kind = kind            # the key of the state's LAYOUTS entry
        self.direction = direction  # "max" or "min"
        self.make_eval = make_eval  # params dict -> callable(state) -> float
        self.keys = keys            # float-valued exponent keys, grid order
        self.optional = optional    # the keys a grid may leave out


def _make_main(params):
    cfg = ExponentConfig(params["alpha"], params["s"], params["r"])
    return lambda st: _main(*_eigen_state(st, cfg.s), cfg)


def _make_interp(params):
    eps, s, r = params["eps"], params["s"], params["r"]
    p = _interp_exponent(eps, s, r)
    return lambda st: _interp(*_eigen_state(st, s), eps, s, r, p)


def _make_eq1(ratio):
    def make(params):
        p, q = params["p"], params["q"]
        _check_pq(p, q)
        return lambda st: ratio(*_eigen_state(st, p), p, q)
    return make


def _formed_eq1_minus(lam, x, p, q):
    return _eq1_minus(np.diag(lam), np.diag(lam ** (p / q)), lam, x, p, q)


def _make_eq2(params):
    p, q = params["p"], params["q"]
    _check_pq(p, q)
    # a search never changes a start's unitary nor any array in place, so
    # unitarity (which includes finiteness) is checked once per unitary
    checked = None

    def ev(st):
        nonlocal checked
        lam, _ = _normalized_spectrum(st["logspec"], p)
        mu, order = _normalized_spectrum(st["logspec2"], p)
        if st["unitary2"] is not checked:
            _check_unitary(st["unitary2"], mu.shape[0])
            checked = st["unitary2"]
        mu, v = mu[order], checked[:, order]
        return _powers_diff(np.diag(lam), np.diag(lam ** (p / q)),
                            _power(mu, v, 1.0), _power(mu, v, p / q), p, q)
    return ev


def _make_mazur(variant):
    def make(params):
        p, q = params["p"], params["q"]
        _check_pq(p, q)
        return lambda st: _mazur_lipschitz(_as_array(st["x"]), _as_array(st["y"]),
                                           p, q, variant)
    return make


def _make_tmap(params):
    tp = TMapParams(params["beta"], params["gamma"])
    s, r = params["s"], params["r"]
    p, q = _exponents(s, r, tp.alpha)
    return lambda st: _tmap_ratio(*_eigen_state(st, s), tp, p, q, s)


def _make_triangular(params):
    p = params["p"]
    _check_exponent(p)
    return lambda st: _triangular_ratio(*_eigen_state(st, p), p)


def _make_rx(params):
    alpha = params["alpha"]
    _check_alpha(alpha)
    return lambda st: _rx_ratio(st["logspec"], st["x"], alpha)


def _make_defect_min(params):
    alpha, q = params["alpha"], params["q"]
    _check_alpha(alpha)
    _check_defect_q(q)
    gamma0 = params.get("gamma0", alpha / (1.0 + alpha))
    _check_gamma0(gamma0)

    def ev(st):
        fam = AnalyticFamily._of_eigenbasis(*_eigen_state(st, 2.0), alpha)
        try:
            return convexity_defect(BoundaryGridCache(fam, gamma0), q)
        except ValidationError:
            return math.inf  # degenerate family: never an improvement
    return ev


# the only objective registry: the config parser reads each objective's
# exponent keys from here, all float-valued ("inf" where it makes sense)
OBJECTIVES = {
    "main": _Objective("dx", "max", _make_main, ("alpha", "s", "r")),
    "interp": _Objective("dx", "max", _make_interp, ("eps", "s", "r")),
    "eq1-plus": _Objective("dx", "max", _make_eq1(_eq1_plus), ("p", "q")),
    "eq1-minus": _Objective("dx", "max", _make_eq1(_formed_eq1_minus), ("p", "q")),
    "eq2": _Objective("pair-pos", "max", _make_eq2, ("p", "q")),
    "mazur": _Objective("pair-gen", "max", _make_mazur("mazur"), ("p", "q")),
    "abs-power": _Objective("pair-gen", "max", _make_mazur("abs-power"),
                            ("p", "q")),
    "tmap": _Objective("dx", "max", _make_tmap, ("beta", "gamma", "s", "r")),
    "triangular-probe": _Objective("dx", "max", _make_triangular, ("p",)),
    "rx-probe": _Objective("dx", "max", _make_rx, ("alpha",)),
    "convexity-defect-min": _Objective("dx", "min", _make_defect_min,
                                       ("alpha", "q", "gamma0"), ("gamma0",)),
}


# each objective kind's state blocks (log-spectra, unitaries, matrices), in
# draw order; a search never moves a unitary, and under diagonal every
# unitary is the identity and every matrix diagonal
LAYOUTS = {
    "dx": (("logspec",), (), ("x",)),
    "pair-pos": (("logspec", "logspec2"), ("unitary2",), ()),
    "pair-gen": ((), (), ("x", "y")),
}


def _initial_state(layout, spec, rng):
    spectra, unitaries, mats = layout
    st = {k: _draw_log_spectrum(rng, spec.dim, spec.spectrum_law) for k in spectra}
    for k in unitaries:
        st[k] = np.eye(spec.dim, dtype=complex) if spec.diagonal \
            else _haar_unitary(rng, spec.dim)
    for k in mats:
        x = _draw_x(rng, spec.dim, spec.x_law)
        st[k] = np.diag(np.diagonal(x)).astype(complex) if spec.diagonal else x
    return st


def _matrix_bump(st, key, rng, step, spec):
    scale = max(np.abs(st[key]).max(), 1e-6)
    bump = step * scale * _complex_gaussian(rng, st[key].shape)
    if spec.x_law == "hermitian-gaussian":
        bump = 0.5 * (bump + bump.conj().T)
    if spec.diagonal:
        bump = np.diag(np.diagonal(bump))
    return bump


def _perturb(st, layout, rng, step, spec):
    """One random proposal: perturb a random block of the state, or all of it.

    Blocks are the log-spectra (multiplicative moves) and the matrix parts
    (additive moves) of the layout; pairs additionally get a translation move
    that shifts x and y by the same bump, which walks along the
    near-coincident ridge without collapsing the difference.
    """
    spectra, _, mats = layout
    modes = ["all"] + (["spectra"] if spectra else []) + list(mats)
    if len(mats) == 2:
        modes.append("translate")
    mode = modes[rng.integers(len(modes))]

    out = dict(st)
    if mode == "translate":
        bump = _matrix_bump(st, "x", rng, step, spec)
        out["x"] = st["x"] + bump
        out["y"] = st["y"] + bump
        return out
    if mode in ("all", "spectra"):
        for key in spectra:
            out[key] = st[key] + step * rng.standard_normal(st[key].shape)
    for key in mats:
        if mode in ("all", key):
            out[key] = st[key] + _matrix_bump(st, key, rng, step, spec)
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


def _run_start(objective_id, params, spec, start_index, budget):
    """One start's hill climb: (best value, best state, improvement events,
    DIAGNOSTICS counts, up to 3 flagged states), states as dicts of arrays;
    a state's arrays are never changed in place once made."""
    obj = OBJECTIVES[objective_id]
    score = obj.make_eval(params)
    rng = _rng_for(spec.seed, start_index)
    counts = dict.fromkeys(DIAGNOSTICS, 0)

    def evaluate(state, iteration):
        counts["evaluations"] += 1
        try:
            return score(state)
        except (NumericalError, DomainError) as exc:
            raise type(exc)("objective %s, start %d, iteration %d, seed %d: %s"
                            % (objective_id, start_index, iteration, spec.seed,
                               exc)) from exc

    layout = LAYOUTS[obj.kind]
    moved = layout[0] + layout[2]
    st = _initial_state(layout, spec, rng)
    sign = 1.0 if obj.direction == "max" else -1.0
    flagged_states = []

    val = evaluate(st, 0)
    if math.isinf(val) and obj.direction == "max":
        counts["flagged"] += 1
        flagged_states.append(st)
        val = -math.inf
    best, best_st = val, st
    events = [(0, best)]

    # pattern moves: while a random perturbation keeps improving, repeat the
    # same displacement instead of drawing a fresh one -- this follows the
    # narrow ridges these ratio landscapes develop near their suprema
    delta = None
    for i in range(budget):
        pattern = delta is not None
        counts["pattern_moves"] += pattern
        if pattern:
            cand = {k: best_st[k] + delta[k] if k in delta else best_st[k]
                    for k in best_st}
        else:
            step = _step_at(i, budget)
            cand = _perturb(best_st, layout, rng, step, spec)
        try:
            v = evaluate(cand, i + 1)
        except ValidationError:
            counts["rejected"] += 1
            delta = None
            continue
        if math.isinf(v) and obj.direction == "max":
            counts["flagged"] += 1
            if len(flagged_states) < 3:
                flagged_states.append(cand)
            delta = None
            continue
        if sign * v > sign * best:
            counts["accepted"] += 1
            counts["pattern_accepted"] += pattern
            delta = {k: cand[k] - best_st[k] for k in moved
                     if not (cand[k] == best_st[k]).all()}
            best, best_st = v, cand
            events.append((i + 1, best))
        else:
            delta = None

    return best, best_st, events, counts, flagged_states


def _merged_trace(events, sign):
    """Change points [[iteration, value], ...] of the best value over all
    starts, from each start's improvement events (iteration, best so far);
    sign is +1 to maximize, -1 to minimize."""
    trace = []
    # at one iteration the best event sorts first
    for it, v in sorted((e for start in events for e in start),
                        key=lambda e: (e[0], -sign * e[1])):
        if not trace or sign * v > sign * trace[-1][1]:
            trace.append([int(it), float(v)])
    return trace


def _fork_context():
    """multiprocessing's fork context; ValidationError where this platform
    has no fork, since the search's children must inherit the parent's
    state (its registered objectives included)."""
    # imported here: multiprocessing (with socket, selectors, ...) costs
    # every import of the package otherwise
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ValidationError("jobs > 1 needs the 'fork' start method,"
                              " which this platform lacks")
    return multiprocessing.get_context("fork")


def _child(searches, spec, budget, indices, conn):
    """A forked child's work: its range of start indices of every search,
    in order, one message per search down conn: the list of those starts'
    results, or the exception that stopped them."""
    for objective_id, exponents in searches:
        try:
            msg = [_run_start(objective_id, exponents, spec, idx, budget)
                   for idx in indices]
        except Exception as exc:   # any class: the parent re-raises it in start order
            msg = exc
        conn.send(msg)


def _search_objective(objective_id, spec):
    """The registered objective; ValidationError unless spec can search it."""
    if objective_id not in OBJECTIVES:
        raise ValidationError("unknown objective %r (known: %s)"
                              % (objective_id, ", ".join(sorted(OBJECTIVES))))
    if objective_id == "convexity-defect-min" and (spec.diagonal or spec.dim == 1):
        # d and x commute, so every family is constant on the boundary
        raise ValidationError("objective 'convexity-defect-min' has no non-degenerate"
                              " family when d and x commute (diagonal or dim 1)")
    return OBJECTIVES[objective_id]


def _check_point(objective_id, obj, exponents):
    """ValidationError, naming the point, unless obj reads and can evaluate it."""
    for key in exponents:
        if key not in obj.keys:
            raise ValidationError("objective %r: unexpected key %r" % (objective_id, key))
    for key in obj.keys:
        if key not in exponents and key not in obj.optional:
            raise ValidationError("objective %r: missing key %r" % (objective_id, key))
    try:
        obj.make_eval(exponents)
    except ValidationError as exc:
        raise ValidationError("objective %r grid point %r rejected: %s"
                              % (objective_id, exponents, exc))


def run_searches(searches, spec, budget, starts=16, jobs=1):
    """One RatioReport per (objective_id, exponents) pair of searches, in
    order, from a generator that owns the run's fork-join.

    Each search's starts are cut into at most min(jobs, starts) contiguous
    shares.  At the first read one child per share but the first is
    forked, which runs that share of every search; this process runs
    share 0 of each search as it is read, inside its maximize.  Every
    child has been joined once the generator finishes or is closed.  The
    starts, the searches and, at jobs > 1, the platform's fork are checked
    here, before any start: ValidationError for no start, an unknown or
    refused objective, an exponent point it cannot evaluate, or no fork.
    """
    if starts < 1:
        raise ValidationError("needs at least one start")
    searches = [(objective_id, dict(exponents)) for objective_id, exponents in searches]
    for objective_id, exponents in searches:
        _check_point(objective_id, _search_objective(objective_id, spec), exponents)
    ctx = _fork_context() if jobs > 1 else None
    chunk = -(-starts // min(jobs, starts))
    # ceil(starts / chunk) shares: none of them empty
    shares = [range(lo, min(lo + chunk, starts)) for lo in range(0, starts, chunk)]
    return _reports(ctx, shares, searches, spec, budget, starts, jobs)


def _reports(ctx, shares, searches, spec, budget, starts, jobs):
    children = []          # (process, receiving end), one per share but the first
    unread = len(searches)

    def started(objective_id, exponents):
        """The search's results in start order: share 0 run here, then each
        child's next message; the first failing start raises."""
        for idx in shares[0]:
            yield _run_start(objective_id, exponents, spec, idx, budget)
        for share, (proc, conn) in enumerate(children, 1):
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                proc.join()
                raise RuntimeError("the child running share %d of %d exited"
                                   " with code %s before sending its results"
                                   % (share, len(shares), proc.exitcode))
            if isinstance(msg, BaseException):
                raise msg
            yield from msg

    try:
        for indices in shares[1:]:
            mine, theirs = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, daemon=True,
                               args=(searches, spec, budget, indices, theirs))
            proc.start()
            # the child's copy alone keeps the pipe open: EOF once it exits
            theirs.close()
            children.append((proc, mine))
        for objective_id, exponents in searches:
            # through the module's name: a wrapper of maximize sees each search
            report = maximize(objective_id, exponents, spec, budget, starts, jobs,
                              _started=started(objective_id, exponents))
            unread -= 1
            yield report
    finally:
        # a child still owing messages is terminated, not waited for
        for proc, conn in children:
            if unread:
                proc.terminate()
            proc.join()
            conn.close()


def maximize(objective_id, exponents, spec, budget, starts=16, jobs=1,
             _started=None):
    """Multi-start hill climbing of a registered ratio objective: the report
    of run_searches over this one search.

    Returns a RatioReport; 'convexity-defect-min' minimizes instead.
    Identical arguments yield an identical report regardless of jobs.
    run_searches passes _started, the search's start results in start
    order, for this call to run and merge.  Only the winning start's state
    and the reported flagged states are serialized.
    """
    if _started is None:
        (report,) = run_searches([(objective_id, exponents)], spec, budget,
                                 starts, jobs)
        return report
    results = list(_started)
    obj = OBJECTIVES[objective_id]

    sign = 1.0 if obj.direction == "max" else -1.0
    best_idx = 0
    for idx, res in enumerate(results):
        if sign * res[0] > sign * results[best_idx][0]:
            best_idx = idx

    trace = _merged_trace([res[2] for res in results], sign)

    diagnostics = {key: sum(res[3][key] for res in results) for key in DIAGNOSTICS}
    flagged = [st for res in results for st in res[4]][:5]

    return RatioReport(
        objective_id=objective_id,
        exponents=dict(exponents),
        best_ratio=float(results[best_idx][0]),
        witness=_serialize_state(results[best_idx][1]),
        trace=trace,
        seed=spec.seed,
        flagged_instances=diagnostics["flagged"],
        flagged_witnesses=[_serialize_state(st) for st in flagged],
        starts=starts,
        budget=budget,
        spec={f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "seed"},
        direction=obj.direction,
        diagnostics=diagnostics,
    )


def _witness_state(obj, blob):
    """A witness's state; ValidationError unless it has its layout's blocks."""
    st = deserialize_state(blob)
    want = sorted(sum(LAYOUTS[obj.kind], ()))
    if sorted(st) != want:
        raise ValidationError("witness has blocks %s; a %s state has %s"
                              % (sorted(st), obj.kind, want))
    return st


def replay_witness(report):
    """Re-evaluate the reported best witness; must reproduce best_ratio."""
    obj = OBJECTIVES[report.objective_id]
    evaluate = obj.make_eval(report.exponents)
    return evaluate(_witness_state(obj, report.witness))


def review_flagged(report, trials=3):
    """Replay each flagged near-kernel witness under small jitter.

    A flagged instance is benign when jittered copies yield finite,
    moderate ratios: the sentinel then reflects numerical degeneracy of
    the denominator.  A witness whose jittered ratios stay enormous would
    be a counterexample candidate.  Returns a list of verdict dicts.
    """
    obj = OBJECTIVES[report.objective_id]
    evaluate = obj.make_eval(report.exponents)
    spec = InstanceSpec(seed=report.seed, **report.spec)
    scale = max(abs(report.best_ratio), 1.0)
    verdicts = []
    for widx, blob in enumerate(report.flagged_witnesses):
        st = _witness_state(obj, blob)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=report.seed, spawn_key=(0xF1A6, widx)))
        ratios = []
        for _ in range(trials):
            cand = _perturb(st, LAYOUTS[obj.kind], rng, REVIEW_JITTER, spec)
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
