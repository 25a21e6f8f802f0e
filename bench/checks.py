"""Output gate and work-conservation arithmetic for schattenlab reports.

An operation is one grid-point result (estimate) or one named check
(strip-check).  The gate decides which operations of a report failed; the
conservation helpers derive from the config how much work a run must do, so
that a speed-up can never come from doing less of it.
"""

import hashlib
import json
import math


def canonical(report):
    """The report without its wall-clock "timing" entry, as stable text."""
    body = {key: val for key, val in report.items() if key != "timing"}
    return json.dumps(body, sort_keys=True, indent=2, allow_nan=True)


def sha256(report):
    return hashlib.sha256(canonical(report).encode()).hexdigest()


def monotone(trace, direction):
    """Iterations strictly increase and ratios never move against direction."""
    its = [it for it, _ in trace]
    vals = [val for _, val in trace]
    if any(b <= a for a, b in zip(its, its[1:])):
        return False
    if direction == "max":
        return all(b >= a for a, b in zip(vals, vals[1:]))
    return all(b <= a for a, b in zip(vals, vals[1:]))


def entry_ok(experiment, entry):
    """Gate one operation of a report."""
    if experiment != "estimate":
        return entry["passed"] is True
    best = entry["best_ratio"]
    return (math.isfinite(best)
            and entry["replay_ratio"] == best       # bit-exact replay
            and monotone(entry["trace"], entry["direction"])
            and all(v["benign"] for v in entry["flag_review"]))


def failed_entries(report, reference=None):
    """Indices of failed operations; with a reference report of the same
    set, an operation whose result differs from the reference fails too."""
    failed = set()
    results = report["results"]
    for i, entry in enumerate(results):
        if not entry_ok(report["experiment"], entry):
            failed.add(i)
    if reference is None or canonical(report) == canonical(reference):
        return failed
    ref = reference["results"]
    differing = {i for i, (a, b) in enumerate(zip(results, ref))
                 if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)}
    if len(ref) != len(results) or not differing:
        # the report differs outside its per-operation results
        differing = set(range(max(len(ref), len(results), 1)))
    return failed | differing


def grid_points(cfg):
    return sum(len(grid) for _, grid in cfg["objectives"])


def expected_evals(cfg, report, review_trials):
    """Objective evaluations an estimate run must make.

    Each start evaluates its initial state and one proposal per budget
    step; each grid point adds one witness replay, and the flag review
    evaluates review_trials jittered copies of every stored flagged witness.
    """
    inst = cfg["instances"]
    flagged = sum(len(entry["flagged_witnesses"]) for entry in report["results"])
    return (grid_points(cfg) * (inst["starts"] * (inst["budget"] + 1) + 1)
            + review_trials * flagged)


def report_matches_config(cfg, report):
    """The report covers every grid point with the configured budget and
    starts (estimate), or echoes the configured family count (strip)."""
    if cfg["kind"] == "estimate":
        inst = cfg["instances"]
        return (len(report["results"]) == grid_points(cfg)
                and all(entry["starts"] == inst["starts"]
                        and entry["budget"] == inst["budget"]
                        for entry in report["results"]))
    echoed = report["config"].get("strip-check", {}).get("families")
    return echoed is not None and int(echoed) == cfg["strip"]["families"]


def expected_strip_calls(cfg, constancy_families, constancy_grid):
    """Layer call counts a strip-check run must make.

    boundary_measure: two per gamma0 for the Poisson-mass table, two per
    gamma0 in verify_poisson_mass, and two per random set in the doubling
    check; cosh_measure: two per set in the cosh doubling check;
    family_eval: both boundary lines at every grid point of every
    boundary-constancy family.
    """
    sc = cfg["strip"]
    gammas = len(sc["gamma0"])
    sets = sc["sets_per_gamma"]
    return {
        "strip.boundary_measure": 4 * gammas + 2 * sets * gammas,
        "strip.cosh_measure": 2 * sets,
        "strip.family_eval": 2 * constancy_families * constancy_grid,
    }


def work_count(cfg, report, review_trials):
    """Units of useful work in one pass: objective evaluations for an
    estimate run, boundary-grid families for a strip-check run."""
    if cfg["kind"] == "estimate":
        return expected_evals(cfg, report, review_trials)
    return cfg["strip"]["families"]
