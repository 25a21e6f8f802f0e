"""Tests of the benchmark's own arithmetic, gate and tracer.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import math
import textwrap

import pytest

import calibrate
import checks
import run
import tracer
from schattenlab import cli, estimator, schatten, strip, verify

TINY_ESTIMATE = """\
    [experiment]
    kind = estimate

    [instances]
    dim = 2
    budget = 3
    starts = 2

    [objective.main]
    alpha = 1
    s = 1.333333333333333333
    r = inf

    [objective.eq1-plus]
    p = 1
    q = 0.5
"""

TINY_STRIP = """\
    [experiment]
    kind = strip-check

    [strip-check]
    gamma0 = 0.25 0.5
    sets-per-gamma = 2
    families = 1
    q = 1
"""


def _config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(textwrap.dedent(text))
    return path


def _traced_pass(config, out):
    tr = tracer.Tracer()
    with tr:
        rc, _, report = run.run_pass(cli, config, 3, 1, out)
    return rc, report, tr


# --- self time ----------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert tracer.covered_ns(0, 100, []) == 0
    assert tracer.covered_ns(0, 100, [(10, 40), (30, 60)]) == 50
    assert tracer.covered_ns(0, 100, [(10, 20), (20, 30)]) == 20
    assert tracer.covered_ns(50, 100, [(0, 60), (90, 200)]) == 20
    assert tracer.covered_ns(0, 10, [(20, 30)]) == 0


def test_self_time_subtracts_child_cover():
    spans = [["root", 0, 100, -1, 0, tracer.OK, 0],
             ["a", 10, 40, 0, 0, tracer.OK, 0],
             ["b", 30, 60, 0, 0, tracer.OK, 0],
             ["c", 15, 20, 1, 0, tracer.OK, 0]]
    assert tracer.self_times_ns(spans) == [50, 25, 30, 5]


def test_aggregate_sums_per_name():
    spans = [["f", 0, 1000, -1, 0, tracer.OK, 27],
             ["g", 100, 400, 0, 0, tracer.RAISED, 0],
             ["f", 2000, 2500, -1, 1, tracer.INF, 8]]
    agg = tracer.aggregate(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["work"] == 35
    assert agg["f"]["inf"] == 1
    assert agg["g"]["raised"] == 1
    assert math.isclose(agg["f"]["self_s"], 1.2e-6)
    assert math.isclose(agg["f"]["total_s"], 1.5e-6)


# --- host calibration ---------------------------------------------------

def test_calibration_scales_each_time_by_the_kernels_around_it():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled([1.0, 2.0], [ref, ref, 2 * ref]) == pytest.approx([1.0, 4.0 / 3])
    with pytest.raises(ValueError):
        calibrate.scaled([1.0], [ref])


def test_kernel_block_runs_for_its_time():
    times = calibrate.sweeps(0.05)
    assert sum(times) >= 0.05
    assert sum(times[:-1]) < 0.05


@pytest.mark.parametrize("procs", [1, 2])
def test_calibrator_stops_its_helpers(procs):
    with calibrate.Calibrator(procs) as cal:
        helpers = [proc for proc, _ in cal.helpers]
        assert len(helpers) == (procs if procs > 1 else 0)
        assert cal.block(0.01) > 0
    assert cal.helpers == []
    assert not any(proc.is_alive() for proc in helpers)


# --- gate ---------------------------------------------------------------

def _entry(**changes):
    entry = {"best_ratio": 1.5, "replay_ratio": 1.5, "direction": "max",
             "trace": [[0, 1.0], [3, 1.5]], "flag_review": [{"benign": True}]}
    entry.update(changes)
    return entry


@pytest.mark.parametrize("changes", [
    {"best_ratio": math.inf, "replay_ratio": math.inf},
    {"best_ratio": -math.inf, "replay_ratio": -math.inf},
    {"replay_ratio": 1.5000000000000002},
    {"trace": [[0, 1.6], [3, 1.5]]},
    {"trace": [[3, 1.0], [3, 1.5]]},
    {"flag_review": [{"benign": False}]},
])
def test_gate_rejects(changes):
    assert checks.entry_ok("estimate", _entry())
    assert not checks.entry_ok("estimate", _entry(**changes))


def test_gate_counts_results_that_differ_between_passes():
    ref = {"experiment": "estimate", "results": [_entry(), _entry()], "timing": 1}
    same = {"experiment": "estimate", "results": [_entry(), _entry()], "timing": 2}
    moved = {"experiment": "estimate", "results": [_entry(), _entry(best_ratio=1.4,
                                                                    replay_ratio=1.4)]}
    assert checks.failed_entries(same, ref) == set()
    assert checks.failed_entries(moved, ref) == {1}
    assert checks.failed_entries({"experiment": "verify",
                                  "results": [{"passed": False}]}) == {0}


# --- work conservation --------------------------------------------------

def test_expected_evals_arithmetic(tmp_path):
    cfg = cli.load_config(str(_config(tmp_path, TINY_ESTIMATE)))
    report = {"results": [{"flagged_witnesses": [{}, {}]}, {"flagged_witnesses": []}]}
    # 2 grid points x (2 starts x (3 + 1) + 1 replay) + 3 trials x 2 flagged
    assert checks.expected_evals(cfg, report, 3) == 2 * (2 * 4 + 1) + 6


def test_traced_estimate_makes_exactly_the_implied_evaluations(tmp_path):
    config = _config(tmp_path, TINY_ESTIMATE)
    cfg = cli.load_config(str(config))
    rc, report, tr = _traced_pass(config, tmp_path / "r.json")
    assert rc == 0
    assert checks.report_matches_config(cfg, report)
    agg = tracer.aggregate(tr.spans)
    defaults = {"review_trials": 3}
    assert run.conservation_problems(cfg, report, agg, defaults) == []
    assert agg["estimator.eval"]["calls"] == checks.expected_evals(cfg, report, 3)
    assert agg["schatten.singular_values"]["work"] == 8 * agg["schatten.singular_values"]["calls"]
    # every search, replay and review of one grid point shares one root
    roots = {rec[4] for rec in tr.spans if rec[0].startswith("estimator.")}
    assert roots == {1, 2}   # root 0 is load_config


def test_traced_strip_check_matches_its_config(tmp_path):
    config = _config(tmp_path, TINY_STRIP)
    cfg = cli.load_config(str(config))
    rc, report, tr = _traced_pass(config, tmp_path / "r.json")
    assert rc == 0
    agg = tracer.aggregate(tr.spans)
    defaults = {"constancy_families": 50, "constancy_grid": 20}
    assert run.conservation_problems(cfg, report, agg, defaults) == []
    assert agg["strip.BoundaryGridCache"]["calls"] == 1
    assert agg["strip.boundary_measure"]["calls"] == 4 * 2 + 2 * 2 * 2


# --- wrapper removal ----------------------------------------------------

def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = tracer.bindings()
    original_sv = schatten.singular_values
    rc, _, tr = _traced_pass(_config(tmp_path, TINY_ESTIMATE), tmp_path / "r.json")
    assert rc == 0 and tr.spans
    assert not tr.installed
    assert tracer.same_bindings(before, tracer.bindings())
    assert schatten.singular_values is original_sv
    assert strip.singular_values is original_sv
    assert "from_spectral" in vars(estimator.PositiveDefiniteMatrix)


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = tracer.bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert verify.verify_poisson_mass is not before[("schattenlab.verify",
                                                            "verify_poisson_mass")]
            1 / 0
    assert tracer.same_bindings(before, tracer.bindings())


def test_nothing_stays_wrapped_when_install_fails(monkeypatch):
    before = tracer.bindings()
    monkeypatch.setitem(estimator.OBJECTIVES, "broken", object())   # no make_eval
    with pytest.raises(AttributeError):
        with tracer.Tracer():
            pass
    monkeypatch.undo()
    assert tracer.same_bindings(before, tracer.bindings())
