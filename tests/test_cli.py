import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenlab import cli, estimator
from schattenlab.matcore import NumericalError, ValidationError


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


ESTIMATE_CFG = """\
    [experiment]
    kind = estimate
    seed = 7

    [instances]
    dim = 3
    budget = 25
    starts = 2

    [objective.eq1-plus]
    p = 1
    q = 0.5
"""

STRIP_CFG = """\
    [experiment]
    kind = strip-check
    [strip-check]
    gamma0 = 0.5
    sets-per-gamma = 10
    families = 5
    q = 1
"""


class TestConfigParsing:
    def test_missing_experiment_section(self, tmp_path):
        path = write_config(tmp_path, "[instances]\ndim = 3\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_unknown_kind(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = frobnicate\n")
        with pytest.raises(cli.ConfigError, match="kind"):
            cli.load_config(path)

    def test_bad_number_names_key(self, tmp_path):
        path = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            [objective.main]
            alpha = one
            s = 2
            r = inf
        """)
        with pytest.raises(cli.ConfigError, match="alpha"):
            cli.load_config(path)

    def test_invalid_exponent_combination_rejected(self, tmp_path):
        path = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            [objective.eq2]
            p = 0.5
            q = 1
        """)
        with pytest.raises(cli.ConfigError, match="q"):
            cli.load_config(path)

    def test_unknown_objective_rejected(self, tmp_path):
        path = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            [objective.sharpest]
            p = 1
            q = 0.5
        """)
        with pytest.raises(cli.ConfigError, match="sharpest"):
            cli.load_config(path)

    def test_grid_expansion(self, tmp_path):
        path = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            [instances]
            dim = 3
            [objective.main]
            alpha = 0.5 1 2
            s = 1 2
            r = inf
        """)
        cfg = cli.load_config(path)
        (objective_id, grid), = cfg["objectives"]
        assert objective_id == "main"
        assert len(grid) == 6
        assert {pt["alpha"] for pt in grid} == {0.5, 1.0, 2.0}

    @pytest.mark.parametrize("text, value", [("on", True), ("Off", False),
                                             ("YES", True), ("0", False)])
    def test_diagonal_reads_configparser_booleans(self, tmp_path, text, value):
        path = write_config(tmp_path, ESTIMATE_CFG.replace(
            "dim = 3", "dim = 3\n    diagonal = %s" % text))
        assert cli.load_config(path)["instances"]["diagonal"] is value

    def test_diagonal_refuses_other_words(self, tmp_path, capsys):
        path = write_config(tmp_path, ESTIMATE_CFG.replace(
            "dim = 3", "dim = 3\n    diagonal = maybe"))
        with pytest.raises(cli.ConfigError, match="'diagonal': 'maybe'"):
            cli.load_config(path)
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: key 'diagonal'")

    def test_inf_parsing(self, tmp_path):
        path = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            [objective.main]
            alpha = 1
            s = 2
            r = inf
        """)
        cfg = cli.load_config(path)
        assert cfg["objectives"][0][1][0]["r"] == float("inf")


# two grid points of an objective that the failure tests replace
FAILING_CFG = """\
    [experiment]
    kind = estimate
    seed = 11
    [instances]
    dim = 3
    budget = 5
    starts = 3
    [objective.main]
    alpha = 1 2
    s = 2
    r = inf
"""


class TestRuns:
    def test_estimate_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        out = str(tmp_path / "report.json")
        status = cli.main(["--config", cfg, "--out", out])
        assert status == 0
        report = json.loads(Path(out).read_text())
        assert report["schema_version"] == 1
        assert report["experiment"] == "estimate"
        assert report["seed"] == 7
        assert len(report["results"]) == 1
        entry = report["results"][0]
        assert entry["objective_id"] == "eq1-plus"
        assert entry["replay_ratio"] == entry["best_ratio"]
        assert "config" in report and "experiment" in report["config"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        out = str(tmp_path / "r.json")
        cli.main(["--config", cfg, "--out", out, "--seed", "99"])
        assert json.loads(Path(out).read_text())["seed"] == 99

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_flag_reports_identical(self, tmp_path, jobs):
        # two objectives of two grid points each, all queued on one pool at
        # once; 5 starts divide evenly over neither 2 nor 3 workers
        cfg = write_config(tmp_path, POOL_CFG.replace("starts = 4", "starts = 5"))
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert cli.main(["--config", cfg, "--out", out1, "--jobs", "1"]) == 0
        assert cli.main(["--config", cfg, "--out", out2, "--jobs", str(jobs)]) == 0
        a = json.loads(Path(out1).read_text())
        b = json.loads(Path(out2).read_text())
        assert len(a["results"]) == 4
        assert all("diagnostics" in r for r in a["results"])
        assert cli.report_digest(a) == cli.report_digest(b)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_point_seconds_time_each_result(self, tmp_path, jobs):
        cfg = write_config(tmp_path, POOL_CFG)
        out = str(tmp_path / "r.json")
        assert cli.main(["--config", cfg, "--out", out, "--jobs", str(jobs)]) == 0
        report = json.loads(Path(out).read_text())
        seconds = report["timing"]["point_seconds"]
        assert len(seconds) == len(report["results"]) == 4
        assert all(s > 0.0 for s in seconds)
        assert sum(seconds) <= report["timing"]["wall_clock_seconds"]

    def test_verify_run(self, tmp_path):
        cfg = write_config(tmp_path, """\
            [experiment]
            kind = verify
            [verify]
            modules = matcore
        """)
        out = str(tmp_path / "v.json")
        status = cli.main(["--config", cfg, "--out", out])
        assert status == 0
        report = json.loads(Path(out).read_text())
        assert all(r["passed"] for r in report["results"])

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        out = str(tmp_path / "r.csv")
        status = cli.main(["--config", cfg, "--out", out, "--format", "csv"])
        assert status == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("objective_id,")
        assert lines[1].startswith("eq1-plus,")
        assert "witness" not in lines[0]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "[experiment]\nkind = bogus\n")
        assert cli.main(["--config", cfg]) == cli.EXIT_CONFIG_ERROR

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.ini")]) \
            == cli.EXIT_CONFIG_ERROR

    def test_unwritable_output_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        bad = str(tmp_path / "no" / "such" / "dir" / "r.json")
        assert cli.main(["--config", cfg, "--out", bad]) == cli.EXIT_CONFIG_ERROR

    def test_strip_check_small(self, tmp_path):
        cfg = write_config(tmp_path, STRIP_CFG)
        out = str(tmp_path / "s.json")
        status = cli.main(["--config", cfg, "--out", out])
        assert status == 0
        report = json.loads(Path(out).read_text())
        entry = report["tables"]["poisson_mass"][0]
        assert abs(entry["boundary1"] - 0.5) <= 1e-6
        assert abs(entry["full"] - 1.0) <= 1e-6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numerical_failure_exit_code_names_the_start(
            self, tmp_path, monkeypatch, capsys, failing_objective, jobs):
        # every start fails; at jobs 2 the failures are raised in workers
        # while the second grid point's starts are still queued
        monkeypatch.setitem(estimator.OBJECTIVES, "main",
                            failing_objective(NumericalError, 2))
        cfg = write_config(tmp_path, FAILING_CFG)
        status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                           "--jobs", str(jobs)])
        assert status == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert "objective main, start 0, iteration 2, seed 11" in err
        assert multiprocessing.active_children() == []

    def test_small_exponent_overflow_exit_code(self, tmp_path, capsys):
        # ||.||_p at p = 0.001 of a dim-4 state reaches 4^1000
        cfg = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            seed = 1
            [instances]
            dim = 4
            budget = 2
            starts = 1
            [objective.triangular-probe]
            p = 0.001
        """)
        status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
        assert status == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert "objective triangular-probe, start 0" in err and "p = 0.001" in err
        assert "Traceback" not in err

    def test_strip_check_times_each_suite(self, tmp_path):
        cfg = write_config(tmp_path, STRIP_CFG)
        reports = []
        for name in ("a.json", "b.json"):
            assert cli.main(["--config", cfg, "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name).read_text()))
        for report in reports:
            seconds = report["timing"]["check_seconds"]
            assert sorted(seconds) == sorted(["poisson_mass", "doubling",
                                              "boundary_constancy",
                                              "convexity_defect"])
            assert all(s >= 0.0 for s in seconds.values())
            assert sum(seconds.values()) <= report["timing"]["wall_clock_seconds"]
        # the body outside "timing" stays byte-identical
        assert cli.report_digest(reports[0]) == cli.report_digest(reports[1])

    def test_zero_starts_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG.replace("starts = 2", "starts = 0"))
        assert cli.main(["--config", cfg, "--jobs", "2"]) == cli.EXIT_CONFIG_ERROR


# config values the run cannot use, each with the text it replaces; all
# must stop at the config parser with exit 2, not escape as a traceback
BAD_VALUES = {
    "dim-100": (ESTIMATE_CFG, "dim = 3", "dim = 100"),
    "unknown-spectrum-law": (ESTIMATE_CFG, "dim = 3", "dim = 3\nspectrum-law = flat"),
    "unknown-x-law": (ESTIMATE_CFG, "dim = 3", "dim = 3\nx-law = sparse"),
    "sets-per-gamma-abc": (STRIP_CFG, "sets-per-gamma = 10", "sets-per-gamma = abc"),
    "families-negative": (STRIP_CFG, "families = 5", "families = -3"),
    "strip-q-5": (STRIP_CFG, "q = 1", "q = 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_unusable_config_value_is_a_config_error(tmp_path, capsys, case):
    text, old, new = BAD_VALUES[case]
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new))
    status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
    assert status == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, ESTIMATE_CFG)
    status = cli.main(["--config", cfg, "--seed", "-1", "--out", str(tmp_path / "r.json")])
    assert status == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")


# two objectives, two grid points each, four starts
POOL_CFG = """\
    [experiment]
    kind = estimate
    seed = 5

    [instances]
    dim = 2
    budget = 3
    starts = 4

    [objective.eq1-plus]
    p = 1 2
    q = 0.5

    [objective.mazur]
    p = 2
    q = 0.5 0.25
"""


class TestWorkerPool:
    # the pool forks its children through multiprocessing's fork context,
    # which calls os.fork once per child

    @staticmethod
    def count_forks(monkeypatch):
        """The pids of the children forked from now on, in fork order."""
        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counting)
        return forks

    def test_one_set_of_children_per_run(self, tmp_path, monkeypatch):
        # four grid points of four starts at jobs 2: two shares, one child
        forks = self.count_forks(monkeypatch)
        cfg = write_config(tmp_path, POOL_CFG)
        out = str(tmp_path / "r.json")
        assert cli.main(["--config", cfg, "--out", out, "--jobs", "2"]) == 0
        assert len(json.loads(Path(out).read_text())["results"]) == 4
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_never_more_workers_than_starts(self, tmp_path, monkeypatch):
        forks = self.count_forks(monkeypatch)
        cfg = write_config(tmp_path, POOL_CFG)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                         "--jobs", "8"]) == 0
        assert len(forks) == 3
        spec = estimator.InstanceSpec(dim=2, seed=5)
        reports = estimator.run_searches([("mazur", {"p": 2.0, "q": 0.5})] * 2,
                                         spec, budget=3, starts=3, jobs=8)
        assert len(list(reports)) == 2
        assert len(forks) == 3 + 2
        assert multiprocessing.active_children() == []

    def test_the_children_fork_once_at_the_first_read(self, tmp_path,
                                                      monkeypatch):
        events = []
        pool = estimator._ForkJoin
        read, fork = pool.read, pool.fork

        def logged_read(self, index):
            events.append(("read", index))
            yield from read(self, index)

        def logged_fork(self):
            events.append("fork")
            fork(self)
        monkeypatch.setattr(pool, "read", logged_read)
        monkeypatch.setattr(pool, "fork", logged_fork)
        cfg = cli.load_config(write_config(tmp_path, POOL_CFG))
        reports = estimator.run_searches(
            [(oid, point) for oid, grid in cfg["objectives"] for point in grid],
            cli._instance_spec(cfg), budget=3, starts=4, jobs=2)
        assert events == []
        assert len(list(reports)) == 4
        assert events == ["fork"] + [("read", i) for i in range(4)]
        assert multiprocessing.active_children() == []

    @staticmethod
    def objective_by_process(in_parent, in_child):
        """A 'dx' objective with the keys of 'main' that calls in_parent(n)
        in this process and in_child(n) in a forked child, n the start's
        evaluation count so far, and returns n."""
        parent = os.getpid()

        def make_eval(params):
            calls = []

            def evaluate(st):
                calls.append(None)
                act = in_parent if os.getpid() == parent else in_child
                act(len(calls))
                return float(len(calls))
            return evaluate
        return estimator._Objective("dx", "max", make_eval, ("alpha", "s", "r"))

    @staticmethod
    def fail_after(n):
        def act(calls):
            if calls > n:
                raise NumericalError("solver gave up")
        return act

    def test_failure_cancels_the_queued_starts(self, tmp_path, monkeypatch,
                                               capsys, pool_children):
        # start 0 fails in this process while the child's start 2 would
        # sleep for a minute: the child is terminated, not waited for
        monkeypatch.setitem(estimator.OBJECTIVES, "main", self.objective_by_process(
            self.fail_after(2), lambda calls: time.sleep(60)))
        cfg = write_config(tmp_path, FAILING_CFG)
        t0 = time.monotonic()
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                         "--jobs", "2"]) == cli.EXIT_NUMERICAL_FAILURE
        assert time.monotonic() - t0 < 30
        assert "objective main, start 0, iteration 2, seed 11" \
            in capsys.readouterr().err
        assert [proc.exitcode for proc in pool_children] == [-signal.SIGTERM]
        assert multiprocessing.active_children() == []

    def test_failure_in_a_childs_share_names_its_first_start(
            self, tmp_path, monkeypatch, capsys):
        # at jobs 3 each of the 3 starts is a share; starts 1 and 2 fail in
        # two children, and the first failing start in start order wins
        monkeypatch.setitem(estimator.OBJECTIVES, "main", self.objective_by_process(
            lambda calls: None, self.fail_after(2)))
        cfg = write_config(tmp_path, FAILING_CFG)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                         "--jobs", "3"]) == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert "objective main, start 1, iteration 2, seed 11" in err
        assert "start 2" not in err
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_sending_is_an_error(
            self, tmp_path, monkeypatch):
        # the child's pipe reads EOF: an error at once, never a hang (the
        # alarm turns one into a failure)
        monkeypatch.setitem(estimator.OBJECTIVES, "main", self.objective_by_process(
            lambda calls: None, lambda calls: os._exit(7)))
        cfg = write_config(tmp_path, FAILING_CFG)

        def hung(signum, frame):
            raise TimeoutError("the run hung on a dead child")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError,
                               match="share 1 of 2 exited with code 7 before"):
                cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                          "--jobs", "2"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_a_consumer_that_raises_ends_every_child(self, tmp_path, monkeypatch,
                                                     pool_children):
        # the second point's child share would sleep for a minute when the
        # first report's replay raises: the traceback pytest.raises keeps
        # holds run_estimate's frame, yet the closed generator has ended
        # the child
        parent = os.getpid()

        def make_eval(params):
            def evaluate(st):
                if os.getpid() != parent and params["alpha"] == 2.0:
                    time.sleep(60)
                return 1.0
            return evaluate
        monkeypatch.setitem(estimator.OBJECTIVES, "main", estimator._Objective(
            "dx", "max", make_eval, ("alpha", "s", "r")))

        def replay(report):
            raise LookupError("consumer failed on alpha %r" % report.exponents["alpha"])
        monkeypatch.setattr(cli, "replay_witness", replay)
        cfg = cli.load_config(write_config(tmp_path, FAILING_CFG))
        t0 = time.monotonic()
        with pytest.raises(LookupError, match="alpha 1.0") as raised:
            cli.run_estimate(cfg, 2)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []
        assert [proc.exitcode for proc in pool_children] == [-signal.SIGTERM]
        assert raised.tb is not None

    def test_jobs_without_fork_is_a_config_error(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        cfg = write_config(tmp_path, POOL_CFG)
        out = str(tmp_path / "r.json")
        assert cli.main(["--config", cfg, "--out", out, "--jobs", "2"]) \
            == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: --jobs 2: ")
        assert cli.main(["--config", cfg, "--out", out, "--jobs", "1"]) == 0
        spec = estimator.InstanceSpec(dim=2, seed=5)
        with pytest.raises(ValidationError, match="fork"):
            estimator.maximize("mazur", {"p": 2.0, "q": 0.5}, spec, budget=3,
                               starts=3, jobs=2)
        with pytest.raises(ValidationError, match="fork"):
            estimator.run_searches([("mazur", {"p": 2.0, "q": 0.5})], spec,
                                   budget=3, starts=3, jobs=2)


def small_estimate(objective_id, point, budget):
    lines = ["[experiment]", "kind = estimate", "[instances]", "dim = 2",
             "budget = %d" % budget, "starts = 1",
             "[objective.%s]" % objective_id]
    lines += ["%s = %s" % kv for kv in point.items()]
    return "\n".join(lines) + "\n"


# exponent points each objective's evaluator cannot handle; all must stop
# at the config parser with exit 2
UNEVALUABLE_POINTS = [
    ("interp", {"eps": "0.5", "s": "inf", "r": "inf"}),
    ("interp", {"eps": "0.5", "s": "1", "r": "-1"}),
    ("interp", {"eps": "0.5", "s": "1", "r": "nan"}),
    ("tmap", {"beta": "0.3", "gamma": "0.7", "s": "inf", "r": "inf"}),
    ("tmap", {"beta": "0.3", "gamma": "0.7", "s": "1", "r": "-2"}),
    ("tmap", {"beta": "inf", "gamma": "0.7", "s": "1", "r": "inf"}),
    ("main", {"alpha": "inf", "s": "1", "r": "inf"}),
    ("mazur", {"p": "inf", "q": "2"}),
    ("eq2", {"p": "inf", "q": "2"}),
    ("eq1-minus", {"p": "inf", "q": "2"}),
    ("convexity-defect-min", {"alpha": "1", "q": "1", "gamma0": "1.5"}),
    ("convexity-defect-min", {"alpha": "inf", "q": "1"}),
    ("rx-probe", {"alpha": "inf"}),
]


@pytest.mark.parametrize(
    "objective_id, point", UNEVALUABLE_POINTS,
    ids=["%s:%s" % (oid, ",".join("%s=%s" % kv for kv in pt.items()))
         for oid, pt in UNEVALUABLE_POINTS])
def test_unevaluable_grid_point_is_a_config_error(tmp_path, capsys,
                                                  objective_id, point):
    cfg = write_config(tmp_path, small_estimate(objective_id, point, budget=3))
    status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
    assert status == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: objective %r grid point" % objective_id)
    assert "Traceback" not in err


def test_defect_min_under_diagonal_is_a_config_error(tmp_path, capsys):
    # a diagonal state makes d and x commute, so every family is degenerate
    text = small_estimate("convexity-defect-min", {"alpha": "1", "q": "1"}, budget=3)
    cfg = write_config(tmp_path, text.replace("starts = 1", "starts = 1\ndiagonal = true"))
    status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
    assert status == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(
        "config error: objective 'convexity-defect-min'")


def test_defect_min_at_dim_1_is_a_config_error(tmp_path, capsys):
    # a 1x1 d and x commute too
    text = small_estimate("convexity-defect-min", {"alpha": "1", "q": "1"}, budget=3)
    cfg = write_config(tmp_path, text.replace("dim = 2", "dim = 1"))
    status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
    assert status == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(
        "config error: objective 'convexity-defect-min'")


FUZZ_VALUES = ("-1", "0", "0.5", "1", "2", "inf", "-inf", "nan")


@st.composite
def fuzz_configs(draw):
    objective_id = draw(st.sampled_from(sorted(estimator.OBJECTIVES)))
    obj = estimator.OBJECTIVES[objective_id]
    point = {}
    for key in obj.keys:
        if key in obj.optional and draw(st.booleans()):
            continue
        point[key] = draw(st.sampled_from(FUZZ_VALUES))
    return objective_id, point


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(fuzz_configs())
def test_config_fuzz_exit_code(tmp_path_factory, case):
    objective_id, point = case
    root = tmp_path_factory.getbasetemp()
    cfg = root / "fuzz.ini"
    cfg.write_text(small_estimate(objective_id, point, budget=1))
    try:
        cli.load_config(str(cfg))
        rejected = False
    except cli.ConfigError:
        rejected = True
    status = cli.main(["--config", str(cfg), "--out", str(root / "fuzz.json")])
    assert status in (cli.EXIT_OK, cli.EXIT_PROPERTY_FAILURE,
                      cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_FAILURE)
    assert (status == cli.EXIT_CONFIG_ERROR) == rejected


def test_cli_import_modules():
    # scipy's import dominated start-up time and memory while the strip
    # measures needed it; the closed forms need numpy only.  numpy.random
    # must be loaded before the search forks its children, or each child
    # imports it again
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import schattenlab.cli, sys; assert 'scipy' not in sys.modules;"
         " assert 'numpy.random' in sys.modules"],
        env=env, check=True, timeout=60)


def test_cli_import_loads_no_process_pool():
    # multiprocessing (with socket, selectors and more) is imported when a
    # search first runs at jobs > 1, and concurrent.futures never
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import schattenlab.cli, sys;"
         " assert 'concurrent.futures' not in sys.modules;"
         " assert 'multiprocessing' not in sys.modules"],
        env=env, check=True, timeout=60)


def test_report_digest_reads_everything_but_timing():
    report = {"results": [{"best_ratio": 0.5}], "timing": {"wall_clock_seconds": 1.0}}
    digest = cli.report_digest(report)
    assert cli.report_digest(dict(report, timing={"wall_clock_seconds": 2.0})) == digest
    assert cli.report_digest({"results": [{"best_ratio": 0.5}]}) == digest
    moved = dict(report, results=[{"best_ratio": math.nextafter(0.5, 1.0)}])
    assert cli.report_digest(moved) != digest
    assert "timing" in report
