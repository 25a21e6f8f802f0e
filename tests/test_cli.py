import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenlab import cli, estimator
from schattenlab.matcore import NumericalError


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
        # 5 starts divide evenly over neither 2 nor 3 workers
        cfg = write_config(tmp_path, ESTIMATE_CFG.replace("starts = 2", "starts = 5"))
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        cli.main(["--config", cfg, "--out", out1, "--jobs", "1"])
        cli.main(["--config", cfg, "--out", out2, "--jobs", str(jobs)])
        a = json.loads(Path(out1).read_text())
        b = json.loads(Path(out2).read_text())
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

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
        monkeypatch.setitem(estimator.OBJECTIVES, "main",
                            failing_objective(NumericalError, 2))
        cfg = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            seed = 11
            [instances]
            dim = 3
            budget = 5
            starts = 3
            [objective.main]
            alpha = 1
            s = 2
            r = inf
        """)
        status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                           "--jobs", str(jobs)])
        assert status == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert "objective main, start 0, iteration 2, seed 11" in err
        assert multiprocessing.active_children() == []

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
    def test_one_executor_per_run(self, tmp_path, monkeypatch):
        made = []

        class CountingExecutor(estimator.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(estimator, "ProcessPoolExecutor", CountingExecutor)
        cfg = write_config(tmp_path, POOL_CFG)
        out = str(tmp_path / "r.json")
        assert cli.main(["--config", cfg, "--out", out, "--jobs", "2"]) == 0
        assert len(json.loads(Path(out).read_text())["results"]) == 4
        assert len(made) == 1
        assert multiprocessing.active_children() == []

    def test_never_more_workers_than_starts(self, tmp_path, monkeypatch):
        # records the requested size and maps in this process: nothing forks
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(estimator, "ProcessPoolExecutor", RecordingExecutor)
        cfg = write_config(tmp_path, POOL_CFG)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                         "--jobs", "8"]) == 0
        spec = estimator.InstanceSpec(dim=2, seed=5)
        estimator.maximize("mazur", {"p": 2.0, "q": 0.5}, spec, budget=3,
                           starts=3, jobs=8)
        assert sizes == [4, 3]


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
    # must be loaded before the search forks its pool workers, or each
    # worker imports it again
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import schattenlab.cli, sys; assert 'scipy' not in sys.modules;"
         " assert 'numpy.random' in sys.modules"],
        env=env, check=True, timeout=60)
