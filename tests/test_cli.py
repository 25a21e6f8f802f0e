import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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
        report = json.load(open(out))
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
        assert json.load(open(out))["seed"] == 99

    def test_jobs_flag_reports_identical(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        cli.main(["--config", cfg, "--out", out1, "--jobs", "1"])
        cli.main(["--config", cfg, "--out", out2, "--jobs", "2"])
        a = json.load(open(out1))
        b = json.load(open(out2))
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
        report = json.load(open(out))
        assert all(r["passed"] for r in report["results"])

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CFG)
        out = str(tmp_path / "r.csv")
        status = cli.main(["--config", cfg, "--out", out, "--format", "csv"])
        assert status == 0
        lines = open(out).read().splitlines()
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
        cfg = write_config(tmp_path, """\
            [experiment]
            kind = strip-check
            [strip-check]
            gamma0 = 0.5
            sets-per-gamma = 10
            families = 5
            q = 1
        """)
        out = str(tmp_path / "s.json")
        status = cli.main(["--config", cfg, "--out", out])
        assert status == 0
        report = json.load(open(out))
        entry = report["tables"]["poisson_mass"][0]
        assert abs(entry["boundary1"] - 0.5) <= 1e-6
        assert abs(entry["full"] - 1.0) <= 1e-6

    def test_numerical_failure_exit_code_names_the_start(
            self, tmp_path, monkeypatch, capsys, failing_objective):
        monkeypatch.setitem(estimator.OBJECTIVES, "main",
                            failing_objective(NumericalError, 2))
        cfg = write_config(tmp_path, """\
            [experiment]
            kind = estimate
            seed = 11
            [instances]
            dim = 3
            budget = 5
            starts = 1
            [objective.main]
            alpha = 1
            s = 2
            r = inf
        """)
        status = cli.main(["--config", cfg, "--out", str(tmp_path / "r.json")])
        assert status == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert "objective main, start 0, iteration 2, seed 11" in err


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
