"""Acceptance suite: one test per shipped guarantee, at full scale.

The plateau criteria run the same experiment config through the CLI twice
(8 workers and 1 worker) so the determinism guarantee is checked against
the exact reports the runner ships.
"""

import json
import math
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from schattenlab import cli, verify

SEARCH_CONFIG = """\
    [experiment]
    kind = estimate
    seed = 2024

    [instances]
    dim = 3
    budget = 2000
    starts = 16

    [objective.main]
    alpha = 1
    s = 1.333333333333333333
    r = inf

    [objective.eq1-plus]
    p = 1
    q = 0.5

    [objective.eq1-minus]
    p = 1
    q = 0.5

    [objective.eq2]
    p = 1
    q = 0.666666666666666667

    [objective.mazur]
    p = 2
    q = 0.5

    [objective.tmap]
    beta = 0.3
    gamma = 0.7
    s = 1
    r = inf
"""

# the interp objective climbs a conditioning ridge that general complex x
# makes arbitrarily long; Hermitian x removes the ridge and the search
# settles well inside the budget
INTERP_CONFIG = """\
    [experiment]
    kind = estimate
    seed = 2024

    [instances]
    dim = 3
    x-law = hermitian-gaussian
    budget = 2000
    starts = 16

    [objective.interp]
    eps = 0.3
    s = 0.5
    r = inf
"""

DIAGONAL_CONFIG = """\
    [experiment]
    kind = estimate
    seed = 2024

    [instances]
    dim = 4
    budget = 2000
    starts = 16
    diagonal = true

    [objective.eq2]
    p = 1
    q = 0.666666666666666667
"""


def _run_cli(root, text, jobs):
    cfg = root / "exp.ini"
    cfg.write_text(textwrap.dedent(text))
    out = root / "report.json"
    t0 = time.monotonic()
    status = cli.main(["--config", str(cfg), "--out", str(out),
                       "--jobs", str(jobs)])
    elapsed = time.monotonic() - t0
    return status, json.loads(out.read_text()), elapsed


@pytest.fixture(scope="session")
def search_parallel(tmp_path_factory):
    return [_run_cli(tmp_path_factory.mktemp("search8"), SEARCH_CONFIG, jobs=8),
            _run_cli(tmp_path_factory.mktemp("interp8"), INTERP_CONFIG, jobs=8)]


@pytest.fixture(scope="session")
def search_serial(tmp_path_factory):
    return [_run_cli(tmp_path_factory.mktemp("search1"), SEARCH_CONFIG, jobs=1),
            _run_cli(tmp_path_factory.mktemp("interp1"), INTERP_CONFIG, jobs=1)]


@pytest.fixture(scope="session")
def diagonal(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("diag"), DIAGONAL_CONFIG, jobs=8)


def _assert_all(results, budget):
    failed = [r["name"] for r in results if not r["passed"]]
    assert not failed, "failed checks: %s" % failed
    assert budget[0] < budget[1], \
        "runtime %.1fs exceeded budget %.0fs" % budget


def test_criterion_01_poisson_mass():
    t0 = time.monotonic()
    results = verify.verify_poisson_mass((0.1, 0.25, 0.5, 0.75, 0.9))
    _assert_all(results, (time.monotonic() - t0, 5.0))


def test_criterion_02_doubling():
    t0 = time.monotonic()
    results = verify.verify_doubling(seed=0, sets_per_gamma=200,
                                     gammas=(0.1, 0.25, 0.5, 0.75, 0.9))
    _assert_all(results, (time.monotonic() - t0, 30.0))


def test_criterion_03_loewner_positivity():
    t0 = time.monotonic()
    results = verify.verify_loewner_positivity(seed=0)
    _assert_all(results, (time.monotonic() - t0, 30.0))


def test_criterion_04_tmap_algebra():
    t0 = time.monotonic()
    results = verify.verify_tmap_algebra(seed=0)
    _assert_all(results, (time.monotonic() - t0, 60.0))


def test_criterion_05_decomposition_identity():
    t0 = time.monotonic()
    results = verify.verify_decomposition(seed=0)
    _assert_all(results, (time.monotonic() - t0, 60.0))


def test_criterion_06_boundary_norm_constancy():
    t0 = time.monotonic()
    results = verify.verify_boundary_constancy(seed=0)
    _assert_all(results, (time.monotonic() - t0, 60.0))


def test_criterion_07_convexity_defect_positive(capsys):
    t0 = time.monotonic()
    results = verify.verify_convexity_defect(seed=0, families=200,
                                             qs=(0.5, 1.0, 2.0))
    with capsys.disabled():
        print("\n  ensemble defect minimum: %.6f (%s)"
              % (results[0]["value"], results[0]["detail"]))
    _assert_all(results, (time.monotonic() - t0, 300.0))


def test_criterion_08_inequality_plateaus(search_parallel):
    elapsed = sum(run[2] for run in search_parallel)
    assert elapsed < 1200.0, "searches took %.0fs, budget 1200s" % elapsed
    entries = []
    for status, report, _ in search_parallel:
        assert status == 0, "runner reported a property failure"
        entries.extend(report["results"])
    assert len(entries) == 7
    for entry in entries:
        oid = entry["objective_id"]
        assert math.isfinite(entry["best_ratio"]), "%s: non-finite best" % oid
        assert entry["plateau_improvement"] < 0.01, \
            "%s: %.3f%% improvement in the final quarter" \
            % (oid, 100 * entry["plateau_improvement"])
        # every +inf sentinel is flagged (never silently accepted) and the
        # stored witnesses must survive replay review
        if entry["flagged_instances"] > 0:
            assert entry["flag_review"], "%s: sentinel without review" % oid
        bad = [v for v in entry["flag_review"] if not v["benign"]]
        assert not bad, "%s: flagged witness failed replay review" % oid


def test_criterion_09_commutative_ceiling(diagonal):
    status, report, elapsed = diagonal
    assert status == 0
    best = report["results"][0]["best_ratio"]
    assert best <= 1.5 + 1e-9, "diagonal eq2 ratio %.12f above p/q" % best
    assert elapsed < 60.0


def test_criterion_10_rx_probe():
    t0 = time.monotonic()
    results = verify.verify_rx_probe(seed=0)
    _assert_all(results, (time.monotonic() - t0, 60.0))


def test_criterion_11_determinism(search_parallel, search_serial):
    for (_, parallel, _), (_, serial, _) in zip(search_parallel, search_serial):
        assert cli.report_digest(parallel) == cli.report_digest(serial)


# --- golden reports -------------------------------------------------------
# tests/golden/acceptance.json holds, for the three campaigns above, each
# report's digest and each best_ratio's repr, with the environment they were
# computed in.  Refresh it with `PYTHONPATH=src python tests/test_acceptance.py`
# and list the refresh, with every moved best, in CHANGES.md.

GOLDEN = Path(__file__).resolve().parent / "golden" / "acceptance.json"
CAMPAIGNS = {"search": SEARCH_CONFIG, "interp": INTERP_CONFIG,
             "diagonal": DIAGONAL_CONFIG}


def environment():
    """What a report's bits depend on besides the source: numpy, its BLAS
    and LAPACK, and the SIMD extensions numpy's own loops dispatch to."""
    cfg = np.show_config(mode="dicts")
    deps = cfg["Build Dependencies"]
    return {"numpy": np.__version__,
            "blas": "%s %s" % (deps["blas"]["name"], deps["blas"]["version"]),
            "lapack": "%s %s" % (deps["lapack"]["name"], deps["lapack"]["version"]),
            "simd": cfg["SIMD Extensions"]["found"]}


def golden_entry(report):
    return {"digest": cli.report_digest(report),
            "best_ratio": [[r["objective_id"], repr(r["best_ratio"])]
                           for r in report["results"]]}


def test_golden_reports(search_parallel, diagonal):
    golden = json.loads(GOLDEN.read_text())
    runs = dict(zip(CAMPAIGNS, search_parallel + [diagonal]))
    exact = golden["environment"] == environment()
    for name, (_, report, _) in runs.items():
        got, want = golden_entry(report), golden["reports"][name]
        if exact:
            assert got == want, "%s: report moved from the golden one" % name
            continue
        # another numpy, BLAS or CPU rounds differently; the bests stay close
        assert [oid for oid, _ in got["best_ratio"]] \
            == [oid for oid, _ in want["best_ratio"]]
        for (oid, new), (_, old) in zip(got["best_ratio"], want["best_ratio"]):
            assert math.isclose(float(new), float(old), rel_tol=1e-12), \
                "%s %s: best %s, golden %s" % (name, oid, new, old)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entries = {}
        for name, text in CAMPAIGNS.items():
            root = Path(tmp) / name
            root.mkdir()
            entries[name] = golden_entry(_run_cli(root, text, jobs=2)[1])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": environment(), "reports": entries},
                                 indent=2) + "\n")
    print("wrote", GOLDEN)
