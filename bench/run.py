#!/usr/bin/env python3
"""Benchmark of schattenlab experiments run through schattenlab.cli.main.

Run from the repository root:

    python3 bench/run.py --workload search-small --seed 1 --seconds 20 --trace 0

Workloads are the configs in bench/workloads/; the seed is handed to the
experiment as --seed.  With --trace 0 the program runs untouched and the
end-to-end metrics are measured; with --trace 1 the public layer functions
are wrapped (bench/tracer.py) and the per-layer metrics, layer probes and
the tracing overhead are reported.  Every pass is checked by the output
gate (bench/checks.py).  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Spans and a full result record go to .bench_out/ in the root.
"""

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import calibrate
import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

# pool worker count of the untraced runs; the traced runs use one process,
# whose report is identical by design, so spans from forked workers are
# never lost
WORKLOADS = {"search-small": 1, "search-wide": 2, "strip-defect": 1}

# pinned in this process before numpy loads, and inherited by pool workers
# and the set-up interpreters, so jobs x threads never exceeds the jobs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MIN_PASSES = 3        # timed untraced passes, whatever --seconds says
MIN_TRACED = 2        # traced passes: their counts must repeat exactly
SETUP_REPEATS = 7     # fresh interpreters timed for setup_s
BLOCK_SHARE = 0.25    # kernel block around each pass, as a share of the warm-up pass
MIN_BLOCK_S = 0.1     # shortest kernel block, also the one around each set-up

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from schattenlab import cli
cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""

CALLS = ("matcore.herm_eig", "matcore.from_spectral", "schatten.singular_values",
         "strip.BoundaryGridCache", "strip.family_eval", "strip.boundary_measure")
SELF_S = ("matcore.herm_eig", "matcore.polar_decompose", "matcore.from_spectral",
          "matcore.positive_power", "schatten.singular_values",
          "schatten.schatten_norm", "kernels.t_map", "kernels.group_spectrum",
          "kernels.divided_difference_kernel", "mazur.main_ratio",
          "mazur.eq1_ratio", "mazur.powers_diff_ratio",
          "mazur.mazur_lipschitz_ratio", "mazur.mazur_map",
          "strip.BoundaryGridCache", "strip.convexity_defect",
          "strip.boundary_norm_profile", "strip.boundary_measure",
          "strip.cosh_measure", "estimator.maximize",
          "estimator.replay_witness", "estimator.review_flagged")
TOTAL_S = ("verify.verify_convexity_defect", "verify.verify_doubling",
           "verify.verify_boundary_constancy", "verify.verify_poisson_mass",
           "cli.load_config", "cli.write_report")


class PassLog:
    """Gate results of every pass of one set: same config, same seed."""

    def __init__(self, ops_hint):
        self.ops_hint = ops_hint
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, rc, report):
        if report is None or rc not in (0, 1):
            ops = len(self.reference["results"]) if self.reference else self.ops_hint
            self.attempted += ops
            self.failed += ops
            self.problems.append("pass exited with %r and no report" % (rc,))
            return
        bad = checks.failed_entries(report, self.reference)
        if rc != 0 and not bad:
            bad = set(range(len(report["results"])))
        if self.reference is None:
            self.reference = report
        self.attempted += len(report["results"])
        self.failed += len(bad)
        if bad:
            self.problems.append("pass failed operations %s" % sorted(bad))


def run_pass(cli, config, seed, jobs, out):
    """One pass through cli.main; returns (exit code, wall s, report)."""
    if out.exists():
        out.unlink()
    argv = ["--config", str(config), "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(out)]
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # the pass fails; the run goes on to report it
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    report = None
    if out.exists():
        with open(out) as fh:
            report = json.load(fh)
    return rc, wall, report


def setup_seconds(config):
    """Times of fresh interpreters to import schattenlab.cli and load the
    workload config: (raw, host-calibrated)."""
    cal = calibrate.Calibrator()
    times, kernels = [], [cal.block(MIN_BLOCK_S)]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        kernels.append(cal.block(MIN_BLOCK_S))
    return times, calibrate.scaled(times, kernels)


def machine_facts(numpy, jobs):
    # platform.processor() would fork uname, whose peak RSS would count
    # as a pool worker's
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        info = deps.get(kind, {})
        return "%s %s" % (info.get("name", "unknown"), info.get("version", ""))

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "loadavg_at_start": list(os.getloadavg()),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": jobs,
        "jobs_x_threads": jobs * int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def layer_metrics(agg):
    """Per-layer metrics of one traced pass from its span aggregates."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name in CALLS:
        out[name + ".calls"] = get(name, "calls")
    for name in SELF_S:
        out[name + ".self_s"] = get(name, "self_s")
    for name in TOTAL_S:
        out[name + ".s"] = get(name, "total_s")
    out["schatten.singular_values.work_n3"] = get("schatten.singular_values", "work")
    evals = get("estimator.eval", "calls")
    out["estimator.evals"] = evals
    out["estimator.eval_us"] = 1e6 * get("estimator.eval", "total_s") / evals if evals else 0.0
    out["estimator.rejected_share"] = get("estimator.eval", "raised") / evals if evals else 0.0
    out["estimator.flagged_share"] = get("estimator.eval", "inf") / evals if evals else 0.0
    return out


def conservation_problems(cfg, report, agg, defaults):
    """Where a traced pass did other work than its config implies."""
    problems = []
    if cfg["kind"] == "estimate":
        want = checks.expected_evals(cfg, report, defaults["review_trials"])
        got = agg.get("estimator.eval", {}).get("calls", 0)
        if got != want:
            problems.append("estimator.evals %d != %d implied by the config" % (got, want))
        return problems
    want = checks.expected_strip_calls(cfg, defaults["constancy_families"],
                                       defaults["constancy_grid"])
    for name, count in want.items():
        got = agg.get(name, {}).get("calls", 0)
        if got != count:
            problems.append("%s.calls %d != %d implied by the config" % (name, got, count))
    cache = agg.get("strip.BoundaryGridCache", {})
    excluded = cache.get("raised", 0) + agg.get("strip.convexity_defect", {}).get("raised", 0)
    families = cache.get("calls", 0) - excluded
    if families != cfg["strip"]["families"]:
        problems.append("%d defect families evaluated, config asks %d"
                        % (families, cfg["strip"]["families"]))
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "schattenlab" / "__init__.py").is_file():
        print("bench: no schattenlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import schattenlab
    if Path(schattenlab.__file__).resolve().parent != (SRC / "schattenlab").resolve():
        print("bench: imported schattenlab from %s, not from %s"
              % (schattenlab.__file__, SRC), file=sys.stderr)
        return 2
    from schattenlab import cli, estimator, verify
    import probes

    declared = declared_metrics(args.trace)
    config = BENCH / "workloads" / (args.workload + ".ini")
    out_dir = ROOT / ".bench_out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"

    cfg = cli.load_config(str(config))
    jobs = 1 if args.trace else WORKLOADS[args.workload]
    facts = machine_facts(numpy, jobs)
    defaults = {
        "review_trials": inspect.signature(estimator.review_flagged).parameters["trials"].default,
        "constancy_families": inspect.signature(
            verify.verify_boundary_constancy).parameters["families"].default,
        "constancy_grid": inspect.signature(
            verify.verify_boundary_constancy).parameters["grid_points"].default,
    }
    ops_hint = checks.grid_points(cfg) if cfg["kind"] == "estimate" else 1
    log = PassLog(ops_hint)
    start = time.perf_counter()

    # warm-up pass: gated, not timed; it sizes the kernel blocks
    rc, warm_wall, report = run_pass(cli, config, args.seed, jobs, report_path)
    log.add(rc, report)
    if report is not None and not checks.report_matches_config(cfg, report):
        log.problems.append("report does not cover the configured work")
    block_s = max(BLOCK_SHARE * warm_wall, MIN_BLOCK_S)

    def room(deadline, walls):
        """Another pass and its kernel block, as long as the last, end by
        the deadline, so a run never outlasts --seconds by a pass."""
        last = walls[-1] if walls else warm_wall
        return time.perf_counter() + last + block_s <= deadline

    summary = {}

    def untraced(cal, deadline, minimum):
        """Raw pass times, host-calibrated pass times and work per pass."""
        walls, kernels, work = [], [cal.block(block_s)], []
        while len(walls) < minimum or room(deadline, walls):
            rc, wall, report = run_pass(cli, config, args.seed, jobs, report_path)
            kernels.append(cal.block(block_s))
            log.add(rc, report)
            walls.append(wall)
            if report is None:
                work.append(0)
                break
            work.append(checks.work_count(cfg, report, defaults["review_trials"]))
        summary.setdefault("kernel_blocks", []).append(kernels)
        return walls, calibrate.scaled(walls, kernels), work

    if not args.trace:
        with calibrate.Calibrator(jobs) as cal:
            walls, cal_walls, work = untraced(cal, start + args.seconds, MIN_PASSES)
            # read while the kernel helpers live: only reaped children,
            # the pool workers, count
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups, cal_setups = setup_seconds(config)
        metrics = {
            "wall_s": statistics.median(cal_walls),
            "work_per_s": statistics.median(n / w for n, w in zip(work, cal_walls)),
            "setup_s": statistics.median(cal_setups),
            # ru_maxrss is in KiB; every pool worker is charged the peak of
            # the largest one
            "peak_rss_mb": (own + jobs * workers) / 1024.0,
        }
        summary["wall_s_quartiles"] = quartiles(cal_walls)
        summary["raw_wall_s_median_quartiles"] = (statistics.median(walls),) + quartiles(walls)
        summary["raw_setup_s_median"] = statistics.median(setups)
        summary["host_scale_median"] = statistics.median(
            c / w for c, w in zip(cal_walls + cal_setups, walls + setups))
        summary["timed_passes"] = len(walls)
        summary["pass_walls"] = walls
    else:
        cal = calibrate.Calibrator()  # traced runs are at jobs 1
        metrics = probes.run_probes(args.seed)
        remaining = max(start + args.seconds - time.perf_counter(), 0.0)
        _, walls, _ = untraced(cal, time.perf_counter() + remaining / 2, 1)
        before = tracing.bindings()
        traced_walls, kernels, per_pass, counts = [], [cal.block(block_s)], [], []
        deadline = start + args.seconds
        while len(traced_walls) < MIN_TRACED or room(deadline, traced_walls):
            tr = tracing.Tracer()
            with tr:
                rc, wall, report = run_pass(cli, config, args.seed, jobs, report_path)
            kernels.append(cal.block(block_s))
            log.add(rc, report)
            if not tracing.same_bindings(before, tracing.bindings()):
                log.problems.append("tracer left a wrapper installed")
            traced_walls.append(wall)
            agg = tracing.aggregate(tr.spans)
            layer = layer_metrics(agg)
            layer["cli.report_bytes"] = report_path.stat().st_size if report else 0
            per_pass.append(layer)
            if report is None:
                break
            log.problems.extend(conservation_problems(cfg, report, agg, defaults))
            counts.append({k: v for k, v in layer.items()
                           if k.endswith((".calls", ".work_n3", ".evals"))})
            if len(traced_walls) == 1:
                tr.write(out_dir / "spans.json")
        if any(c != counts[0] for c in counts[1:]):
            log.problems.append("layer counts differ between traced passes")
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        traced_walls = calibrate.scaled(traced_walls, kernels)
        metrics["trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        summary["untraced_passes"] = len(walls)
        summary["traced_passes"] = len(traced_walls)

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        print("bench: measured metrics %s do not match BENCHMARK.json"
              % sorted(set(names) ^ set(metrics)), file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in declared}
    reference = log.reference
    sha = checks.sha256(reference) if reference else None
    correct = log.failed == 0 and not log.problems and reference is not None
    result = {"correct": correct, "attempted": max(log.attempted, 1), "failed": log.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in names}}

    print("bench %s seed %d trace %d jobs %d" % (args.workload, args.seed, args.trace, jobs))
    print("machine %s" % json.dumps(facts, sort_keys=True))
    for key, val in sorted(summary.items()):
        print("  %-40s %s" % (key, val))
    for name in names:
        print("  %-40s %.6g %s" % (name, metrics[name], units[name]))
    print("  %-40s %.6g share (%d of %d operations)"
          % ("failed_share", log.failed / max(log.attempted, 1), log.failed, log.attempted))
    print("  %-40s %s" % ("report_sha256", sha))
    for problem in log.problems:
        print("  problem: %s" % problem)
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "machine": facts, "summary": summary, "report_sha256": sha,
                   "problems": log.problems, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
