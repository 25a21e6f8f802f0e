"""Config-driven experiment runner.

Reads an INI-style config describing one experiment (verify, estimate, or
strip-check), runs it, and writes a machine-readable report.  Reports are
deterministic: re-running the same config reproduces them byte for byte
except for the wall-clock entries under the "timing" key.

Exit codes: 0 success, 1 property failure or counterexample flag,
2 usage/config error, 3 numerical failure.
"""

import argparse
import configparser
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time

from . import __version__, verify
from .estimator import (InstanceSpec, OBJECTIVES, _fork_context,
                        _search_objective, replay_witness, review_flagged,
                        run_searches)
from .matcore import DomainError, NumericalError, ValidationError
from .strip import BoundarySet, _check_defect_q, _check_gamma0, boundary_measure

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


class ConfigError(Exception):
    """Malformed experiment configuration."""


def _parse_float(text, key):
    text = text.strip()
    if text.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError("key %r: %r is not a number" % (key, text))


def _parse_count(section, key, default, least):
    """The integer value of key (default when absent), at least `least`."""
    text = str(section.get(key, default)).strip()
    try:
        val = int(text)
    except ValueError:
        raise ConfigError("key %r: %r is not an integer" % (key, text))
    if val < least:
        raise ConfigError("key %r: must be at least %d, got %d" % (key, least, val))
    return val


def _parse_bool(section, key, default):
    """The boolean value of key (default when absent), in configparser's
    words, any case: 1/yes/true/on or 0/no/false/off."""
    text = str(section.get(key, default)).strip()
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConfigError("key %r: %r is not a boolean (1, yes, true, on"
                          " or 0, no, false, off)" % (key, text))


def _parse_list(text, key):
    vals = [_parse_float(tok, key) for tok in text.split()]
    if not vals:
        raise ConfigError("key %r: empty value list" % (key,))
    return vals


def _expand_grid(objective_id, section):
    """Cartesian product of the per-key value lists, one dict per point.

    A point is valid when its objective's evaluator can be built for it.
    The objective is registered: load_config checked it first.
    """
    obj = OBJECTIVES[objective_id]
    for key in section:
        if key not in obj.keys:
            raise ConfigError("objective %r: unexpected key %r" % (objective_id, key))
    lists = []
    used_keys = []
    for key in obj.keys:
        if key not in section:
            if key in obj.optional:
                continue
            raise ConfigError("objective %r: missing key %r" % (objective_id, key))
        lists.append(_parse_list(section[key], key))
        used_keys.append(key)
    points = [{}]
    for key, vals in zip(used_keys, lists):
        points = [dict(pt, **{key: v}) for pt in points for v in vals]
    for pt in points:
        try:
            obj.make_eval(pt)
        except ValidationError as exc:
            raise ConfigError("objective %r grid point %r rejected: %s"
                              % (objective_id, pt, exc))
    return points


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except configparser.Error as exc:
        raise ConfigError("config parse error: %s" % exc)
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    kind = exp.get("kind", "").strip()
    if kind not in ("verify", "estimate", "strip-check"):
        raise ConfigError("key 'kind': must be verify, estimate, or strip-check"
                          " (got %r)" % kind)
    cfg = {
        "kind": kind,
        "seed": _parse_count(exp, "seed", 0, 0),
        "format": exp.get("format", "json").strip(),
        "out": exp.get("out", fallback=None),
        "sections": {name: dict(parser[name]) for name in parser.sections()},
    }
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError("key 'format': must be json or csv")

    if kind == "estimate":
        inst = parser["instances"] if "instances" in parser else {}
        cfg["instances"] = {
            "dim": _parse_count(inst, "dim", 4, 1),
            "spectrum_law": inst.get("spectrum-law", "log-uniform"),
            "x_law": inst.get("x-law", "gaussian-complex"),
            "diagonal": _parse_bool(inst, "diagonal", False),
            "budget": _parse_count(inst, "budget", 2000, 0),
            "starts": _parse_count(inst, "starts", 16, 1),
        }
        try:
            spec = _instance_spec(cfg)
        except ValidationError as exc:
            raise ConfigError("section [instances]: %s" % exc)
        cfg["objectives"] = []
        for name in parser.sections():
            if not name.startswith("objective."):
                continue
            objective_id = name[len("objective."):]
            try:
                _search_objective(objective_id, spec)
            except ValidationError as exc:
                raise ConfigError(str(exc))
            cfg["objectives"].append(
                (objective_id, _expand_grid(objective_id, parser[name])))
        if not cfg["objectives"]:
            raise ConfigError("estimate experiment needs at least one"
                              " [objective.NAME] section")
    elif kind == "verify":
        sec = parser["verify"] if "verify" in parser else {}
        modules = sec["modules"].split() if "modules" in sec else list(verify.MODULE_SUITES)
        for mod in modules:
            if mod not in verify.MODULE_SUITES:
                raise ConfigError("key 'modules': unknown module %r" % mod)
        cfg["modules"] = modules
    else:  # strip-check
        sec = parser["strip-check"] if "strip-check" in parser else {}
        sc = cfg["strip"] = {
            "gamma0": tuple(_parse_list(sec["gamma0"], "gamma0"))
            if "gamma0" in sec else verify.GAMMAS,
            "sets_per_gamma": _parse_count(sec, "sets-per-gamma",
                                           verify.SETS_PER_GAMMA, 1),
            "families": _parse_count(sec, "families", verify.DEFECT_FAMILIES, 1),
            "q": tuple(_parse_list(sec["q"], "q")) if "q" in sec else verify.DEFECT_QS,
        }
        try:
            for g in sc["gamma0"]:
                _check_gamma0(g)
            for q in sc["q"]:
                _check_defect_q(q)
        except ValidationError as exc:
            raise ConfigError("section [strip-check]: %s" % exc)
    return cfg


# --- experiment execution ------------------------------------------------

def run_verify(cfg):
    results = verify.run_suites(cfg["modules"], seed=cfg["seed"])
    failed = any(not r["passed"] for r in results)
    return results, failed


def run_strip_check(cfg):
    sc = cfg["strip"]
    results = []
    tables = {"poisson_mass": []}
    for g in sc["gamma0"]:
        m1 = boundary_measure(g, BoundarySet((), ((-40.0, 40.0),)))
        mf = boundary_measure(g, BoundarySet.full())
        tables["poisson_mass"].append(
            {"gamma0": g, "boundary1": m1, "full": mf})
    suites = verify.strip_suites(cfg["seed"], sc["gamma0"], sc["sets_per_gamma"],
                                 sc["families"], sc["q"])
    # wall seconds per suite, which go under the report's "timing"
    check_seconds = {}
    for name, run in suites:
        start = time.monotonic()
        results.extend(run())
        check_seconds[name] = time.monotonic() - start
    failed = any(not r["passed"] for r in results)
    return results, tables, failed, check_seconds


def _instance_spec(cfg):
    inst = cfg["instances"]
    return InstanceSpec(dim=inst["dim"], spectrum_law=inst["spectrum_law"],
                        x_law=inst["x_law"], seed=cfg["seed"],
                        diagonal=inst["diagonal"])


def run_estimate(cfg, jobs):
    inst = cfg["instances"]
    searches = [(objective_id, point) for objective_id, grid in cfg["objectives"]
                for point in grid]
    results = []
    point_seconds = []   # from the read of a point's report to its flag review's end
    failed = False
    # each report is replayed and reviewed as it arrives, while the
    # children run on through the later points
    with contextlib.closing(run_searches(searches, _instance_spec(cfg), inst["budget"],
                                         inst["starts"], jobs)) as reports:
        start = time.monotonic()
        for report in reports:
            entry = report.to_dict()
            entry["replay_ratio"] = replay_witness(report)
            verdicts = review_flagged(report)
            entry["flag_review"] = verdicts
            if not math.isfinite(report.best_ratio):
                failed = True
            if any(not v["benign"] for v in verdicts):
                failed = True
            results.append(entry)
            point_seconds.append(time.monotonic() - start)
            start = time.monotonic()
    return results, failed, point_seconds


# --- report assembly -----------------------------------------------------

def _base_report(cfg, results, wall_clock):
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": cfg["kind"],
        "seed": cfg["seed"],
        "config": cfg["sections"],
        "results": results,
        "timing": {"wall_clock_seconds": wall_clock},
    }


def _to_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"


def report_digest(report):
    """sha256 of the report outside its wall-clock "timing" entry, which a
    rerun and any --jobs must leave unchanged.  It hashes the report file's
    JSON text less its final newline, as bench/checks.py's sha256 does."""
    body = {key: val for key, val in report.items() if key != "timing"}
    return hashlib.sha256(_to_json(body)[:-1].encode()).hexdigest()


def _flatten_exponents(exponents):
    return ";".join("%s=%r" % (k, v) for k, v in sorted(exponents.items()))


def _to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report["experiment"] == "estimate":
        writer.writerow(["objective_id", "exponents", "best_ratio",
                         "plateau_improvement", "flagged_instances",
                         "starts", "budget", "seed"])
        for r in report["results"]:
            writer.writerow([r["objective_id"], _flatten_exponents(r["exponents"]),
                             repr(r["best_ratio"]), repr(r["plateau_improvement"]),
                             r["flagged_instances"], r["starts"], r["budget"],
                             r["seed"]])
    else:
        writer.writerow(["name", "passed", "value", "tolerance", "detail"])
        for r in report["results"]:
            writer.writerow([r["name"], r["passed"], repr(r["value"]),
                             repr(r["tolerance"]), r["detail"]])
    return buf.getvalue()


def write_report(report, out_path, fmt):
    text = _to_json(report) if fmt == "json" else _to_csv(report)
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write report: %s" % exc)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="schattenlab",
        description="Run a verification, estimation, or strip-check experiment.")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="report output path"
                        " (default: config value, else stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (overrides config)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker count; never affects the results")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be at least 0")
            cfg["seed"] = args.seed
        if args.format is not None:
            cfg["format"] = args.format
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        if args.jobs > 1:
            try:
                _fork_context()
            except ValidationError as exc:
                raise ConfigError("--jobs %d: %s" % (args.jobs, exc))
        out_path = args.out if args.out is not None else cfg["out"]

        start = time.monotonic()
        if cfg["kind"] == "verify":
            results, failed = run_verify(cfg)
            report = _base_report(cfg, results, time.monotonic() - start)
        elif cfg["kind"] == "strip-check":
            results, tables, failed, check_seconds = run_strip_check(cfg)
            report = _base_report(cfg, results, time.monotonic() - start)
            report["tables"] = tables
            report["timing"]["check_seconds"] = check_seconds
        else:
            results, failed, point_seconds = run_estimate(cfg, args.jobs)
            report = _base_report(cfg, results, time.monotonic() - start)
            report["timing"]["point_seconds"] = point_seconds
        write_report(report, out_path, cfg["format"])
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NumericalError, DomainError, FloatingPointError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE

    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
