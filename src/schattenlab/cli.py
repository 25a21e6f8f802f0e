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
import csv
import io
import json
import math
import sys
import time

from . import __version__, verify
from .estimator import (InstanceSpec, OBJECTIVES, maximize, open_pool,
                        replay_witness, review_flagged)
from .matcore import DomainError, NumericalError, ValidationError

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


def _parse_list(text, key):
    vals = [_parse_float(tok, key) for tok in text.split()]
    if not vals:
        raise ConfigError("key %r: empty value list" % (key,))
    return vals


def _expand_grid(objective_id, section):
    """Cartesian product of the per-key value lists, one dict per point.

    A point is valid when its objective's evaluator can be built for it.
    """
    if objective_id not in OBJECTIVES:
        raise ConfigError("unknown objective %r (known: %s)"
                          % (objective_id, ", ".join(sorted(OBJECTIVES))))
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
            "diagonal": str(inst.get("diagonal", "false")).lower()
            in ("1", "true", "yes"),
            "budget": _parse_count(inst, "budget", 2000, 0),
            "starts": _parse_count(inst, "starts", 16, 1),
        }
        try:
            _instance_spec(cfg)
        except ValidationError as exc:
            raise ConfigError("section [instances]: %s" % exc)
        cfg["objectives"] = []
        for name in parser.sections():
            if not name.startswith("objective."):
                continue
            objective_id = name[len("objective."):]
            cfg["objectives"].append(
                (objective_id, _expand_grid(objective_id, parser[name])))
        if not cfg["objectives"]:
            raise ConfigError("estimate experiment needs at least one"
                              " [objective.NAME] section")
    elif kind == "verify":
        sec = parser["verify"] if "verify" in parser else {}
        modules = sec.get("modules", "matcore schatten kernels mazur strip").split()
        for mod in modules:
            if mod not in verify.MODULE_SUITES:
                raise ConfigError("key 'modules': unknown module %r" % mod)
        cfg["modules"] = modules
    else:  # strip-check
        sec = parser["strip-check"] if "strip-check" in parser else {}
        cfg["strip"] = {
            "gamma0": tuple(_parse_list(sec.get("gamma0", "0.1 0.25 0.5 0.75 0.9"),
                                        "gamma0")),
            "sets_per_gamma": _parse_count(sec, "sets-per-gamma", 200, 1),
            "families": _parse_count(sec, "families", 200, 1),
            "q": tuple(_parse_list(sec.get("q", "0.5 1 2"), "q")),
        }
        for g in cfg["strip"]["gamma0"]:
            if not 0 < g < 1:
                raise ConfigError("key 'gamma0': values must be in (0, 1)")
        for q in cfg["strip"]["q"]:
            if not 0 < q <= 2:
                raise ConfigError("key 'q': values must be in (0, 2]")
    return cfg


# --- experiment execution ------------------------------------------------

def run_verify(cfg):
    results = verify.run_suites(cfg["modules"], seed=cfg["seed"])
    failed = any(not r["passed"] for r in results)
    return results, failed


def run_strip_check(cfg):
    from .strip import BoundarySet, boundary_measure
    sc = cfg["strip"]
    results = []
    tables = {"poisson_mass": []}
    for g in sc["gamma0"]:
        m1 = boundary_measure(g, BoundarySet((), ((-40.0, 40.0),)))
        mf = boundary_measure(g, BoundarySet.full())
        tables["poisson_mass"].append(
            {"gamma0": g, "boundary1": m1, "full": mf})
    results.extend(verify.verify_poisson_mass(sc["gamma0"]))
    results.extend(verify.verify_doubling(
        cfg["seed"], sets_per_gamma=sc["sets_per_gamma"], gammas=sc["gamma0"]))
    results.extend(verify.verify_boundary_constancy(cfg["seed"]))
    results.extend(verify.verify_convexity_defect(
        cfg["seed"], families=sc["families"], qs=sc["q"]))
    failed = any(not r["passed"] for r in results)
    return results, tables, failed


def _instance_spec(cfg):
    inst = cfg["instances"]
    return InstanceSpec(dim=inst["dim"], spectrum_law=inst["spectrum_law"],
                        x_law=inst["x_law"], seed=cfg["seed"])


def run_estimate(cfg, jobs):
    inst = cfg["instances"]
    spec = _instance_spec(cfg)
    results = []
    failed = False
    # one pool for the whole run, closed before this returns or raises
    with open_pool(jobs, inst["starts"]) as pool:
        for objective_id, grid in cfg["objectives"]:
            for point in grid:
                report = maximize(objective_id, point, spec,
                                  budget=inst["budget"], starts=inst["starts"],
                                  jobs=jobs, diagonal=inst["diagonal"], pool=pool)
                entry = report.to_dict()
                entry["replay_ratio"] = replay_witness(report)
                verdicts = review_flagged(report)
                entry["flag_review"] = verdicts
                if not math.isfinite(report.best_ratio):
                    failed = True
                if any(not v["benign"] for v in verdicts):
                    failed = True
                results.append(entry)
    return results, failed


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
        out_path = args.out if args.out is not None else cfg["out"]

        start = time.monotonic()
        if cfg["kind"] == "verify":
            results, failed = run_verify(cfg)
            report = _base_report(cfg, results, time.monotonic() - start)
        elif cfg["kind"] == "strip-check":
            results, tables, failed = run_strip_check(cfg)
            report = _base_report(cfg, results, time.monotonic() - start)
            report["tables"] = tables
        else:
            results, failed = run_estimate(cfg, args.jobs)
            report = _base_report(cfg, results, time.monotonic() - start)
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
