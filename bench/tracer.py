"""Outside-in span tracing of schattenlab's public layer functions.

The tracer replaces each traced function wherever a schattenlab module binds
it (the defining module and every module that imported it by name), so calls
made inside the package are recorded too.  Spans stay in memory as
[name, start_ns, end_ns, parent, root, status, work] and are written out
once the run ends.  Uninstalling restores every original binding.

Private helpers such as matcore._jacobi are not wrapped: their time lands in
the self time of the public function that called them.
"""

import importlib
import json
import math
import time
from collections import defaultdict

# (module, attribute) of every traced module-level function; the span is
# named "<module>.<attribute>"
FUNCTIONS = (
    ("matcore", "herm_eig"),
    ("matcore", "polar_decompose"),
    ("matcore", "positive_power"),
    ("schatten", "singular_values"),
    ("schatten", "schatten_norm"),
    ("kernels", "t_map"),
    ("kernels", "group_spectrum"),
    ("kernels", "divided_difference_kernel"),
    ("mazur", "main_ratio"),
    ("mazur", "eq1_ratio"),
    ("mazur", "powers_diff_ratio"),
    ("mazur", "mazur_lipschitz_ratio"),
    ("mazur", "mazur_map"),
    ("strip", "convexity_defect"),
    ("strip", "boundary_norm_profile"),
    ("strip", "family_eval"),
    ("strip", "boundary_measure"),
    ("strip", "cosh_measure"),
    ("estimator", "maximize"),
    ("estimator", "replay_witness"),
    ("estimator", "review_flagged"),
    ("verify", "verify_poisson_mass"),
    ("verify", "verify_doubling"),
    ("verify", "verify_boundary_constancy"),
    ("verify", "verify_convexity_defect"),
    ("cli", "load_config"),
    ("cli", "write_report"),
)

# top-level spans that belong to the grid point whose search ran just before
JOIN_ROOT = ("estimator.replay_witness", "estimator.review_flagged")

OK, RAISED, INF = 0, 1, 2


def _sv_work(args, kwargs):
    """n^3 for one singular-value call on an n x n matrix."""
    a = args[0] if args else kwargs["A"]
    return getattr(a, "mat", a).shape[0] ** 3


WORK = {"schatten.singular_values": _sv_work}


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._root = -1
        self._patches = []   # (owner, attribute, original), in install order

    # --- recording -------------------------------------------------------

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                root = spans[parent][4]
            else:
                parent = -1
                if name not in JOIN_ROOT or self._root < 0:
                    self._root += 1
                root = self._root
            rec = [name, clock(), 0, parent, root, OK,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = RAISED
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if out.__class__ is float and out == math.inf:
                rec[5] = INF
            return out

        return traced

    # --- installing ------------------------------------------------------

    def _patch(self, owner, attr, value):
        # vars() keeps descriptors such as classmethod objects intact
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function in every schattenlab module; on any
        error, leave nothing wrapped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        mods = _modules()
        for mod_name, attr in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            name = "%s.%s" % (mod_name, attr)
            wrapper = self.wrap(name, original, WORK.get(name))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

        cache = mods["strip"].BoundaryGridCache
        self._patch(cache, "__init__",
                    self.wrap("strip.BoundaryGridCache", cache.__init__))
        pdm = mods["matcore"].PositiveDefiniteMatrix
        from_spectral = pdm.__dict__["from_spectral"].__func__
        self._patch(pdm, "from_spectral", classmethod(
            self.wrap("matcore.from_spectral", from_spectral)))
        for obj in mods["estimator"].OBJECTIVES.values():
            self._patch(obj, "make_eval", self._traced_make_eval(obj.make_eval))

    def _traced_make_eval(self, make_eval):
        def make(params):
            return self.wrap("estimator.eval", make_eval(params))
        return make

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output ----------------------------------------------------------

    def write(self, path):
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[r[0]]] + r[1:] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "root",
                                  "status", "work"],
                       "status": {"ok": OK, "raised": RAISED, "inf": INF},
                       "names": names, "spans": rows}, fh)
            fh.write("\n")


def _modules():
    names = ("matcore", "schatten", "kernels", "mazur", "strip", "estimator",
             "verify", "cli")
    mods = {"": importlib.import_module("schattenlab")}
    mods.update((name, importlib.import_module("schattenlab." + name))
                for name in names)
    return mods


def bindings():
    """Every binding the tracer can replace: module globals, the two wrapped
    methods and each objective's make_eval, keyed by owner and name."""
    mods = _modules()
    out = {}
    for mod in mods.values():
        out.update(((mod.__name__, key), val) for key, val in vars(mod).items())
    cache = mods["strip"].BoundaryGridCache
    pdm = mods["matcore"].PositiveDefiniteMatrix
    out[("BoundaryGridCache", "__init__")] = vars(cache)["__init__"]
    out[("PositiveDefiniteMatrix", "from_spectral")] = vars(pdm)["from_spectral"]
    for key, obj in mods["estimator"].OBJECTIVES.items():
        out[(key, "make_eval")] = obj.make_eval
    return out


def same_bindings(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0
    cur_a = cur_b = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    return [rec[2] - rec[1] - covered_ns(rec[1], rec[2], children.get(i, ()))
            for i, rec in enumerate(spans)]


def aggregate(spans):
    """Per span name: calls, total_s, self_s, work, raised and inf counts."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "work": 0, "raised": 0, "inf": 0})
    for rec, own in zip(spans, self_times_ns(spans)):
        agg = out[rec[0]]
        agg["calls"] += 1
        agg["total_s"] += (rec[2] - rec[1]) * 1e-9
        agg["self_s"] += own * 1e-9
        agg["work"] += rec[6]
        agg["raised"] += rec[5] == RAISED
        agg["inf"] += rec[5] == INF
    return dict(out)
