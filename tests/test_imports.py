"""Every name a schattenlab module imports is used in that module, every
parameter of its functions is read in the function's body, and every
module-level private name is read somewhere in the package, so a deleted
code path cannot leave its helper behind.

It also checks that every objective's evaluator reads every block of its
state layout.

No linter is part of the toolchain, so this parses the sources with ast.
An import whose lines carry a '# noqa' comment is exempt (estimator's
'import numpy.random' is there for the forked pool workers to inherit).
"""

import ast
import math
from pathlib import Path

import pytest

from schattenlab.estimator import (LAYOUTS, OBJECTIVES, InstanceSpec,
                                   _initial_state, _rng_for)

SRC = Path(__file__).resolve().parent.parent / "src" / "schattenlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_honours_noqa():
    src = "import math\nimport os  # noqa\nfrom a import (b,\n    c)\nprint(c)\n"
    assert unused_imports(src) == [(1, "math"), (3, "b")]


def unused_parameters(source):
    """(line, function, parameter) for each parameter, self and cls
    excepted, that its function's body never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + [a.vararg]
                  + a.kwonlyargs + [a.kwarg] if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        read |= {node.target.id for stmt in fn.body for node in ast.walk(stmt)
                 if isinstance(node, ast.AugAssign)
                 and isinstance(node.target, ast.Name)}
        found += [(fn.lineno, fn.name, p) for p in params
                  if p not in read and p not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_the_check_sees_an_unused_parameter():
    src = ("def f(self, a, b, *args, c=1, **kw):\n"
           "    def g(d):\n        return a + d\n"
           "    b += 1\n    c = 2\n    return g(kw)\n")
    assert unused_parameters(src) == [(1, "f", "args"), (1, "f", "c")]


def unread_private_names(sources):
    """(module, line, name) for each module-level private name, dunders
    excepted, that no source in `sources` ({module: text}) reads: a name
    read by a Name load or as an attribute counts, an import does not."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found += [(mod, stmt.lineno, n) for n in names
                      if n.startswith("_") and not n.startswith("__")
                      and n not in read]
    return sorted(found)


def test_every_private_name_is_read_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": ("_used = 1\n_unused, _pair = 2, 3\n__all__ = []\n"
                 "def _f():\n    return _used\nclass _C:\n    pass\n"
                 "def public():\n    return _pair\n"),
        "b.py": "import a\nfrom a import _C\nprint(a._pair)\n_mine = 4\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_unused"), ("a.py", 4, "_f"), ("a.py", 6, "_C"),
        ("b.py", 4, "_mine")]


# --- every evaluator reads every block of its layout ----------------------

EXPONENTS = {
    "main": {"alpha": 1.0, "s": 4.0 / 3.0, "r": math.inf},
    "interp": {"eps": 0.3, "s": 0.5, "r": math.inf},
    "eq1-plus": {"p": 1.0, "q": 0.5},
    "eq1-minus": {"p": 1.0, "q": 0.5},
    "eq2": {"p": 1.0, "q": 2.0 / 3.0},
    "mazur": {"p": 2.0, "q": 0.5},
    "abs-power": {"p": 2.0, "q": 0.5},
    "tmap": {"beta": 0.3, "gamma": 0.7, "s": 1.0, "r": math.inf},
    "triangular-probe": {"p": 1.5},
    "rx-probe": {"alpha": 1.0},
    "convexity-defect-min": {"alpha": 1.0, "q": 1.0},
}


class ReadRecorder(dict):
    """A state that records the keys its evaluator reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_objective_is_listed():
    assert set(EXPONENTS) == set(OBJECTIVES)


@pytest.mark.parametrize("oid", sorted(EXPONENTS))
def test_every_evaluator_reads_every_block_of_its_layout(oid):
    # a block no evaluator reads cannot change a ratio, yet the search would
    # draw it, perturb it and store it in every witness
    obj = OBJECTIVES[oid]
    layout = LAYOUTS[obj.kind]
    st = ReadRecorder(_initial_state(layout, InstanceSpec(dim=3, seed=1),
                                     _rng_for(1, 0)))
    obj.make_eval(EXPONENTS[oid])(st)
    assert st.read == {key for block in layout for key in block}
