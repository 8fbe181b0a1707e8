"""Matrix storage stays inside exactlin, and the field differences inside its kernels.

Every other module reaches matrices only through ``Mat`` operations: it
imports no numpy, touches none of the storage (``Mat._entries``,
``Field._kernel``) and calls no elimination kernel (``_echelon_*``)
directly.  Inside exactlin, only the two field kernels branch on the field
or on the storage type; ``Field.__init__`` picks the kernel, once.

Every top-level function of exactlin, public or private, has a caller in
``src/``: a reference or helper kept only for the tests lives in
``tests/conftest.py``.

The benchmark's tracer (``perfbench/tracer.py``) wraps wildrank functions
by module and name; every name it lists must still resolve.
"""

import ast
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "wildrank")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "exactlin.py")
STORAGE = {"_entries", "_kernel"}
KERNELS = ("_PrimeKernel", "_RationalKernel")
#: names whose appearance in a condition means it branches on the field or
#: on how entries are stored
FIELD_MARKERS = {"char", "dtype", "ndarray", "float64", "Fraction", "_arr", "_rows"}


def violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                out.append(f"from {node.module} import")
            out += [f"import {a.name}" for a in node.names if a.name.startswith("_echelon_")]
        elif isinstance(node, ast.Attribute):
            if node.attr in STORAGE or node.attr.startswith("_echelon_"):
                out.append(f"line {node.lineno}: .{node.attr}")
    return out


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def field_branches(tree: ast.AST) -> list[str]:
    """The scopes (``Class.method`` or ``function``) outside the kernels
    holding a condition on the field or the storage type, one per condition."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if inner.split(".")[0] in KERNELS:
                continue
            tests = []
            if isinstance(child, (ast.If, ast.IfExp, ast.While)):
                tests = [child.test]
            elif isinstance(child, ast.comprehension):
                tests = child.ifs
            if any(_names(t) & FIELD_MARKERS for t in tests):
                out.append(inner or "<module>")
            visit(child, inner)

    visit(tree, "")
    return out


def test_modules_found():
    assert "rep.py" in MODULES and "wildness.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_matrix_storage_stays_in_exactlin(name):
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read(), name)
    assert violations(tree) == []


def test_field_differences_stay_in_the_kernels():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        tree = ast.parse(fh.read(), "exactlin.py")
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert set(KERNELS) <= classes
    # the one branch left is the pick of the kernel
    assert field_branches(tree) == ["Field.__init__"]


def test_checker_catches_each_kind():
    bad = ast.parse("import numpy as np\nfrom numpy import zeros\n"
                    "from .exactlin import _echelon_fp\nm._entries\nf._kernel\n"
                    "exactlin._echelon_qq(rows)\n")
    assert len(violations(bad)) == 6
    branches = ast.parse(
        "class Mat:\n"
        "    def trace(self):\n"
        "        if self.field.char:\n            pass\n"
        "        return 0 if self._arr is not None else 1\n"
        "    def entry(self, i, j):\n"
        "        while isinstance(self._entries, np.ndarray):\n            pass\n"
        "        return [x for x in row if type(x) is Fraction]\n"
        "def kron(a, b):\n"
        "    if a.dtype == object:\n        pass\n"
        "class _PrimeKernel:\n"
        "    def coerce(self, x):\n"
        "        if isinstance(x, Fraction):\n            pass\n")
    assert field_branches(branches) == ["Mat.trace", "Mat.trace", "Mat.entry", "Mat.entry",
                                        "kron"]


def _references(node: ast.AST, name: str) -> int:
    return sum(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def uncalled_functions(module: ast.Module, trees) -> list[str]:
    """The top-level functions of ``module`` that no tree in ``trees`` names
    outside their own body."""
    return [fn.name for fn in module.body
            if isinstance(fn, ast.FunctionDef)
            and sum(_references(t, fn.name) for t in trees) == _references(fn, fn.name)]


def test_exactlin_functions_have_callers_in_src():
    trees = {}
    for name in MODULES + ["exactlin.py"]:
        with open(os.path.join(SRC, name)) as fh:
            trees[name] = ast.parse(fh.read(), name)
    assert uncalled_functions(trees["exactlin.py"], trees.values()) == []
    # the check itself: a function only the tests call is caught, private or not
    extra = ast.parse("def reference_only(x):\n    return x\n"
                      "def _helper_only(x):\n    return _helper_only(x)\n")
    trees["exactlin.py"].body += extra.body
    assert uncalled_functions(trees["exactlin.py"], trees.values()) == ["reference_only",
                                                                        "_helper_only"]


TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def traced_targets() -> dict[str, tuple[str, str]]:
    """The ``SPANS`` and ``COUNTERS`` tables of the benchmark's tracer, read
    from its source: span name -> (wildrank module, ``name`` or
    ``Class.name``)."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read(), "tracer.py")
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS") for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def test_traced_functions_exist():
    # the tracer wraps these by name; a rename in src would break --trace
    targets = traced_targets()
    assert "rep.hom_space" in targets and "exactlin.mat.constructed" in targets
    missing = []
    for span, (module, name) in sorted(targets.items()):
        owner = importlib.import_module(f"wildrank.{module}")
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: wildrank.{module}.{name}")
    assert missing == []
