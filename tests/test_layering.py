"""Matrix storage stays inside exactlin, and the field differences inside its kernels.

Every other module reaches matrices only through ``Mat`` operations: it
imports no numpy, touches none of the storage (``Mat._entries``,
``Field._kernel``) and calls no elimination kernel (``_echelon_*``)
directly.  In the whole package, only exactlin's two field kernels branch
on the field or on the storage type; ``Field.__init__`` picks the kernel,
once.  Polynomials are factored in exactlin too, by the kernels, so the
package needs no computer-algebra library: a fresh ``import wildrank.cli``
loads no sympy.  The free algebra k<x,y> and an algebra table share one
interface, and a witness holds one action per vertex and per arrow of
either, so only the scopes in ``ALGEBRA_BRANCHES`` branch on the kind of
algebra or module or test it with ``isinstance``.  Only the scopes in
``UNCHECKED_SITES`` build a module without its relation check.  Only the
scopes in ``PHASES`` open a ``rep.shared_solves`` phase, and none of them
yields: a phase around a generator would close before its body runs.

Every definition of the package, each top-level function, class and
constant and each method, is read somewhere in ``src/`` outside its own
body, or is a module-level name its module declares public in
``__all__``: a reference or helper kept only for the tests lives in
``tests/conftest.py``.  Each ``__all__`` holds what the other modules and
the benchmark's workloads import from it, plus the documented library
surface, and the README lists it.

Inside exactlin a remainder mod p (``% p``, ``% self.p``, ``%= p``) is
taken only by the one array reduction ``_residues``, by the in-place
sub-panel reductions of ``_echelon_fp`` and by the scalar reductions of
``_PrimeKernel.coerce`` and ``_PrimeKernel.inv``.  The Hensel lift of the
factoring over Q reduces mod p^k (``_IntegersMod.coerce``, ``% self.m``),
which is no F_p reduction, and the check does not count it.

Over Q a matrix is stored as integer numerators over one denominator, and
exactlin converts to and from ``Fraction`` only where ``CONVERSIONS`` lists:
scalars, reading entries in and reading them out.

The package imports in one order, ``LAYERS``: a module imports only from
the layers before its own, and only at module level.  The package
docstring and the README table list the modules in that order.

The benchmark's tracer (``perfbench/tracer.py``) wraps wildrank functions
by module and name; every name it lists must still resolve.  Every
backticked ``module.name`` in README.md names a definition of that module.

No module of the package or of the tests imports a name at module level
that nothing else in it reads.

Every defaulted parameter of a function or method of the package is passed
by some call in ``src/``, ``tests/`` or ``perfbench/``: a default that no
call overrides is an option with one value in use, which is a constant.
"""

import ast
from collections import Counter
import importlib
import os
import re
import subprocess
import sys

import pytest

import wildrank

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "wildrank")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "exactlin.py")
STORAGE = {"_entries", "_kernel"}
KERNELS = ("_PrimeKernel", "_RationalKernel")
#: names whose appearance in a condition means it branches on the field or
#: on how entries are stored
FIELD_MARKERS = {"char", "dtype", "ndarray", "float64", "Fraction", "_arr", "_rows"}
#: names whose appearance in a condition means it branches on the kind of
#: algebra or module
ALGEBRA_MARKERS = {"FreeAlgebra", "AlgebraTable", "FreeAlgModule"}


def _src_trees() -> dict[str, ast.Module]:
    trees = {}
    for name in MODULES + ["exactlin.py"]:
        with open(os.path.join(SRC, name)) as fh:
            trees[name] = ast.parse(fh.read(), name)
    return trees


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


def branches(tree: ast.AST, markers: set[str]) -> list[str]:
    """The scopes (``Class.method`` or ``function``) outside the kernels
    holding a condition that names one of ``markers``, one per condition,
    or an ``isinstance`` call outside any condition that names one, one
    per call: a kind held in a local is counted where the local is set."""
    out = []
    in_condition = set()

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
            in_condition.update(id(n) for t in tests for n in ast.walk(t))
            if any(_names(t) & markers for t in tests):
                out.append(inner or "<module>")
            elif (id(child) not in in_condition and isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Name) and child.func.id == "isinstance"
                  and _names(child) & markers):
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


#: the one scope outside the kernels that may branch on the field: the pick
#: of the kernel
FIELD_BRANCHES = {"exactlin.py": ["Field.__init__"]}


def test_field_differences_stay_in_the_kernels():
    trees = _src_trees()
    classes = {n.name for n in trees["exactlin.py"].body if isinstance(n, ast.ClassDef)}
    assert set(KERNELS) <= classes
    found = {name: hits for name, tree in trees.items()
             if (hits := branches(tree, FIELD_MARKERS))}
    assert found == FIELD_BRANCHES


#: the scopes that may branch on the kind of algebra: the free algebra's
#: word keys (``_is_key``), the free source that randomized verification
#: samples, and the table-only certificate steps.  Every ``isinstance`` call
#: that names a kind counts, so a kind held in a local is seen too
ALGEBRA_BRANCHES = {"wildness.py": ["_is_key", "verify_witness", "certificate_for_bimodule",
                                    "bound_via_factor"]}


def test_algebra_kinds_branch_only_where_listed():
    found = {name: hits for name, tree in _src_trees().items()
             if (hits := branches(tree, ALGEBRA_MARKERS))}
    assert found == ALGEBRA_BRANCHES


def test_cli_import_loads_no_sympy():
    # in a fresh process: this one has sympy loaded by the tests' oracles
    code = "import sys, wildrank.cli; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_checker_catches_each_kind():
    bad = ast.parse("import numpy as np\nfrom numpy import zeros\n"
                    "from .exactlin import _echelon_fp\nm._entries\nf._kernel\n"
                    "exactlin._echelon_qq(rows)\n")
    assert len(violations(bad)) == 6
    planted = ast.parse(
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
    assert branches(planted, FIELD_MARKERS) == ["Mat.trace", "Mat.trace", "Mat.entry",
                                                "Mat.entry", "kron"]
    kinds = ast.parse(
        "def _act(source, module, key):\n"
        "    if isinstance(source, FreeAlgebra):\n        pass\n"
        "    return module.dim if type(module) is FreeAlgModule else 0\n"
        "def _same_algebra(a, b):\n"
        "    return type(a) is type(b) and isinstance(a, AlgebraTable)\n"
        "def _validate(self):\n"
        "    free = isinstance(self.target, FreeAlgebra)\n"
        "    if free:\n        return\n"
        "    return [k for k in keys if isinstance(k, int) or isinstance(k, FreeAlgModule)]\n")
    assert branches(kinds, ALGEBRA_MARKERS) == ["_act", "_act", "_same_algebra", "_validate",
                                                "_validate"]


#: the scopes that build a ``Representation`` without its relation check:
#: the one subquotient construction (a subquotient of a module satisfies
#: its relations), the samplers (their candidates are checked afterwards, or
#: satisfy the relations by construction), tilting's projective sums and
#: duals, the modules of k<x,y> (which has no relations) and the images of
#: a tensor functor on its diagonal path
UNCHECKED_SITES = {"rep.py": ["subquotient", "random_representation_unchecked",
                              "_sample_power_zero", "_sample_linear_solve"],
                   "tilting.py": ["_ProjectiveSum.__init__", "_dual_rep"],
                   "wildness.py": ["FreeAlgModule.__init__", "eval_tensor_with_frame"]}


def unchecked_sites(tree: ast.AST) -> list[str]:
    """The scopes holding a call that passes ``check`` anything but
    ``True``, by keyword or as the fifth argument of ``Representation``,
    each scope once, in the order they appear."""
    out = {}

    def unchecked(call: ast.Call) -> bool:
        args = [k.value for k in call.keywords if k.arg == "check"]
        if isinstance(call.func, ast.Name) and call.func.id == "Representation":
            args += call.args[4:5]
        return any(not (isinstance(a, ast.Constant) and a.value is True) for a in args)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and unchecked(child):
                out[inner or "<module>"] = None
            visit(child, inner)

    visit(tree, "")
    return list(out)


def test_modules_skip_the_relation_check_only_where_listed():
    found = {name: hits for name, tree in _src_trees().items() if (hits := unchecked_sites(tree))}
    assert found == UNCHECKED_SITES
    planted = ast.parse(
        "def _image(m):\n    return Representation(m.bq, m.k, m.dims, m.mats, check=False)\n"
        "def _checked(m):\n    return Representation(m.bq, m.k, m.dims, m.mats, check=True)\n"
        "def _default(m):\n    return Representation(m.bq, m.k, m.dims, m.mats)\n"
        "class Module(Representation):\n"
        "    def __init__(self, bq, k, flag):\n"
        "        super().__init__(bq, k, {}, {}, check=flag)\n"
        "def _positional(m):\n    return Representation(m.bq, m.k, m.dims, m.mats, False)\n")
    assert unchecked_sites(planted) == ["_image", "Module.__init__", "_positional"]


#: the scopes that open a ``rep.shared_solves`` phase: the checks of one
#: verification (a witness's, a pushdown's, their shared preservation
#: checks), a tilting module's endomorphism algebra and a variety probe
PHASES = {"covering.py": ["verify_pushdown"], "modvariety.py": ["stratum_probe"],
          "tilting.py": ["endomorphism_algebra"],
          "wildness.py": ["check_preservation", "verify_witness"]}


def phases(tree: ast.AST) -> dict[str, bool]:
    """The scopes that open ``shared_solves``, by decorator or in a ``with``
    statement, each once in the order they appear, mapped to whether the
    scope's own body yields (nested functions and classes aside)."""
    out = {}

    def opens(node) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        return (isinstance(target, ast.Name) and target.id == "shared_solves"
                or isinstance(target, ast.Attribute) and target.attr == "shared_solves")

    def yields(fn) -> bool:
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        return False

    def visit(node, scope, fn):
        for child in ast.iter_child_nodes(node):
            inner, inner_fn = scope, fn
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                inner_fn = child
                if any(opens(d) for d in getattr(child, "decorator_list", [])):
                    out[inner] = yields(child)
            if isinstance(child, (ast.With, ast.AsyncWith)) and any(
                    opens(item.context_expr) for item in child.items):
                out[inner or "<module>"] = fn is not None and yields(fn)
            visit(child, inner, inner_fn)

    visit(tree, "", None)
    return out


def test_phases_open_only_where_listed_and_never_around_a_generator():
    found = {name: hits for name, tree in _src_trees().items() if (hits := phases(tree))}
    assert {name: list(hits) for name, hits in found.items()} == PHASES
    assert not any(yielding for hits in found.values() for yielding in hits.values())
    planted = ast.parse(
        "@shared_solves()\ndef check(m):\n    return hom_space(m, m)\n"
        "def verify(m):\n    with rep.shared_solves():\n        return check(m)\n"
        "@shared_solves()\ndef samples(ms):\n    for m in ms:\n        yield check(m)\n"
        "class Probe:\n"
        "    def run(self, ms):\n"
        "        with open(p) as fh, shared_solves():\n            yield from ms\n"
        "@shared_solves()\ndef eager(ms):\n    return [lambda: (yield m) for m in ms]\n"
        "def helper(ms):\n    def inner():\n        yield 1\n    return list(inner())\n")
    assert phases(planted) == {"check": False, "verify": False, "samples": True,
                               "Probe.run": True, "eager": False}


#: the scopes of exactlin that may convert between ``Fraction`` scalars and the
#: stored form of a matrix over Q (numerators over one denominator), by the
#: name they call: a ``Fraction`` is built only for a scalar (the module's and
#: the rational kernel's zero and one, ``coerce``, ``random_scalar``) and at
#: read-out (``_over``, which only the kernel's ``exact`` calls), and scalars
#: are cleared to integers (``_integer_row``) only when entries are read in
#: and for the factoring over Z.  No matrix operation converts on its way.
CONVERSIONS = {"Fraction": ["<module>", "_PrimeKernel.coerce", "_over", "_RationalKernel",
                            "_RationalKernel.coerce", "_RationalKernel.random_scalar"],
               "_over": ["_RationalKernel.exact"],
               "_integer_row": ["_RationalKernel.entries", "_RationalKernel.factor"]}


def conversion_sites(tree: ast.AST) -> dict[str, list[str]]:
    """The scopes holding a call of each name in ``CONVERSIONS``, one per
    call, in the order they appear."""
    out = {name: [] for name in CONVERSIONS}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in out):
                out[child.func.id].append(inner or "<module>")
            visit(child, inner)

    visit(tree, "")
    return out


def test_fractions_are_built_only_for_scalars_and_at_read_out():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        found = conversion_sites(ast.parse(fh.read(), "exactlin.py"))
    assert {name: sorted(set(scopes)) for name, scopes in found.items()} == \
        {name: sorted(scopes) for name, scopes in CONVERSIONS.items()}
    # the check itself: a product that rebuilds fractions, an elimination
    # that clears rows, and a fraction made at module level
    bad = ast.parse("class _RationalKernel:\n"
                    "    def matmul(self, a, b):\n        return _over(a, _integer_row(b)[0])\n"
                    "def _echelon_qq(rows):\n    return [_integer_row(r) for r in rows]\n"
                    "HALF = Fraction(1, 2)\n")
    assert conversion_sites(bad) == {"Fraction": ["<module>"],
                                     "_over": ["_RationalKernel.matmul"],
                                     "_integer_row": ["_RationalKernel.matmul", "_echelon_qq"]}


#: the scopes of exactlin that may take a remainder mod p
REDUCERS = ("_residues", "_echelon_fp", "_PrimeKernel.coerce", "_PrimeKernel.inv")


def stray_reductions(tree: ast.AST) -> list[str]:
    """The scopes outside ``REDUCERS`` holding a ``%`` or ``%=`` whose right
    operand is ``p`` or an attribute ``.p``, one per remainder."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Mod):
                right = child.right if isinstance(child, ast.BinOp) else child.value
                if ((isinstance(right, ast.Name) and right.id == "p"
                     or isinstance(right, ast.Attribute) and right.attr == "p")
                        and inner not in REDUCERS):
                    out.append(inner or "<module>")
            visit(child, inner)

    visit(tree, "")
    return out


def test_one_reduction_mod_p():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        assert stray_reductions(ast.parse(fh.read(), "exactlin.py")) == []
    # the check itself: a float64 remainder in a kernel method, an in-place
    # one and one at module level; not those in the allowed scopes, nor a
    # remainder by another name
    bad = ast.parse("class _PrimeKernel:\n"
                    "    def normalize(self, a):\n        return (a % self.p).astype(float)\n"
                    "    def matmul(self, a, b):\n        out = a @ b\n        out %= p\n"
                    "        return out\n"
                    "    def coerce(self, x):\n        return int(x) % self.p\n"
                    "r = x % field.p\n"
                    "def _residues(a, p):\n    return a % p\n"
                    "def _is_prime(n):\n    return n % 2 and n % b\n")
    assert stray_reductions(bad) == ["_PrimeKernel.normalize", "_PrimeKernel.matmul", "<module>"]


#: names of builtin-type methods: ``s.add(x)`` reads ``set.add`` as much as
#: a method ``add`` of the package, so such a method counts reads only
#: through its class, ``cls`` or ``self``
BUILTIN_METHODS = {m for t in (set, dict, list, str, int, tuple) for m in dir(t)}


def _definitions(module: ast.Module):
    """``(cls, name, node, receivers)`` for each top-level function, class
    and constant of ``module`` (``cls`` None) and each non-dunder method of
    its classes.  ``receivers`` is None when any attribute ``.name`` reads a
    method; a class or static method, or one named like a method of a
    builtin type, is read only through its class, ``cls`` or ``self``."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((None, t.id, node, None) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__"))
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    bound = fn.name in BUILTIN_METHODS or any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in fn.decorator_list)
                    yield node.name, fn.name, fn, {node.name, "cls", "self"} if bound else None


def _read_index(trees) -> tuple[Counter, Counter, Counter]:
    """The reads in ``trees``, from one walk of each: the names, the
    attributes, and the attributes per ``Name`` receiver."""
    names, attrs, on = Counter(), Counter(), Counter()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names[n.id] += 1
            elif isinstance(n, ast.Attribute):
                attrs[n.attr] += 1
                if isinstance(n.value, ast.Name):
                    on[n.value.id, n.attr] += 1
    return names, attrs, on


def _reads(index, cls, name: str, receivers) -> int:
    """The reads of a definition in an index: a module-level name by name
    (the package imports names, not modules), a method as an attribute."""
    names, attrs, on = index
    if cls is None:
        return names[name]
    if receivers is None:
        return attrs[name]
    return sum(on[r, name] for r in receivers)


def unread_definitions(module: ast.Module, index) -> list[str]:
    """The definitions of ``module`` that no tree of the ``index`` reads
    outside their own body, as ``name`` or ``Class.name``; a module-level
    name listed in the module's ``__all__`` is public and needs no reader."""
    public = set()
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            public.update(ast.literal_eval(node.value))
    return [f"{cls}.{name}" if cls else name
            for cls, name, node, receivers in _definitions(module)
            if not (cls is None and name in public)
            and _reads(index, cls, name, receivers)
            == _reads(_read_index([node]), cls, name, receivers)]


def test_every_definition_has_a_reader_in_src():
    trees = _src_trees()
    index = _read_index(trees.values())
    found = {name: unread for name, tree in trees.items()
             if (unread := unread_definitions(tree, index))}
    assert found == {}
    # the check itself: a test-only method, class method and constant are
    # caught, and so are a method whose only reader is a set's .add, a class
    # method whose only reader is a field's .zero, and a method named in
    # __all__; a constant in __all__ is not
    extra = ast.parse("class Mat:\n"
                      "    def reference_only(self):\n        return self.reference_only()\n"
                      "    @classmethod\n    def zero(cls):\n        return cls.zero()\n"
                      "    def add(self, a, b):\n        return a\n"
                      "REFERENCE_TABLE = {1: 2}\n"
                      "PUBLIC_TABLE = {}\n"
                      "__all__ = ['PUBLIC_TABLE', 'Mat.reference_only']\n"
                      "def use(seen, field):\n    seen.add(Mat)\n    return field.zero\n")
    trees["wildness.py"].body += extra.body
    assert unread_definitions(trees["wildness.py"], _read_index(trees.values())) == [
        "Mat.reference_only", "Mat.zero", "Mat.add", "REFERENCE_TABLE", "use"]


#: the import order: exactlin -> quiver -> rep -> {modvariety, tilting, wildness}
#: -> covering -> cli; ``from . import __version__`` reads the package itself
LAYERS = (("exactlin",), ("quiver",), ("rep",), ("modvariety", "tilting", "wildness"),
          ("covering",), ("cli",))
LAYER = {m: k for k, group in enumerate(LAYERS) for m in group}
IN_ORDER = [m for group in LAYERS for m in group]


def _package_targets(node) -> list[str]:
    """The wildrank modules an import statement reads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        base = node.module or "" if node.level == 0 else \
            "wildrank" + (f".{node.module}" if node.module else "")
        names = [f"{base}.{a.name}" for a in node.names] if base == "wildrank" else [base]
    parts = [n.split(".") for n in names]
    return [p[1] for p in parts if p[0] == "wildrank" and len(p) > 1 and p[1] in LAYER]


def import_violations(name: str, tree: ast.Module) -> list[str]:
    """The imports of module ``name`` below module level, and its imports of
    wildrank modules that are not in an earlier layer."""
    out = []
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            out.append(f"line {node.lineno}: import below module level")
        out += [f"line {node.lineno}: {name} imports {target}"
                for target in _package_targets(node) if LAYER[target] >= LAYER[name]]
    return sorted(out)


def test_every_module_has_a_layer():
    assert sorted(MODULES + ["exactlin.py"]) == sorted(["__init__.py"] +
                                                       [f"{m}.py" for m in LAYER])


@pytest.mark.parametrize("name", IN_ORDER)
def test_imports_follow_the_layer_order(name):
    with open(os.path.join(SRC, f"{name}.py")) as fh:
        tree = ast.parse(fh.read(), name)
    assert import_violations(name, tree) == []


def test_init_imports_nothing_from_the_package():
    with open(os.path.join(SRC, "__init__.py")) as fh:
        tree = ast.parse(fh.read(), "__init__.py")
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))


def test_import_checker_catches_each_kind():
    bad = ast.parse("from .rep import hom_space\nfrom . import __version__\n"
                    "def f():\n    from .exactlin import Mat\n"
                    "from .covering import pushdown\nimport wildrank.cli\n"
                    "from wildrank import tilting\nfrom . import quiver, modvariety\n")
    assert import_violations("wildness", bad) == [
        "line 4: import below module level", "line 5: wildness imports covering",
        "line 6: wildness imports cli", "line 7: wildness imports tilting",
        "line 8: wildness imports modvariety"]


def test_docs_list_the_modules_in_import_order():
    readme = os.path.join(SRC, "..", "..", "README.md")
    with open(readme) as fh:
        rows = [line.split("`")[1] for line in fh if line.startswith("| `")]
    listed = [line.split()[0] for line in wildrank.__doc__.splitlines()
              if line.strip() and line.split()[0] in LAYER]
    assert rows == listed == IN_ORDER


WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")

#: the documented library surface that nothing else in the package reads:
#: Krull-Schmidt decomposition, Ext^1 from a presentation, the certificate
#: rules, the window type, the module- and certificate-file readers and the
#: ``wildrank`` console script
DOCUMENTED = {"rep": {"decompose"}, "tilting": {"ext1_dim_via_presentation"},
              "wildness": {"certificate_for_bimodule", "bound_via_factor", "bound_via_morita"},
              "covering": {"WindowDesignation"},
              "cli": {"parse_representation", "serialize_representation", "parse_certificate",
                      "main"}}


def workload_reads() -> dict[str, set[str]]:
    """The names ``perfbench/workloads.py`` reads from each wildrank module:
    attributes of ``wr["<module>"]`` and of a name called after the module
    that is bound to nothing else (the loaded module, passed on)."""
    with open(WORKLOADS) as fh:
        tree = ast.parse(fh.read(), "workloads.py")

    def loaded(node):
        return node.slice.value if isinstance(node, ast.Subscript) and isinstance(
            node.slice, ast.Constant) else None

    rebound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                unpacked = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                pairs = zip(target.elts, node.value.elts) if unpacked else [(target, node.value)]
                rebound |= {t.id for t, v in pairs if isinstance(t, ast.Name) and loaded(v) != t.id}
    out = {m: set() for m in LAYER}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            v = node.value
            module = loaded(v) or (v.id if isinstance(v, ast.Name)
                                   and v.id not in rebound else None)
            if module in LAYER:
                out[module].add(node.attr)
    return out


def test_all_declares_what_is_imported_or_documented():
    reads = workload_reads()
    # read through wr["exactlin"], a local (cli) and a parameter (wildness);
    # the report in the local called ``rep`` is no module
    assert "Field" in reads["exactlin"] and "cmd_certify" in reads["cli"]
    assert "FreeAlgModule" in reads["wildness"] and not reads["rep"]
    wanted = {m: set(DOCUMENTED.get(m, ())) | names for m, names in reads.items()}
    for tree in _src_trees().values():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYER:
                wanted[node.module] |= {a.name for a in node.names if not a.name.startswith("_")}
    declared = {m: set(importlib.import_module(f"wildrank.{m}").__all__) for m in LAYER}
    assert declared == wanted
    for m, names in declared.items():
        module = importlib.import_module(f"wildrank.{m}")
        assert all(hasattr(module, name) for name in names)


def stale_references(text: str, trees) -> list[str]:
    """The backticked references ``module.name`` in ``text`` (``name`` may be
    ``Class.method``) to a wildrank module that defines no such name."""
    defined = {f[:-3]: {f"{cls}.{name}" if cls else name for cls, name, _, _ in _definitions(tree)}
               for f, tree in trees.items()}
    return [f"{module}.{name}" for module, name in re.findall(r"`(\w+)\.(\w[\w.]*)[^`]*`", text)
            if module in LAYER and name not in defined[module]]


def test_readme_references_name_definitions():
    # perfbench/README.md is the benchmark's own text and is not checked here
    readme = os.path.join(SRC, "..", "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    trees = _src_trees()
    assert stale_references(text, trees) == []
    # the check itself: a removed function and a method of a class are
    # caught; a definition, a method that exists and a call with arguments
    # are not, nor a dotted name outside the package
    planted = ("`rep._hom_kron` `exactlin.Mat.kron_assemble` `exactlin.Mat.no_such` "
               "`rep.subquotient(top, sub)` `wildrank.cli` `quiver.euler_form`")
    assert stale_references(planted, trees) == ["rep._hom_kron", "exactlin.Mat.no_such"]


def test_docs_list_each_public_api():
    readme = os.path.join(SRC, "..", "..", "README.md")
    with open(readme) as fh:
        rows = [line.split("`")[1::2] for line in fh if line.startswith("- `")]
    listed = {row[0]: row[1:] for row in rows if row[0] in LAYER}
    assert list(listed) == IN_ORDER
    assert listed == {m: importlib.import_module(f"wildrank.{m}").__all__ for m in IN_ORDER}


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


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by module-level imports of ``tree`` that no other
    part of it reads; ``from __future__`` binds none."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_every_import_is_read():
    tests = os.path.dirname(__file__)
    paths = [os.path.join(d, f) for d in (SRC, tests) for f in sorted(os.listdir(d))
             if f.endswith(".py")]
    found = {}
    for path in paths:
        with open(path) as fh:
            names = unused_imports(ast.parse(fh.read(), path))
        if names:
            found[os.path.basename(path)] = names
    assert "test_layering.py" in map(os.path.basename, paths) and found == {}
    # the check itself: a plain, a dotted, an aliased and a from-import
    bad = ast.parse("from __future__ import annotations\nimport os, os.path, numpy as np\n"
                    "from .rep import hom_space as hs, sample\nimport sys\n"
                    "def f():\n    return np.zeros(sample)\n")
    assert unused_imports(bad) == ["hs", "os", "sys"]


def _calls(tree: ast.AST) -> list[tuple[str, ast.Call]]:
    """Each call in ``tree`` with the name it calls (a plain or attribute
    name), ``cls(...)`` inside a class counting as a call of that class."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((owner if name == "cls" and owner else name, child))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return out


def _forwards_option(keyword: ast.keyword) -> bool:
    """``keyword`` is ``x=args.x``: it forwards the parsed option of its own name."""
    v = keyword.value
    return (isinstance(v, ast.Attribute) and v.attr == keyword.arg
            and isinstance(v.value, ast.Name) and v.value.id == "args")


def unpassed_defaults(module: ast.Module, trees) -> list[str]:
    """The defaulted parameters of the top-level functions and the methods
    of ``module`` that no call in ``trees`` passes, by keyword or by
    position, as ``name: parameter`` or ``Class.name: parameter``.

    A call matches by the name it calls, a class name for ``__init__``;
    through an attribute it also binds the first parameter of a method
    that is not static.  A call that unpacks ``*args`` or ``**kwargs``
    passes everything.  A keyword that only forwards the command-line
    option of the same name, as in ``x=args.x``, passes nothing: the
    option's own default stands in for the parameter's, so the parameter
    still needs a caller that sets it.
    """
    calls = [c for tree in trees for c in _calls(tree)]
    scopes = [(None, fn) for fn in module.body] + [
        (cls, fn) for cls in module.body if isinstance(cls, ast.ClassDef) for fn in cls.body]
    out = []
    for cls, fn in scopes:
        if not isinstance(fn, ast.FunctionDef):
            continue
        name = cls.name if cls and fn.name == "__init__" else fn.name
        bound = cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                            for d in fn.decorator_list)
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for param, index in defaulted:
            if not any(called == name and (
                    any(k.arg is None or k.arg == param and not _forwards_option(k)
                        for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or index is not None and len(call.args) + bound > index)
                       for called, call in calls):
                out.append(f"{cls.name + '.' if cls else ''}{fn.name}: {param}")
    return out


def test_every_default_is_overridden_somewhere():
    root = os.path.join(os.path.dirname(__file__), "..")
    trees = []
    for d in ("src", "tests", "perfbench"):
        for base, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    with open(os.path.join(base, f)) as fh:
                        trees.append(ast.parse(fh.read(), f))
    found = {}
    for name in MODULES + ["exactlin.py"]:
        with open(os.path.join(SRC, name)) as fh:
            unpassed = unpassed_defaults(ast.parse(fh.read(), name), trees)
        if unpassed:
            found[name] = unpassed
    assert found == {}
    # the check itself: keyword, position (self bound through an attribute,
    # cls(...) inside its class only) and unpacking
    bad = ast.parse("def f(a, b=1, *, c=2):\n    return f(a, c=3)\n"
                    "class K:\n"
                    "    def __init__(self, x=0, y=0):\n        pass\n"
                    "    @classmethod\n    def make(cls):\n        return cls(1)\n"
                    "    def m(self, z=0):\n        pass\n"
                    "    @staticmethod\n    def s(u=0):\n        pass\n"
                    "def g(v=0, w=0):\n    return cls(0, 1)\n"
                    "def h(x=0, y=0, z=0):\n    pass\n"
                    "K().m(5)\nK.s()\ng(*[1])\nh(x=args.x, y=args.w, z=opts.z)\n")
    assert unpassed_defaults(bad, [bad]) == ["f: b", "h: x", "K.__init__: y", "K.s: u"]
