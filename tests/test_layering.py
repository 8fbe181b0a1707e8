"""Matrix storage stays inside exactlin.

Every other module reaches matrices only through ``Mat`` operations: it
imports no numpy, touches none of ``Mat``'s storage (``.array``, ``._arr``,
``._rows``) and calls no elimination kernel (``_echelon_*``) directly.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "wildrank")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "exactlin.py")
STORAGE = {"array", "_arr", "_rows"}


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


def test_modules_found():
    assert "rep.py" in MODULES and "wildness.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_matrix_storage_stays_in_exactlin(name):
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read(), name)
    assert violations(tree) == []


def test_checker_catches_each_kind():
    bad = ast.parse("import numpy as np\nfrom numpy import zeros\n"
                    "from .exactlin import _echelon_fp\nm.array\nm._arr\nm._rows\n"
                    "exactlin._echelon_qq(rows)\n")
    assert len(violations(bad)) == 7
