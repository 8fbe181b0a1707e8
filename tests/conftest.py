import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wildrank.exactlin import Field, F101, Mat, QQ
from wildrank.quiver import (BoundQuiver, Quiver, build_algebra_table,
                             k3_bound_quiver, kronecker_quiver, line_quiver,
                             loop_quiver, loop_square_zero, make_relation)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXDIR, name)) as fh:
        return fh.read()


def reference_relation_jacobian(q, field, rel, mats, dims, offsets, nvars):
    """The entry-by-entry Jacobian of a relation, as a list of rows: every
    occurrence of a varying arrow X in a term c * L X R adds c * L[i, u] * R[v, j]
    at row (i, j) and column offsets[X] + (u, v), row-major.  Reference for
    ``rep.relation_jacobian``, which builds the same matrix from Kronecker
    products."""
    dt, ds = dims[rel.target], dims[rel.source]
    block = [[field.zero] * nvars for _ in range(dt * ds)]
    for coef, path in rel.terms:
        coef = field.coerce(coef)
        word = path.arrows
        for occ, name in enumerate(word):
            if name not in offsets:
                continue
            a = q.arrow(name)
            left = None
            for nm in word[:occ]:
                left = mats[nm] if left is None else left @ mats[nm]
            right = None
            for nm in word[occ + 1:]:
                right = mats[nm] if right is None else right @ mats[nm]
            lt = left if left is not None else Mat.identity(field, dims[a.target])
            rt = right if right is not None else Mat.identity(field, dims[a.source])
            du, dv = dims[a.target], dims[a.source]
            base = offsets[name]
            for i in range(dt):
                for j in range(ds):
                    ridx = i * ds + j
                    for u in range(du):
                        lu = lt.entry(i, u)
                        if lu == 0:
                            continue
                        for v in range(dv):
                            rv = rt.entry(v, j)
                            if rv != 0:
                                block[ridx][base + u * dv + v] = field.add(
                                    block[ridx][base + u * dv + v],
                                    field.mul(coef, field.mul(lu, rv)))
    return block


@pytest.fixture(scope="session")
def f101():
    return F101


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def a2_bq():
    return BoundQuiver(line_quiver(2), [], nilbound=2)


@pytest.fixture(scope="session")
def k2_bq():
    return BoundQuiver(kronecker_quiver(2), [], nilbound=2)


@pytest.fixture(scope="session")
def k3_bq():
    return k3_bound_quiver()


@pytest.fixture(scope="session")
def k3_table(k3_bq):
    return build_algebra_table(k3_bq, F101)


@pytest.fixture(scope="session")
def dual_numbers_bq():
    q = loop_quiver(1)
    return BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))])], nilbound=2)


@pytest.fixture(scope="session")
def three_loop_bq():
    return loop_square_zero(3)


@pytest.fixture(scope="session")
def free_bq():
    return BoundQuiver(loop_quiver(2), [], nilbound=3)
