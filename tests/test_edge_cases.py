"""Edge coverage across modules: gradings of rank two, inhomogeneous
relation lengths, fractional coefficients, rational-field witnesses."""

import random
from fractions import Fraction

import pytest

from conftest import F101, is_associative, loop_square_zero, make_relation, QQ, table_product
from wildrank.exactlin import Mat
from wildrank.quiver import (AdmissibilityError, BoundQuiver, Quiver, build_algebra_table,
                             factor_quiver, loop_quiver)
from wildrank.covering import CoveringSpec, build_window, covering_criterion, pushdown
from wildrank.wildness import (FreeAlgModule, builtin_G, eval_tensor,
                               sincere_witness_for_K3, verify_witness)


def test_rank_two_grading_window_grid():
    # two loops, radical square zero, independent Z^2 weights: the unit box
    # cuts a 2 x 2 grid; the squares x*x, y*y exit the box but the two mixed
    # products both have weight (1,1) and survive as zero relations
    bq = loop_square_zero(2)
    cov = CoveringSpec(bq, 2, {"x": (1, 0), "y": (0, 1)})
    w = build_window(cov, [(0, 1), (0, 1)])
    q = w.bound_quiver.quiver
    assert len(q.vertices) == 4
    assert len(q.arrows) == 4
    assert len(w.bound_quiver.relations) == 2
    table = build_algebra_table(w.bound_quiver, F101)
    assert table.dimension == 8        # four idempotents, four arrows
    # no hereditary window anywhere: the criterion must not certify
    assert covering_criterion(cov, 1, field=F101, seed=0) is None


def test_rank_two_grading_pushdown_dim():
    bq = loop_square_zero(2)
    cov = CoveringSpec(bq, 2, {"x": (1, 0), "y": (0, 1)})
    w = build_window(cov, [(0, 1), (0, 1)])
    rng = random.Random(4)
    from wildrank.rep import sample_representation
    n = sample_representation(w.bound_quiver, F101,
                              {v: 1 for v in w.bound_quiver.quiver.vertices}, rng)
    down = pushdown(w, n)
    assert down.total_dim == n.total_dim == 4


def test_inhomogeneous_length_relation_window():
    # loop relation of mixed term lengths over a two-loop quiver: x*x = y*x*y
    # is inhomogeneous in length, forcing the wider certification window
    q = loop_quiver(2)
    rel = make_relation(q, [(1, ("x", "x")), (-1, ("y", "x", "y"))])
    sq = [make_relation(q, [(1, w)]) for w in
          [("x", "y"), ("y", "y"), ("y", "x")]]
    bq = BoundQuiver(q, [rel] + sq, nilbound=4)
    table = build_algebra_table(bq, F101)
    # basis: e, x, y, xx (= yxy which dies: yx = 0 kills it => xx = 0 too)
    x = table.arrow_element("x")
    assert x and table_product(table, x, x) == {}
    assert is_associative(table)


def test_fractional_relation_coefficient():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "3")])
    rel = make_relation(q, [(Fraction(1, 2), ("b", "a")), (-1, ("d", "c"))])
    bq = BoundQuiver(q, [rel], nilbound=3)
    for field in (QQ, F101):
        table = build_algebra_table(bq, field)
        ba = table.path_element(q.path(("b", "a")))
        dc = table.path_element(q.path(("d", "c")))
        half = field.coerce(Fraction(1, 2))
        assert {k: field.mul(half, c) for k, c in ba.items()} == dc
        assert is_associative(table)


def test_factor_quiver_partial_term_loss():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    rel = make_relation(q, [(1, ("b", "a")), (-1, ("d", "c"))])
    bq = BoundQuiver(q, [rel], nilbound=3)
    dropped = factor_quiver(bq, ["1", "2", "4"], ["a", "b"])
    assert len(dropped.relations) == 1
    assert len(dropped.relations[0].terms) == 1   # the d*c term vanished
    table = build_algebra_table(dropped, F101)
    ba = table.path_element(dropped.quiver.path(("b", "a")))
    assert ba == {}                               # b*a became a zero relation


def test_witness_pipeline_over_rationals():
    from wildrank.quiver import k3_bound_quiver
    table = build_algebra_table(k3_bound_quiver(), QQ)
    g = builtin_G(table)
    w = sincere_witness_for_K3(table)
    assert w.rank == 28
    v = FreeAlgModule(Mat.from_rows(QQ, [[Fraction(1, 2)]]),
                      Mat.from_rows(QQ, [[3]]))
    img = eval_tensor(w, v)
    assert img.dim_vector() == (14, 14)
    report = verify_witness(g, samples=5, max_dim=2, seed=1)
    assert report.valid


def test_admissibility_window_rejects_hidden_growth():
    # x*x = y with y of length... not expressible (length >= 2 enforced);
    # instead: x*x - x*y*x needs the widened window and is still rejected
    # because nothing certifies the length-4 paths
    q = loop_quiver(2)
    rel = make_relation(q, [(1, ("x", "x")), (-1, ("x", "y", "x"))])
    bq = BoundQuiver(q, [rel], nilbound=4)
    with pytest.raises(AdmissibilityError):
        build_algebra_table(bq, F101)


def test_pushdown_window_with_relations():
    # three loops graded by 1 with a box of three points: the middle window
    # keeps genuine lifted relations, and pushdown still respects the base
    bq = loop_square_zero(3)
    cov = CoveringSpec(bq, 1, {a.name: (1,) for a in bq.quiver.arrows})
    w = build_window(cov, [(0, 2)])
    assert len(w.bound_quiver.relations) == 9
    rng = random.Random(9)
    from wildrank.rep import sample_representation, check_relations
    n = sample_representation(w.bound_quiver, F101,
                              {v: 1 for v in w.bound_quiver.quiver.vertices}, rng)
    down = pushdown(w, n)
    assert all(ok for _, ok in check_relations(down))
    assert down.total_dim == n.total_dim
