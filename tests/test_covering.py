import itertools
import random

import pytest

from conftest import F101, QQ, direct_sum, make_relation, rep_from_lists, simple_rep, zero_rep
import wildrank.covering as covering_module
from wildrank.exactlin import Field
from wildrank.quiver import BoundQuiver, Quiver, build_algebra_table, factor_quiver, loop_quiver
from wildrank.covering import (CoveringSpec, build_window, covering_criterion, pushdown,
                               pushdown_bimodule, verify_pushdown)
from wildrank.rep import are_isomorphic, is_indecomposable, sample_representation
from wildrank.wildness import WitnessBimodule, eval_tensor

F7 = Field.prime(7)


@pytest.fixture(scope="module")
def x2_cov(dual_numbers_bq):
    return CoveringSpec(dual_numbers_bq, 1, {"x": (1,)})


@pytest.fixture(scope="module")
def three_loop_cov(three_loop_bq):
    return CoveringSpec(three_loop_bq, 1, {a.name: (1,) for a in
                                           three_loop_bq.quiver.arrows})


def dual_numbers():
    q = loop_quiver(1)
    return BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))])], nilbound=2)


def test_homogeneity_validation():
    q = loop_quiver(2)
    bq = BoundQuiver(q, [make_relation(q, [(1, ("x", "y")), (-1, ("y", "x"))])],
                     nilbound=4)
    CoveringSpec(bq, 1, {"x": (1,), "y": (1,)})          # homogeneous
    CoveringSpec(bq, 1, {"x": (1,), "y": (2,)})          # xy and yx both weight 3
    bq2 = BoundQuiver(q, [make_relation(q, [(1, ("x", "x")), (-1, ("y", "x"))])],
                      nilbound=4)
    with pytest.raises(ValueError):
        CoveringSpec(bq2, 1, {"x": (1,), "y": (2,)})     # 2 vs 3


def test_window_x2(x2_cov):
    w = build_window(x2_cov, [(0, 1)])
    assert len(w.bound_quiver.quiver.vertices) == 2
    assert len(w.bound_quiver.quiver.arrows) == 1
    assert not w.bound_quiver.relations            # lifted relation exits the box


def test_window_three_loop(three_loop_cov):
    w = build_window(three_loop_cov, [(0, 1)])
    q = w.bound_quiver.quiver
    assert len(q.vertices) == 2 and len(q.arrows) == 3
    assert not w.bound_quiver.relations
    srcs = {a.source for a in q.arrows}
    tgts = {a.target for a in q.arrows}
    assert len(srcs) == 1 and len(tgts) == 1 and srcs != tgts


def test_window_identity_cover(k3_bq):
    cov = CoveringSpec(k3_bq, 1, {a.name: (0,) for a in k3_bq.quiver.arrows})
    w = build_window(cov, [(0, 0)])
    assert len(w.bound_quiver.quiver.vertices) == 2
    assert len(w.bound_quiver.quiver.arrows) == 3


def test_window_keeps_interior_relations(three_loop_bq):
    cov = CoveringSpec(three_loop_bq, 1, {a.name: (1,) for a in
                                          three_loop_bq.quiver.arrows})
    w = build_window(cov, [(0, 2)])
    # paths of two arrows fit inside {0,1,2}: lifted relations survive
    assert len(w.bound_quiver.relations) == 9
    table = build_algebra_table(w.bound_quiver, F101)
    assert table.dimension == 3 + 6      # three vertices, six arrows, squares die


def test_window_nesting_consistency(three_loop_cov):
    small = build_window(three_loop_cov, [(0, 1)])
    large = build_window(three_loop_cov, [(0, 2)])
    restricted = factor_quiver(large.bound_quiver,
                               small.bound_quiver.quiver.vertices,
                               [a.name for a in small.bound_quiver.quiver.arrows])
    assert restricted == small.bound_quiver


def test_pushdown_bimodule_examples(x2_cov, three_loop_cov):
    w = build_window(x2_cov, [(0, 1)])
    pb = pushdown_bimodule(w, F101)
    assert pb.rank == 2 and not pb.unital
    w3 = build_window(three_loop_cov, [(0, 1)])
    pb3 = pushdown_bimodule(w3, F101)
    assert pb3.rank == 2


def test_pushdown_bimodule_is_built_once_per_window_and_field(three_loop_cov, monkeypatch):
    # the bimodule, with the window's table as its source, is memoised on
    # the window per field and left out of window equality
    built = []
    real = covering_module.build_algebra_table
    monkeypatch.setattr(covering_module, "build_algebra_table",
                        lambda bq, field: built.append(field) or real(bq, field))
    w = build_window(three_loop_cov, [(0, 1)])
    for field in (F101, QQ):
        pb = pushdown_bimodule(w, field)
        assert pushdown_bimodule(w, Field.prime(101) if field == F101 else QQ) is pb
        assert pb.source.field == field and pb.source.bound_quiver == w.bound_quiver
    assert built == [F101, F101, QQ, QQ]
    assert w == build_window(three_loop_cov, [(0, 1)])


def test_pushdown_bimodule_rank_one_identity():
    bq = BoundQuiver(Quiver(["v"], []), [], nilbound=1)
    cov = CoveringSpec(bq, 1, {})
    w = build_window(cov, [(0, 0)])
    pb = pushdown_bimodule(w, F101)
    assert pb.rank == 1


def test_pushdown_direct_assembly(x2_cov):
    w = build_window(x2_cov, [(0, 1)])
    wq = w.bound_quiver
    v0, v1 = wq.quiver.vertices
    arrow = wq.quiver.arrows[0].name
    n = rep_from_lists(wq, F101, {v0: 1, v1: 1}, {arrow: [[1]]})
    down = pushdown(w, n)
    assert down.dim_vector() == (2,)
    assert down.mats["x"].row_list() == [[0, 0], [1, 0]]
    assert is_indecomposable(down, 0).verdict == "yes"
    # zero and simple cases
    zero = pushdown(w, zero_rep(wq, F101))
    assert zero.total_dim == 0
    s = pushdown(w, simple_rep(wq, F101, v0))
    assert s.total_dim == 1 and s.mats["x"].is_zero()


def test_pushdown_dim_preservation_and_sums(three_loop_cov):
    w = build_window(three_loop_cov, [(0, 1)])
    wq = w.bound_quiver
    rng = random.Random(3)
    for _ in range(5):
        dims = {v: rng.randint(0, 3) for v in wq.quiver.vertices}
        n = sample_representation(wq, F101, dims, rng)
        assert pushdown(w, n).total_dim == n.total_dim
    n1 = sample_representation(wq, F101, {v: 2 for v in wq.quiver.vertices}, rng)
    n2 = sample_representation(wq, F101, {v: 1 for v in wq.quiver.vertices}, rng)
    lhs = pushdown(w, direct_sum(n1, n2))
    rhs = direct_sum(pushdown(w, n1), pushdown(w, n2))
    assert are_isomorphic(lhs, rhs, seed=1).verdict == "yes"


def test_pushdown_agrees_with_bimodule(x2_cov, three_loop_cov):
    # the two constructions give the same dims and the same arrow matrices,
    # not merely isomorphic modules
    for cov, box, field in itertools.product((x2_cov, three_loop_cov),
                                             ([(0, 1)], [(-1, 1)], [(0, 2)]), (F101, F7, QQ)):
        w = build_window(cov, box)
        wq = w.bound_quiver
        pb = pushdown_bimodule(w, field)
        rng = random.Random(5)
        for _ in range(5):
            dims = {v: rng.randint(0, 2) for v in wq.quiver.vertices}
            n = sample_representation(wq, field, dims, rng)
            direct = pushdown(w, n)
            via = eval_tensor(pb, n)
            assert via.bound_quiver == direct.bound_quiver
            assert via.dims == direct.dims, (box, field)
            assert via.mats == direct.mats, (box, field)


def _scale_one_entry(pb):
    """The pushdown bimodule with one arrow-action entry doubled."""
    name = next(a for a, t in pb.arrows.items() if t)
    key, cells = next(iter(pb.arrows[name].items()))
    ij, c = next(iter(cells.items()))
    arrows = {**pb.arrows, name: {**pb.arrows[name], key: {**cells, ij: 2 * c}}}
    return WitnessBimodule(pb.target, pb.source, pb.rank, pb.vertices, arrows)


def _swap_two_slots(pb):
    """The pushdown bimodule conjugated by the swap of the first two slots,
    which lie in one fiber: an isomorphic bimodule whose images are
    isomorphic to the pushdown but not equal to it."""
    perm = [1, 0] + list(range(2, pb.rank))

    def conj(actions):
        return {name: {k: {(perm[i], perm[j]): c for (i, j), c in cells.items()}
                       for k, cells in t.items()}
                for name, t in actions.items()}
    return WitnessBimodule(pb.target, pb.source, pb.rank, conj(pb.vertices), conj(pb.arrows))


@pytest.mark.parametrize("mutate", [_scale_one_entry, _swap_two_slots], ids=["scale", "swap"])
def test_verify_pushdown_fails_on_a_wrong_bimodule(monkeypatch, x2_cov, mutate):
    w = build_window(x2_cov, [(0, 1)])
    assert w.fiber("v") == sorted(w.bound_quiver.quiver.vertices)[:2]
    original = covering_module.pushdown_bimodule
    monkeypatch.setattr(covering_module, "pushdown_bimodule",
                        lambda w, field: mutate(original(w, field)))
    report = verify_pushdown(w, samples=10, max_total_dim=4, seed=11, field=F101)
    assert report.bimodule_agreement.failed > 0
    assert not report.valid


def test_nonsincere_translates_collide(x2_cov):
    # the two simples at the window vertices are translates of each other
    # and push down to the same base module: why sincerity is required
    w = build_window(x2_cov, [(0, 1)])
    wq = w.bound_quiver
    v0, v1 = wq.quiver.vertices
    s0 = simple_rep(wq, F101, v0)
    s1 = simple_rep(wq, F101, v1)
    assert are_isomorphic(s0, s1, seed=0).verdict == "no"
    assert are_isomorphic(pushdown(w, s0), pushdown(w, s1), seed=0).verdict == "yes"


def test_verify_pushdown_small(x2_cov):
    w = build_window(x2_cov, [(0, 1)])
    report = verify_pushdown(w, samples=10, max_total_dim=4, seed=11, field=F101)
    assert report.valid and not report.starved
    assert report.bimodule_agreement.failed == 0
    r2 = verify_pushdown(w, samples=10, max_total_dim=4, seed=11, field=F101)
    assert report.to_text() == r2.to_text()


def test_verify_pushdown_starves_on_a_window_with_no_sincere_module(x2_cov):
    # the window 0 -> 1 -> 2 with x x = 0 has no sincere indecomposable (its
    # indecomposables are the simples and the two length-two paths), so
    # every sample is rejected, the budget of 60 draws a sample runs out,
    # and a starved run is not valid
    w = build_window(x2_cov, [(0, 2)])
    assert len(w.bound_quiver.quiver.vertices) == 3
    report = verify_pushdown(w, samples=2, max_total_dim=6, seed=0, field=F101)
    assert report.starved and report.rejected == 120 and report.samples == 0
    assert not report.valid
    text = report.to_text()
    assert "rejected-nonsincere 120 starved true" in text.splitlines()
    assert text.splitlines()[-2] == "verdict FAILED"


def test_covering_criterion_three_loop(three_loop_cov):
    got = covering_criterion(three_loop_cov, 2, field=F101, seed=1)
    assert got is not None
    cert, window = got
    assert cert.bound == 56
    assert cert.check_arithmetic()
    assert [s.rule for s in cert.steps] == ["explicit-bimodule", "covering-rule"]
    assert window.vertex_count() == 2
    assert cert.bimodule.rank == 56


def test_covering_criterion_dual_numbers(x2_cov):
    assert covering_criterion(x2_cov, 3, field=F101, seed=1) is None


def test_covering_criterion_degenerate_k3(k3_bq):
    cov = CoveringSpec(k3_bq, 1, {a.name: (0,) for a in k3_bq.quiver.arrows})
    got = covering_criterion(cov, 1, field=F101, seed=1)
    assert got is not None and got[0].bound == 56


def test_covering_criterion_user_designation(three_loop_cov):
    # designate the window explicitly and supply its sincere witness
    from wildrank.covering import WindowDesignation
    from wildrank.quiver import build_algebra_table
    from wildrank.wildness import sincere_witness_for_K3
    window = build_window(three_loop_cov, [(0, 1)])
    table = build_algebra_table(window.bound_quiver, F101)
    witness = sincere_witness_for_K3(table)
    desig = WindowDesignation(box=((0, 1),), witness=witness)
    got = covering_criterion(three_loop_cov, 0, field=F101, seed=2,
                             designation=desig)
    assert got is not None
    cert, _ = got
    assert cert.bound == 56
    assert "user-designated" in " ".join(cert.notes)


def test_designation_rejects_mismatched_witness(three_loop_cov, k3_table):
    from wildrank.covering import WindowDesignation
    from wildrank.wildness import sincere_witness_for_K3
    witness = sincere_witness_for_K3(k3_table)   # canonical, not the window's
    desig = WindowDesignation(box=((0, 1),), witness=witness)
    with pytest.raises(ValueError):
        covering_criterion(three_loop_cov, 0, field=F101, seed=2,
                           designation=desig)
