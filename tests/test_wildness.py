import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wildrank.exactlin as exactlin_module
import wildrank.rep as rep_module
import wildrank.wildness as wildness_module
from conftest import (cells_of, dense_of, direct_sum, eval_tensor_morphism, F101, line_quiver,
                      loop_square_zero, make_relation, matrix_unit, QQ,
                      reference_compose_actions, reference_dense_entry_matrix_on,
                      reference_entry_matrix_on, reference_tensor_mul, reference_tensor_sum,
                      simple_rep, zero_module, zero_rep)

from wildrank.exactlin import Field, Mat, ShapeMismatchError
from wildrank.quiver import (AdmissibilityError, AlgebraTable, BoundQuiver, Path,
                             build_algebra_table, factor_quiver, k3_bound_quiver, loop_quiver)
from wildrank.rep import (Representation, are_isomorphic, hom_space, in_sincere_subcategory,
                         shared_solves)
from wildrank.wildness import (DegreeCapError, FactorProvenance, FreeAlgModule, FreeAlgebra,
                               WitnessBimodule, bound_via_factor, bound_via_morita, builtin_F,
                               builtin_G, certificate_for_bimodule, check_preservation,
                               compose_witness, eval_tensor, eval_tensor_with_frame,
                               sincere_witness_for_K3, verify_witness)


def fam(field, x_rows, y_rows):
    return FreeAlgModule(Mat.from_rows(field, x_rows), Mat.from_rows(field, y_rows))


def test_free_word_product():
    free = FreeAlgebra(F101)
    assert free.product_entry(("x",), ("y",)) == {("x", "y"): 1}
    assert free.product_entry(("y",), ("x",)) == {("y", "x"): 1}
    assert free.product_entry((), ("y",)) == {("y",): 1}
    assert free.product_entry(tuple("x" * 4), tuple("y" * 4)) == {tuple("xxxxyyyy"): 1}
    with pytest.raises(DegreeCapError):
        free.product_entry(tuple("x" * 5), tuple("x" * 4))


def test_free_word_evaluation_order():
    # a rank-1 witness from two-loop representations to two-loop
    # representations with x acting as xy + 3y and y as 3y: a word acts
    # letter by letter, xy as X @ Y
    one = Mat.identity(F101, 1)
    w = WitnessBimodule(FreeAlgebra(F101), FreeAlgebra(F101), 1, {"v": cells_of({(): one})},
                        {"x": cells_of({("x", "y"): one, ("y",): one.scaled(3)}),
                         "y": cells_of({("y",): one.scaled(3)})})
    v = fam(F101, [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    img = eval_tensor(w, v)
    x, y = img.mats["x"], img.mats["y"]
    assert x - y == Mat.from_rows(F101, [[1, 0], [0, 0]]) == v.mats["x"] @ v.mats["y"]
    assert y == v.mats["y"].scaled(3)


def test_builtin_G_formula(k3_table):
    g = builtin_G(k3_table)
    assert g.rank == 2 and g.full and g.unital
    v = fam(F101, [[0]], [[0]])
    img = eval_tensor(g, v)
    assert img.dim_vector() == (1, 1)
    assert img.mats["a"].row_list() == [[1]]
    assert img.mats["b"].is_zero() and img.mats["c"].is_zero()
    j2 = fam(F101, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    img2 = eval_tensor(g, j2)
    assert img2.dim_vector() == (2, 2)
    assert img2.mats["a"] == Mat.identity(F101, 2)
    assert img2.mats["b"] == j2.mats["x"]
    assert img2.mats["c"] == j2.mats["y"]


def test_builtin_G_hom_preservation(k3_table):
    g = builtin_G(k3_table)
    rng = random.Random(17)
    for _ in range(6):
        v = FreeAlgModule.random(F101, 3, rng)
        w = FreeAlgModule.random(F101, 3, rng)
        lhs = hom_space(v, w).dim
        rhs = hom_space(eval_tensor(g, v), eval_tensor(g, w)).dim
        assert lhs == rhs


def test_builtin_F_structure(k3_bq, k3_table):
    f = builtin_F(k3_table)
    assert f.rank == 7 and f.full
    s1 = simple_rep(k3_bq, F101, "1")
    img = eval_tensor(f, s1)
    assert img.bound_quiver == FreeAlgebra.bound_quiver and img.total_dim == 7
    # x is the nilpotent shift with x^7 = 0
    x = img.mats["x"]
    power = x
    for _ in range(5):
        power = power @ x
        assert not power.is_zero()
    assert (power @ x).is_zero()
    # y lower bidiagonal with one extra sub-subdiagonal entry (from the
    # vertex-1 projection); all arrow contributions vanish on a simple
    y = img.mats["y"].row_list()
    assert y[1][0] == 1 and y[2][0] == 1 and y[2][1] == 1
    assert all(y[i][j] == 0 for i in range(7) for j in range(7)
               if not (i == j + 1 or (i, j) == (2, 0)))
    zero = eval_tensor(f, zero_rep(k3_bq, F101))
    assert zero.total_dim == 0


def test_builtin_F_dim_multiplier(k3_bq, k3_table):
    f = builtin_F(k3_table)
    rng = random.Random(23)
    for _ in range(5):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        mats = {n: Mat.random(F101, d2, d1, rng) for n in ("a", "b", "c")}
        v = Representation(k3_bq, F101, {"1": d1, "2": d2}, mats, check=False)
        assert eval_tensor(f, v).total_dim == 7 * (d1 + d2)


def test_builtin_F_hom_preservation(k3_bq, k3_table):
    f = builtin_F(k3_table)
    rng = random.Random(29)
    mods = []
    for _ in range(4):
        d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
        mats = {n: Mat.random(F101, d2, d1, rng) for n in ("a", "b", "c")}
        mods.append(Representation(k3_bq, F101, {"1": d1, "2": d2}, mats, check=False))
    for v in mods:
        for w in mods:
            lhs = hom_space(v, w).dim
            rhs = hom_space(eval_tensor(f, v), eval_tensor(f, w)).dim
            assert lhs == rhs


def test_sincere_witness_rank_and_images(k3_table):
    w = sincere_witness_for_K3(k3_table)
    assert w.rank == 28
    v = fam(F101, [[0]], [[0]])
    img = eval_tensor(w, v)
    assert img.dim_vector() == (14, 14)
    assert in_sincere_subcategory(img, 0)
    # the images of one-dimensional modules stay sincere
    img2 = eval_tensor(w, fam(F101, [[3]], [[7]]))
    assert img2.dim_vector() == (14, 14)
    assert in_sincere_subcategory(img2, 1)


def test_verify_witness_runs_one_jordan_elimination_per_rank_28_image(k3_table, monkeypatch):
    # the Hom spaces between the images go the Jordan route, the images of
    # modules of one dimension share one nilpotent pencil, and one phase
    # frames equal pencils once: the samples of seed 0, of dimensions 1, 2
    # and 1, take one elimination per dimension, and three samples of
    # dimension 2, as the benchmark draws them, take one
    w = sincere_witness_for_K3(k3_table)
    frames = []
    jordan = exactlin_module.jordan_nilpotent
    monkeypatch.setattr(exactlin_module, "jordan_nilpotent",
                        lambda s: frames.append(s) or jordan(s))
    report = verify_witness(w, samples=3, max_dim=2, seed=0, check_sincere=2)
    assert report.valid and report.pair_count > 0
    assert sorted(s.rows for s in frames) == [14, 28]

    def full_size(seed):
        rng = random.Random(f"verify:{seed}")
        return all(FreeAlgModule.random(F101, 2, rng).dim == 2 for _ in range(3))

    frames.clear()
    report = verify_witness(w, samples=3, max_dim=2, seed=next(filter(full_size, range(1, 100))),
                            check_sincere=2)
    assert report.valid and report.pair_count == 3
    assert [s.rows for s in frames] == [28]


def test_an_invertible_arrow_matrix_is_eliminated_once(k3_table, monkeypatch):
    # arrow a acts invertibly on the witness images (by the identity, and by
    # g2 g1^-1 on a conjugated copy), so each Hom space contracts it: the
    # answer of _acts_invertibly and the inverse _Side contracts with come
    # from one elimination of each module's matrix, however many Hom spaces
    # read them; b and c are never eliminated whole
    w = sincere_witness_for_K3(k3_table)
    m, img = eval_tensor(w, fam(F101, [[0]], [[0]])), eval_tensor(w, fam(F101, [[3]], [[7]]))
    rng = random.Random("eliminated-once")
    g = []
    while len(g) < 2:
        x = Mat.random(F101, 14, 14, rng)
        if x.is_invertible():
            g.append(x)
    n = Representation(img.bound_quiver, F101, img.dims,
                       {name: g[1] @ x @ g[0].inverse() for name, x in img.mats.items()},
                       check=False)
    seen = []
    echelon = exactlin_module._echelon_fp
    monkeypatch.setattr(exactlin_module, "_echelon_fp",
                        lambda a, p, *args: seen.append(np.array(a)) or echelon(a, p, *args))
    with shared_solves():
        for x, y in ((m, n), (n, m), (m, m), (n, n)):
            hom_space(x, y)

    def eliminations(x):
        return sum(a.shape[0] == x.rows and a.shape[1] in (x.cols, 2 * x.cols)
                   and np.array_equal(a[:, :x.cols], x._entries) for a in seen)

    assert m.mats["a"] == Mat.identity(F101, 14) and n.mats["a"] != m.mats["a"]
    assert [eliminations(mod.mats[name]) for mod in (m, n) for name in "abc"] == [1, 0, 0] * 2
    assert m.mats["a"].is_invertible() and n.mats["a"].is_invertible()


def test_verification_solves_no_end_system_of_a_builtin_g_image(k3_table, monkeypatch):
    # builtin_G sends (X, Y) to the three-arrow module (1, X, Y), whose
    # contracted End system is its source's: in one phase, End of each
    # image read by a verdict takes no solve of its own
    images, ends = [], []
    evaluate, solve = wildness_module.eval_tensor, rep_module._solve_hom_equations

    def image(w, v):
        images.append(evaluate(w, v))
        return images[-1]

    def solve_counting_ends(field, m, n, *rest):
        if m is n:
            ends.append(m)
        return solve(field, m, n, *rest)

    monkeypatch.setattr(wildness_module, "eval_tensor", image)
    monkeypatch.setattr(rep_module, "_solve_hom_equations", solve_counting_ends)
    g = builtin_G(k3_table)
    report = verify_witness(g, samples=6, max_dim=2, seed=0)
    assert report.valid and report.indecomposability.passed > 0
    assert any(img in img._homs for img in images)
    assert ends and not any(m is img for m in ends for img in images)
    # check_preservation called alone is a phase of its own
    images.clear()
    ends.clear()
    rng = random.Random("preservation-alone")
    mods = [FreeAlgModule.random(F101, 2, rng) for _ in range(6)]
    check_preservation(mods, [image(g, v) for v in mods], 0, "pairs", 10)
    assert any(img in img._homs for img in images)
    assert ends and not any(m is img for m in ends for img in images)


def test_eval_tensor_rank_bookkeeping(k3_table):
    w = sincere_witness_for_K3(k3_table)
    rng = random.Random(31)
    v = FreeAlgModule.random(F101, 3, rng)
    assert eval_tensor(w, v).total_dim == 28 * v.dim


def test_eval_tensor_zero(k3_table):
    g = builtin_G(k3_table)
    img = eval_tensor(g, zero_module(F101))
    assert img.total_dim == 0


def test_eval_tensor_refuses_module_over_another_quiver(k3_table, k2_bq, k3_bq):
    f, g = builtin_F(k3_table), builtin_G(k3_table)
    for other in (simple_rep(loop_square_zero(3), F101, "v"),
                  simple_rep(k2_bq, F101, "1")):
        for w in (f, compose_witness(g, f)):
            with pytest.raises(ShapeMismatchError):
                eval_tensor(w, other)
    # a free source takes two-loop representations only
    with pytest.raises(ShapeMismatchError):
        eval_tensor(g, simple_rep(k3_bq, F101, "1"))


def test_eval_tensor_additive(k3_table):
    g = builtin_G(k3_table)
    rng = random.Random(37)
    for _ in range(4):
        v = FreeAlgModule.random(F101, 2, rng)
        w = FreeAlgModule.random(F101, 2, rng)
        lhs = eval_tensor(g, direct_sum(v, w))
        rhs = direct_sum(eval_tensor(g, v), eval_tensor(g, w))
        assert are_isomorphic(lhs, rhs, seed=5).verdict == "yes"


def test_eval_tensor_functorial(k3_table):
    g = builtin_G(k3_table)
    rng = random.Random(41)
    for _ in range(4):
        v = FreeAlgModule.random(F101, 2, rng)
        w = FreeAlgModule.random(F101, 2, rng)
        homs = hom_space(v, w)
        if not homs.basis:
            continue
        fmat = homs.basis[0]["v"]
        img_v, order_v = eval_tensor_with_frame(g, v)
        img_w, order_w = eval_tensor_with_frame(g, w)
        big = eval_tensor_morphism(g, fmat)
        # permute raw generator-major coordinates into the output frames
        big_perm = big.submatrix(order_w, order_v)
        # split into vertex blocks and check intertwining exactly
        offs_w, offs_v = {}, {}
        off = 0
        for vtx in img_w.bound_quiver.quiver.vertices:
            offs_w[vtx] = off
            off += img_w.dims[vtx]
        off = 0
        for vtx in img_v.bound_quiver.quiver.vertices:
            offs_v[vtx] = off
            off += img_v.dims[vtx]
        blocks = {}
        for vtx in img_v.bound_quiver.quiver.vertices:
            rows_idx = list(range(offs_w[vtx], offs_w[vtx] + img_w.dims[vtx]))
            cols_idx = list(range(offs_v[vtx], offs_v[vtx] + img_v.dims[vtx]))
            blocks[vtx] = big_perm.submatrix(rows_idx, cols_idx)
        for a in img_v.bound_quiver.quiver.arrows:
            lhs = blocks[a.target] @ img_v.mats[a.name]
            rhs = img_w.mats[a.name] @ blocks[a.source]
            assert lhs == rhs


def test_compose_rank_law(k3_table):
    g = builtin_G(k3_table)
    f = builtin_F(k3_table)
    fg = compose_witness(f, g)
    assert fg.rank == 14
    gfg = compose_witness(g, fg)
    assert gfg.rank == 28
    with pytest.raises(Exception):
        compose_witness(g, g)      # middle algebras do not match
    # no table sits on the free algebra's bound quiver, which has no
    # relations: its paths of length 3 are not in the ideal
    with pytest.raises(AdmissibilityError, match=r"path x\*x\*x of length 3 is not certified"):
        AlgebraTable(FreeAlgebra.bound_quiver, F101)


def test_verify_witness_passes(k3_table):
    g = builtin_G(k3_table)
    report = verify_witness(g, samples=12, max_dim=2, seed=99, check_sincere=0)
    assert report.valid
    assert report.indecomposability.failed == 0
    assert report.hom_dims.failed == 0


def test_verify_witness_catches_corruption(k3_table):
    g = builtin_G(k3_table)
    # zero the action of the third arrow: V -> (V, V; 1, x, 0) forgets y
    bad = WitnessBimodule(k3_table, FreeAlgebra(F101), 2, g.vertices, {**g.arrows, "c": {}},
                          full=False)
    report = verify_witness(bad, samples=14, max_dim=2, seed=7)
    assert not report.valid
    # an explicit colliding pair: same x, different y
    v1 = fam(F101, [[2]], [[3]])
    v2 = fam(F101, [[2]], [[4]])
    assert are_isomorphic(v1, v2, seed=0).verdict == "no"
    assert are_isomorphic(eval_tensor(bad, v1), eval_tensor(bad, v2),
                          seed=0).verdict == "yes"


def test_verify_witness_deterministic(k3_table):
    g = builtin_G(k3_table)
    r1 = verify_witness(g, samples=8, max_dim=2, seed=5)
    r2 = verify_witness(g, samples=8, max_dim=2, seed=5)
    assert r1.to_text() == r2.to_text()


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _base_cert(k3_bq, k3_table):
    w = sincere_witness_for_K3(k3_table)
    return certificate_for_bimodule(w, k3_bq, "three-arrow Kronecker algebra",
                                    seed=0, target_kind="sincere-subcategory")


def test_certificate_recompute(k3_bq, k3_table):
    cert = _base_cert(k3_bq, k3_table)
    assert cert.bound == 28 and cert.check_arithmetic()


def test_bound_via_factor_identity(k3_bq, k3_table):
    cert = _base_cert(k3_bq, k3_table)
    prov = FactorProvenance(k3_bq, tuple(k3_bq.quiver.vertices),
                            tuple(a.name for a in k3_bq.quiver.arrows))
    lifted = bound_via_factor(cert, prov, "the same algebra")
    assert lifted.bound == cert.bound
    assert lifted.steps[-1].rule == "factor-rule"
    assert lifted.check_arithmetic()


def test_bound_via_factor_inflation(three_loop_bq, f101):
    # bound for the three-loop radical-square-zero algebra inherited by the
    # four-loop one (declared factor), with the bimodule action revalidated
    four = loop_square_zero(4)
    three = factor_quiver(four, ["v"], ["x", "y", "z"])
    table3 = build_algebra_table(three, f101)
    # explicit rank-1 bimodule over the 3-loop algebra: all loops act by zero
    w = WitnessBimodule(table3, FreeAlgebra(f101), 1,
                        {"v": cells_of({(): Mat.identity(f101, 1)})},
                        {a: {} for a in ("x", "y", "z")})
    cert = certificate_for_bimodule(w, three, "three-loop radical-square-zero", seed=0)
    prov = FactorProvenance(four, ("v",), ("x", "y", "z"))
    lifted = bound_via_factor(cert, prov, "four-loop radical-square-zero", field=f101)
    assert lifted.bound == cert.bound == 1
    assert lifted.bimodule is not None
    assert lifted.bimodule.target.dimension == 5
    assert lifted.check_arithmetic()


def test_bound_via_factor_requires_provenance(k3_bq, k3_table, three_loop_bq):
    cert = _base_cert(k3_bq, k3_table)
    bad = FactorProvenance(three_loop_bq, ("v",), ("x",))
    with pytest.raises(ValueError):
        bound_via_factor(cert, bad)


def test_bound_via_morita(k3_bq, k3_table):
    cert = _base_cert(k3_bq, k3_table)
    up = bound_via_morita(cert, 5)       # dim kK3 = 5 (already basic)
    assert up.bound == 28 * 5
    up2 = bound_via_morita(cert, 20)
    assert up2.bound == 560 and up2.check_arithmetic()
    with pytest.raises(ValueError):
        bound_via_morita(cert, 4)        # below the basic dimension


def test_factor_chain_preserves_bound(k3_bq, k3_table):
    cert = _base_cert(k3_bq, k3_table)
    prov = FactorProvenance(k3_bq, tuple(k3_bq.quiver.vertices),
                            tuple(a.name for a in k3_bq.quiver.arrows))
    c1 = bound_via_factor(cert, prov)
    c2 = bound_via_factor(c1, prov)
    assert c2.bound == cert.bound and c2.check_arithmetic()


def test_eval_tensor_non_aligned_projections(k3_table):
    # conjugating every action matrix by a fixed invertible scalar matrix
    # leaves a valid witness whose idempotent actions are no longer 0/1
    # diagonals: evaluation must fall back to the column-space frame and
    # produce isomorphic images
    g = builtin_G(k3_table)
    u = Mat.from_rows(F101, [[1, 1], [1, 2]])
    u_inv = u.inverse()

    def twist(actions):
        return {name: cells_of({k: u @ a @ u_inv for k, a in dense_of(F101, 2, t).items()})
                for name, t in actions.items()}

    twisted = WitnessBimodule(k3_table, FreeAlgebra(F101), 2, twist(g.vertices),
                              twist(g.arrows), full=True)
    rng = random.Random(3)
    for _ in range(4):
        v = FreeAlgModule.random(F101, 2, rng)
        img_t = eval_tensor(twisted, v)
        img_g = eval_tensor(g, v)
        assert img_t.dim_vector() == img_g.dim_vector()
        assert are_isomorphic(img_t, img_g, seed=1).verdict == "yes"


def test_covering_certificate_inherits_to_parent(three_loop_bq, f101):
    # the three-loop bound transports to the four-loop algebra through the
    # declared factor, with the full rank-56 bimodule inflated and revalidated
    from wildrank.covering import CoveringSpec, covering_criterion
    cov = CoveringSpec(three_loop_bq, 1,
                       {a.name: (1,) for a in three_loop_bq.quiver.arrows})
    cert, _ = covering_criterion(cov, 2, field=f101, seed=0)
    assert cert.bound == 56
    four = loop_square_zero(4)
    prov = FactorProvenance(four, ("v",), ("x", "y", "z"))
    lifted = bound_via_factor(cert, prov, "four-loop radical-square-zero",
                              field=f101)
    assert lifted.bound == 56 and lifted.check_arithmetic()
    assert lifted.bimodule is not None
    assert lifted.bimodule.target.dimension == 5
    # the inflated witness still evaluates: the extra loop acts by zero
    v = fam(f101, [[3]], [[5]])
    img = eval_tensor(lifted.bimodule, v)
    assert img.total_dim == 28
    assert img.mats["w"].is_zero()


# ---------------------------------------------------------------------------
# tensor form of the actions
# ---------------------------------------------------------------------------

F7 = Field.prime(7)


def _witness_zoo(field):
    """The built-in witnesses, their composites and the rank-56 pushdown
    composite of the covering criterion, over one field."""
    from wildrank.covering import CoveringSpec, build_window, pushdown_bimodule
    table = build_algebra_table(k3_bound_quiver(), field)
    g, f = builtin_G(table), builtin_F(table)
    fg = compose_witness(f, g)
    three = loop_square_zero(3)
    cov = CoveringSpec(three, 1, {a.name: (1,) for a in three.quiver.arrows})
    window = build_window(cov, [(0, 1)])
    pd = pushdown_bimodule(window, field)
    sincere = sincere_witness_for_K3(build_algebra_table(window.bound_quiver, field))
    return {"G": g, "F": f, "FG": fg, "GF": compose_witness(g, f),
            "GFG": compose_witness(g, fg), "PD": pd, "sincere": sincere,
            "PD.sincere": compose_witness(pd, sincere)}


def _random_source_module(w, rng):
    """A seeded source module of dimension at most 2 (at most 1 for the
    rank-56 composite, to keep its 56-dimensional images small)."""
    field = w.field
    if isinstance(w.source, FreeAlgebra):
        return FreeAlgModule.random(field, 1 if w.rank > 28 else 2, rng)
    bq = w.source.bound_quiver
    dims = {v: rng.randint(0, 2) for v in bq.quiver.vertices}
    mats = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
            for a in bq.quiver.arrows}
    return Representation(bq, field, dims, mats, check=False)


@pytest.mark.parametrize("field", [F101, F7, QQ], ids=repr)
def test_eval_tensor_matches_entrywise_reference(field):
    rng = random.Random(f"tensor-ref:{field!r}")
    for name, w in _witness_zoo(field).items():
        for _ in range(2):
            v = _random_source_module(w, rng)
            img, frame = eval_tensor_with_frame(w, v)
            # diagonal idempotents: the frame lists the raw coordinates by vertex
            q = w.target.bound_quiver.quiver
            start, coords = 0, {}
            for vtx in q.vertices:
                coords[vtx] = frame[start:start + img.dims[vtx]]
                start += img.dims[vtx]
            for a in q.arrows:
                ref = reference_entry_matrix_on(w, w.arrows[a.name], v)
                assert img.mats[a.name] == ref.submatrix(coords[a.target],
                                                         coords[a.source]), name


def test_compose_then_evaluate_is_evaluate_twice():
    zoo = _witness_zoo(F101)
    rng = random.Random(53)
    # through a one-vertex middle target no vertex re-sorting happens in
    # between, so the composite's outer-generator-major coordinates give the
    # same matrices
    for outer, inner, same in (("G", "F", True), ("F", "G", False), ("G", "FG", True),
                               ("PD", "sincere", False)):
        o, i = zoo[outer], zoo[inner]
        composite = compose_witness(o, i)
        assert composite.rank == o.rank * i.rank
        for _ in range(2):
            v = _random_source_module(composite, rng)
            once = eval_tensor(composite, v)
            twice = eval_tensor(o, eval_tensor(i, v))
            assert are_isomorphic(once, twice, seed=3).verdict == "yes", (outer, inner)
            if same:
                assert once.dims == twice.dims and once.mats == twice.mats


def test_validate_rejects_non_idempotent_identity(k3_table):
    # each vertex idempotent acts as the identity, so 1 acts as 2; or one
    # vertex acts as twice the identity
    one = Mat.identity(F101, 1)
    arrows = {a: {} for a in ("a", "b", "c")}
    for vertices in ({"1": cells_of({(): one}), "2": cells_of({(): one})},
                     {"1": cells_of({(): one.scaled(2)}), "2": {}}):
        with pytest.raises(ValueError, match="do not act as orthogonal idempotents"):
            WitnessBimodule(k3_table, FreeAlgebra(F101), 1, vertices, arrows)


def test_validate_rejects_non_multiplicative_action(k3_table):
    # routing arrow a from generator 2 to generator 1 breaks e_2 * a = a,
    # and from generator 2 to itself breaks a * e_1 = a
    g = builtin_G(k3_table)
    for i, j in ((0, 1), (1, 1)):
        arrows = {**g.arrows, "a": cells_of({(): matrix_unit(F101, 2, 2, i, j)})}
        with pytest.raises(ValueError, match="arrow a does not act from vertex 1 to vertex 2"):
            WitnessBimodule(k3_table, FreeAlgebra(F101), 2, g.vertices, arrows)


def test_validate_rejects_keys_outside_the_source(k3_table):
    g = builtin_G(k3_table)
    for bad in (("z",), tuple("x" * 9), 0):
        vertices = {**g.vertices, "1": cells_of({bad: Mat.identity(F101, 2)})}
        with pytest.raises(ValueError, match="not a basis key"):
            WitnessBimodule(k3_table, FreeAlgebra(F101), 2, vertices, g.arrows)


def test_validate_rejects_names_outside_the_target(k3_table):
    g = builtin_G(k3_table)
    for vertices, arrows, message in (
            ({**g.vertices, "3": {}}, g.arrows, "'3', which is no vertex of the target"),
            (g.vertices, {**g.arrows, "d": {}}, "'d', which is no arrow of the target"),
            (g.vertices, {**g.arrows, "x": {}}, "'x', which is no arrow of the target"),
            ({"1": g.vertices["1"]}, g.arrows, "missing action of vertex 2"),
            (g.vertices, {"a": g.arrows["a"]}, "missing action of arrow b")):
        with pytest.raises(ValueError, match=message):
            WitnessBimodule(k3_table, FreeAlgebra(F101), 2, vertices, arrows)
    free = FreeAlgebra(F101)
    with pytest.raises(ValueError, match="'a', which is no arrow of the target"):
        WitnessBimodule(free, free, 1, {"v": cells_of({(): Mat.identity(F101, 1)})},
                        {"x": {}, "y": {}, "a": {}})


def test_validate_rejects_a_relation_that_does_not_act_as_zero(three_loop_bq):
    # x acting as the letter x makes x*x act as the word xx, not as zero
    table = build_algebra_table(three_loop_bq, F101)
    one = Mat.identity(F101, 1)
    vertices = {"v": cells_of({(): one})}
    good = WitnessBimodule(table, FreeAlgebra(F101), 1, vertices, {"x": {}, "y": {}, "z": {}})
    assert good.unital
    with pytest.raises(ValueError, match=r"relation 1\*x\*x does not act as zero"):
        WitnessBimodule(table, FreeAlgebra(F101), 1, vertices,
                        {"x": cells_of({("x",): one}), "y": {}, "z": {}})


def test_validation_multiplies_per_vertex_arrow_and_relation_term(monkeypatch, k3_table,
                                                                 three_loop_bq):
    # a table target is checked on its quiver: |V|^2 products for the
    # idempotents, 2|V||A| at most for the arrows and one per extra arrow in
    # each relation term, not one per pair of basis elements (25 for kK3)
    from wildrank import wildness
    from wildrank.covering import CoveringSpec, build_window, pushdown_bimodule
    calls = []
    real = wildness._tensor_mul

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wildness, "_tensor_mul", spy)
    cov = CoveringSpec(three_loop_bq, 1, {a.name: (1,) for a in three_loop_bq.quiver.arrows})
    window = build_window(cov, [(0, 1)])
    for build, bq in ((lambda: builtin_G(k3_table), k3_table.bound_quiver),
                      (lambda: pushdown_bimodule(window, F101), three_loop_bq)):
        calls.clear()
        build()
        v, a = len(bq.quiver.vertices), len(bq.quiver.arrows)
        extra = sum(len(p) - 1 for rel in bq.relations for _, p in rel.terms)
        assert len(calls) <= v * v + 2 * v * a + extra


def test_compose_through_a_table_middle_uses_path_products():
    # the middle algebra is kA3 (1 -> 2 -> 3), whose basis holds the path
    # a2*a1 of length 2; the inner witness sends a1 to E_21 (x) x and a2 to
    # E_32 (x) y, so a2*a1 acts as E_31 (x) yx
    a3 = build_algebra_table(BoundQuiver(line_quiver(3), [], nilbound=3), F101)
    free = FreeAlgebra(F101)
    one = Mat.identity(F101, 1)
    e = {v: a3.basis_index(Path(v, v, ())) for v in ("1", "2", "3")}
    a2a1 = a3.basis_index(Path("1", "3", ("a2", "a1")))
    a1 = a3.basis_index(Path("1", "2", ("a1",)))

    def unit(i, j):
        return matrix_unit(F101, 3, 3, i, j)

    inner = WitnessBimodule(a3, free, 3,
                            {v: cells_of({(): unit(i, i)}) for i, v in enumerate("123")},
                            {"a1": cells_of({("x",): unit(1, 0)}),
                             "a2": cells_of({("y",): unit(2, 1)})})
    # the outer witness: x acts as a2*a1 + 2 a1, y as e_2
    outer = WitnessBimodule(free, a3, 1, {"v": cells_of({k: one for k in e.values()})},
                            {"x": cells_of({a2a1: one, a1: one.scaled(2)}),
                             "y": cells_of({e["2"]: one})})
    composite = compose_witness(outer, inner)
    assert composite.vertices == {"v": cells_of({(): Mat.identity(F101, 3)})}
    assert composite.arrows == {"x": cells_of({("y", "x"): unit(2, 0),
                                               ("x",): unit(1, 0).scaled(2)}),
                                "y": cells_of({(): unit(1, 1)})}
    rng = random.Random(61)
    for _ in range(3):
        v = FreeAlgModule.random(F101, 2, rng)
        once, twice = eval_tensor(composite, v), eval_tensor(outer, eval_tensor(inner, v))
        assert are_isomorphic(once, twice, seed=4).verdict == "yes"


def test_module_over_another_nilbound_of_the_source_quiver(k3_table):
    # a two-loop module over the relation-free two-loop quiver with its
    # default nilbound 4 is a k<x,y>-module like a FreeAlgModule
    g = builtin_G(k3_table)
    rng = random.Random(67)
    x, y = Mat.random(F101, 3, 3, rng), Mat.random(F101, 3, 3, rng)
    plain = BoundQuiver(loop_quiver(2), [])
    assert plain.nilbound != FreeAlgebra.bound_quiver.nilbound
    m = Representation(plain, F101, {"v": 3}, {"x": x, "y": y}, check=False)
    img = eval_tensor(g, m)
    ref = eval_tensor(g, FreeAlgModule(x, y))
    assert img.dims == ref.dims and img.mats == ref.mats
    # other relations are another algebra
    q = loop_quiver(2)
    nil = Mat.from_rows(F101, [[0, 1], [0, 0]])
    bound = BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))])], nilbound=4)
    with pytest.raises(ShapeMismatchError):
        eval_tensor(g, Representation(bound, F101, {"v": 2}, {"x": nil, "y": nil}, check=False))


# ---------------------------------------------------------------------------
# the cell form against the dense form {key: A_k}
# ---------------------------------------------------------------------------

F_BIG = Field.prime(16777213)
#: cell scalars: small ones, so that random sums and products cancel
_SCALARS = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]


def _source_of(kind, field):
    return FreeAlgebra(field) if kind == "free" else build_algebra_table(k3_bound_quiver(), field)


def _source_keys(source):
    """Words of length at most two, or every basis index of a table."""
    if isinstance(source, FreeAlgebra):
        return [()] + [w for n in (1, 2) for w in itertools.product("xy", repeat=n)]
    return list(range(source.dimension))


@st.composite
def _cell_tensors(draw, field, source, r):
    """A canonical random tensor, read through the dense form: a key may
    get no cell, and cells may cancel to zero."""
    keys = draw(st.lists(st.sampled_from(_source_keys(source)), max_size=4, unique=True))
    cell = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    raw = {k: draw(st.dictionaries(cell, st.sampled_from(_SCALARS), max_size=r * r))
           for k in keys}
    return cells_of(dense_of(field, r, raw))


@st.composite
def _free_target_witnesses(draw, field, source):
    """A witness from source modules to k<x,y>-modules: v acts by the
    identity, x and y by random tensors, which is valid for any tensors."""
    r = draw(st.integers(1, 3))
    x, y = draw(_cell_tensors(field, source, r)), draw(_cell_tensors(field, source, r))
    return WitnessBimodule(FreeAlgebra(field), source, r, {"v": wildness_module._identity(source, r)},
                           {"x": x, "y": y})


@pytest.mark.parametrize("kind", ["free", "table"])
@pytest.mark.parametrize("field", [F101, F_BIG, QQ], ids=repr)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cell_arithmetic_matches_the_dense_form(field, kind, data):
    # products, sums, composites and evaluations of random tensors and
    # witnesses, each against the dense arithmetic on {key: A_k}
    source = _source_of(kind, field)
    r = data.draw(st.integers(1, 3))
    a, b = (data.draw(_cell_tensors(field, source, r)) for _ in range(2))
    da, db = dense_of(field, r, a), dense_of(field, r, b)
    assert wildness_module._tensor_mul(source, a, b) == \
        cells_of(reference_tensor_mul(source, r, da, db))
    c = data.draw(st.sampled_from(_SCALARS))
    terms = [(c, a), (1, b), (-c, a)]
    assert wildness_module._tensor_sum(field, terms) == cells_of(reference_tensor_sum(
        field, r, [(c, dense_of(field, r, t)) for c, t in terms])) == b
    outer = data.draw(_free_target_witnesses(field, FreeAlgebra(field)))
    inner = data.draw(_free_target_witnesses(field, source))
    composite = compose_witness(outer, inner)
    vertices, arrows = reference_compose_actions(outer, inner)
    assert composite.vertices == {v: cells_of(t) for v, t in vertices.items()}
    assert composite.arrows == {a: cells_of(t) for a, t in arrows.items()}
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    for w in (inner, composite):
        v = _random_source_module(w, rng)
        img = eval_tensor(w, v)
        for name in ("x", "y"):
            assert img.mats[name] == reference_dense_entry_matrix_on(w, w.arrows[name], v)


@pytest.mark.parametrize("field", [F101, F_BIG, QQ], ids=repr)
def test_evaluation_of_an_action_with_many_keys(field):
    # x acts by -2 E_00 (x) w for each of the 42 words w of odd length at
    # most 5; at a one-dimensional module with x = y = -2 every key adds an
    # odd product near p**2 to one entry, more than the 32 that
    # p = 16777213 allows between reductions
    words = [w for n in (1, 3, 5) for w in itertools.product("xy", repeat=n)]
    minus_two = field.coerce(-2)
    w = WitnessBimodule(FreeAlgebra(field), FreeAlgebra(field), 1,
                        {"v": {(): {(0, 0): field.one}}},
                        {"x": {word: {(0, 0): minus_two} for word in words}, "y": {}})
    v = fam(field, [[-2]], [[-2]])
    img = eval_tensor(w, v)
    expected = sum((-2) * (-2) ** len(word) for word in words)
    assert len(words) == 42
    assert img.mats["x"] == reference_dense_entry_matrix_on(w, w.arrows["x"], v) == \
        Mat.from_rows(field, [[expected]])


def test_witness_arithmetic_builds_no_matrix(monkeypatch, three_loop_bq):
    # constructing, validating, composing and taking path actions work on
    # the cells alone: no Mat is made through either constructor
    from wildrank.covering import CoveringSpec, build_window, pushdown_bimodule
    cov = CoveringSpec(three_loop_bq, 1, {a.name: (1,) for a in three_loop_bq.quiver.arrows})
    pd = pushdown_bimodule(build_window(cov, [(0, 1)]), F101)
    made = []
    init, of = Mat.__init__, Mat._of
    monkeypatch.setattr(Mat, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    monkeypatch.setattr(Mat, "_of", classmethod(lambda cls, *args: made.append(args) or of(*args)))
    sincere = sincere_witness_for_K3(pd.source)
    composite = compose_witness(pd, sincere)
    again = WitnessBimodule(composite.target, composite.source, composite.rank,
                            composite.vertices, composite.arrows)
    for w in (pd, sincere, again):
        for k in range(w.target.dimension):
            w.path_action(w.target.basis_path(k))
    assert made == []
    assert again.vertices == composite.vertices and again.arrows == composite.arrows
