import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import wildrank.exactlin as exactlin_module
import wildrank.rep as rep_module
import wildrank.wildness as wildness_module
from conftest import (certify_images, direct_sum, F101, fixture_text, fresh_copy,
                      k3_witness_image, kron, line_quiver, make_relation,
                      nilpotency_index, QQ, reference_are_isomorphic,
                      reference_check_preservation,
                      reference_end_radical, reference_hom_pencil, reference_hom_space,
                      reference_idempotent_from_minpoly, reference_in_sincere_subcategory,
                      reference_is_indecomposable, reference_pairing_witness,
                      reference_regular_trace_gram, reference_relation_jacobian,
                      reference_frame_totals, reference_target_side, reference_totals,
                      reference_trace_pairing,
                      ReferenceEndAnalysis, rep_from_lists, simple_rep,
                      span_of, zero_rep, _reference_poly_mul)

from wildrank.cli import cmd_certify
from wildrank.covering import CoveringSpec, build_window, pushdown
from wildrank.exactlin import (Field, Mat, ShapeMismatchError, Span, all_nilpotent,
                               find_invertible_in_span, trace_form, trace_radical)
from wildrank.quiver import BoundQuiver, Quiver, loop_quiver
from wildrank.rep import (InconclusiveError, Representation, SamplingStarvation,
                          are_isomorphic, check_relations, decompose, end_radical,
                          factor_polynomial, hom_space, in_sincere_subcategory,
                          is_indecomposable, relation_jacobian,
                          sample_representation, shared_solves, subquotient, support,
                          _poly_eval_matrix, _regular_representation)
from wildrank.wildness import (FreeAlgModule, builtin_G, check_preservation, eval_tensor)


def kron_module(k2_bq, field, lam):
    return rep_from_lists(k2_bq, field, {"1": 1, "2": 1},
                          {"a": [[1]], "b": [[lam]]})


def rand_rep(bq, field, maxd, rng):
    dims = {v: rng.randint(0, maxd) for v in bq.quiver.vertices}
    mats = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
            for a in bq.quiver.arrows}
    return Representation(bq, field, dims, mats, check=False)


def test_check_relations(dual_numbers_bq, f101):
    zero = zero_rep(dual_numbers_bq, f101)
    assert all(ok for _, ok in check_relations(zero))
    j2 = rep_from_lists(dual_numbers_bq, f101, {"v": 2},
                        {"x": [[0, 0], [1, 0]]})
    assert all(ok for _, ok in check_relations(j2))
    with pytest.raises(ValueError):
        rep_from_lists(dual_numbers_bq, f101, {"v": 2},
                       {"x": [[1, 0], [0, 1]]})


def test_unknown_vertices_are_refused(k3_bq):
    with pytest.raises(ValueError, match="unknown vertices: \\['zz'\\]"):
        Representation(k3_bq, F101, {"1": 1, "2": 1, "zz": 5}, {})


def test_modules_over_different_fields_are_refused(a2_bq):
    # on one vertex with no arrow, Hom(F101^2, F7^2) is no 4-dimensional
    # space over F101; disjointly supported modules over F101 and Q have no
    # zero Hom between them; and a dimension count is no isomorphism verdict
    point = BoundQuiver(Quiver(["v"], []), [])
    m, n = (Representation(point, f, {"v": 2}, {}) for f in (F101, Field.prime(7)))
    left, right = simple_rep(a2_bq, F101, "1"), simple_rep(a2_bq, QQ, "2")
    for x, y in ((m, n), (left, right), (right, left)):
        with pytest.raises(ShapeMismatchError, match="different fields"):
            hom_space(x, y)
        with pytest.raises(ShapeMismatchError, match="different fields"), shared_solves():
            hom_space(x, y)
        with pytest.raises(ShapeMismatchError, match="different fields"):
            are_isomorphic(x, y)
    assert not m._homs and not left._homs


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=repr)
def test_subquotient_of_the_kronecker_projective(k2_bq, field):
    # P(1): a and b send the generator at 1 to the two unit vectors at 2
    p = rep_from_lists(k2_bq, field, {"1": 1, "2": 2}, {"a": [[1], [0]], "b": [[0], [1]]})
    unit = {i: Mat.from_rows(field, [[1 - i], [i]]) for i in (0, 1)}
    one, none = Mat.identity(field, 1), {n: Mat.zeros(field, n, 0) for n in (1, 2)}
    # P(1) modulo its radical is the simple S(1)
    top = subquotient(k2_bq, field, p.mats, {"1": one, "2": none[2]},
                      {"1": none[1], "2": Mat.identity(field, 2)})
    s1 = simple_rep(k2_bq, field, "1")
    assert top.dims == s1.dims and top.mats == s1.mats
    # modulo the image of a, a acts as zero and b as one
    quot = subquotient(k2_bq, field, p.mats, {"1": one, "2": unit[1]},
                       {"1": none[1], "2": unit[0]})
    assert quot.dims == {"1": 1, "2": 1}
    assert quot.mats == {"a": Mat.zeros(field, 1, 1), "b": one}
    # the radical, S(2) twice, as a submodule
    rad = subquotient(k2_bq, field, p.mats, {"1": none[1], "2": Mat.identity(field, 2)})
    assert rad.dims == {"1": 0, "2": 2}
    # the image of a alone is not stable under b
    with pytest.raises(ValueError, match="arrow b "):
        subquotient(k2_bq, field, p.mats, {"1": one, "2": unit[0]})


def test_hom_examples(a2_bq, k2_bq, f101):
    s1 = simple_rep(a2_bq, f101, "1")
    s2 = simple_rep(a2_bq, f101, "2")
    assert hom_space(s1, s1).dim == 1
    assert hom_space(s1, s2).dim == 0
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    assert hom_space(m3, m3).dim == 1
    assert hom_space(m3, m5).dim == 0


def flat_morphism(f, vertices):
    return [x for v in vertices for row in f[v].row_list() for x in row]


def random_invertible(field, n, rng):
    while True:
        g = Mat.random(field, n, n, rng)
        if g.is_invertible():
            return g


def invertible_rep(bq, field, dims, rng):
    """A module on which every arrow between equal dimensions is invertible,
    so that ``hom_space`` contracts all of them."""
    def arrow(t, s):
        while True:
            g = Mat.random(field, t, s, rng)
            if t != s or g.is_invertible():
                return g
    return Representation(bq, field, dims, {a.name: arrow(dims[a.target], dims[a.source])
                                            for a in bq.quiver.arrows}, check=False)


def test_hom_fast_paths_agree(k3_bq, k2_bq, free_bq):
    # the contraction, pencil and Kronecker paths of hom_space against one
    # uncontracted kernel: the same dimension, and a basis of intertwiners
    rng = random.Random(42)
    a3 = BoundQuiver(line_quiver(3), [], nilbound=3)
    d4 = BoundQuiver(Quiver(["c", "1", "2", "3"],
                            [("a", "1", "c"), ("b", "c", "2"), ("d", "3", "c")]), [])
    # inputs the random draws can miss: contracting a on K2 leaves one root
    # with the invertible, so not nilpotent, pencils of b (the Kronecker
    # route with transforms); on A3 and D4 it leaves two roots with transforms
    contracted = [(k2_bq, {"1": 3, "2": 3}), (a3, {"1": 2, "2": 2, "3": 3}),
                  (d4, {"c": 2, "1": 2, "2": 2, "3": 1})]
    for field in (F101, Field.prime(7), QQ):
        pairs = [(rand_rep(bq, field, 3, rng), rand_rep(bq, field, 3, rng))
                 for bq in (k2_bq, k3_bq, free_bq, a3) for _ in range(4)]
        for bq, dims in contracted:
            m, n = invertible_rep(bq, field, dims, rng), invertible_rep(bq, field, dims, rng)
            pairs += [(m, n), (n, m), (m, m)]
        for m, n in pairs:
            h = hom_space(m, n)
            assert h.dim == len(reference_hom_space(m, n))
            for f in h.basis:
                for a in m.bound_quiver.quiver.arrows:
                    assert f[a.target] @ m.mats[a.name] == n.mats[a.name] @ f[a.source]
            if h.dim:
                flat = [flat_morphism(f, m.bound_quiver.quiver.vertices) for f in h.basis]
                assert Mat.from_rows(field, flat).rank() == h.dim


def copy_rep(m):
    return Representation(m.bound_quiver, m.field, m.dims, m.mats, check=False)


def test_hom_cache_serves_each_pair_once(k3_bq, monkeypatch):
    solves = []
    solve = rep_module._solve_hom_equations
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))
    rng = random.Random(34)
    m = rand_rep(k3_bq, F101, 3, rng)
    n = direct_sum(m, rand_rep(k3_bq, F101, 3, rng))
    first = hom_space(m, n)
    assert first.dim >= 1 and len(solves) == 1
    second = hom_space(m, n)
    assert len(solves) == 1 and second.basis is first.basis
    assert second.source is m and second.target is n
    # the cached basis is the one a fresh computation on equal modules gives
    assert hom_space(copy_rep(m), copy_rep(n)).basis == first.basis and len(solves) == 2
    assert hom_space(m, n).basis is first.basis and len(solves) == 2


def test_hom_cache_keeps_neither_module_alive(k3_bq):
    # with the cyclic collector off: freeing the target drops its entry from
    # the source's cache, and reference counting alone frees the source
    gc.disable()
    try:
        rng = random.Random(35)
        m = rand_rep(k3_bq, F101, 3, rng)
        n = rand_rep(k3_bq, F101, 3, rng)
        hom_space(m, n), hom_space(n, m), hom_space(m, m), hom_space(n, n)
        assert set(m._homs) == {m, n}
        gone_n = weakref.ref(n)
        del n
        assert gone_n() is None and set(m._homs) == {m}
        gone_m = weakref.ref(m)
        del m
        assert gone_m() is None
    finally:
        gc.enable()


def _hom_route_modules(field, a2_bq, k2_bq, k3_bq, rng):
    """Groups of modules of one bound quiver each, one group per route of
    the Hom solver, with equal systems among their pairs: Kronecker modules
    (A, A N) with N nilpotent leave the pencil N after contracting a (the
    Jordan route; two share N), three-arrow modules with a invertible leave
    one root (the single-root Kronecker route; one is a copy of another),
    three-arrow modules of dimension (2, 1) contract nothing (the
    multi-root route, as do one singular arrow 1 -> 2 and the same arrow
    2 -> 1, whose systems differ only in which root each end is), and A2
    modules with an invertible arrow leave no equation row."""
    nil = [random_invertible(field, 3, rng) for _ in range(2)]
    nil = [g @ Mat.from_rows(field, _jordan_rows(sizes, 3)) @ g.inverse()
           for g, sizes in zip(nil, ([(2, 0), (1, 0)], [(3, 0)]))]
    jordan = []
    for n in (nil[0], nil[0], nil[1]):
        a = random_invertible(field, 3, rng)
        jordan.append(Representation(k2_bq, field, {"1": 3, "2": 3}, {"a": a, "b": a @ n}))
    single = [invertible_rep(k3_bq, field, {"1": 2, "2": 2}, rng) for _ in range(2)]
    single.append(fresh_copy(single[0]))
    multi = [rand_rep(k3_bq, field, 2, rng) for _ in range(2)]
    multi += [Representation(k3_bq, field, {"1": 2, "2": 1},
                             {x: Mat.random(field, 1, 2, rng) for x in "abc"}, check=False)]
    rank_one = Mat.random(field, 2, 1, rng) @ Mat.random(field, 1, 2, rng)
    swapped = [[Representation(bq, field, {"1": 2, "2": 2}, {"a1": rank_one})]
               for bq in (a2_bq, BoundQuiver(Quiver(["1", "2"], [("a1", "2", "1")]), []))]
    no_rows = [invertible_rep(a2_bq, field, {"1": d, "2": d}, rng) for d in (2, 2, 1)]
    return [jordan, single, multi, *swapped, no_rows]


@pytest.mark.parametrize("field", [F101, Field.prime(7), Field.prime(16777213), QQ], ids=str)
def test_hom_spaces_give_the_bases_of_hom_space(field, a2_bq, k2_bq, k3_bq, monkeypatch):
    # one phase over every route: pair by pair, the bases a fresh hom_space
    # gives on fresh copies, each filling the source's cache, with equal
    # systems solved once and the Jordan route taken
    rng = random.Random(f"hom-batch:{field!r}")
    groups = _hom_route_modules(field, a2_bq, k2_bq, k3_bq, rng)
    pairs = [(m, n) for group in groups for m in group for n in group]
    solves, jordan = [], []
    solve, nilpotent_basis = rep_module._solve_hom_equations, rep_module.nilpotent_hom_basis
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(rep_module, "nilpotent_hom_basis",
                        lambda s, sp, rest=(): jordan.append(s) or nilpotent_basis(s, sp, rest))
    with shared_solves():
        got = [hom_space(m, n) for m, n in pairs]
    assert [(h.source, h.target) for h in got] == pairs
    assert all(m._homs[n] is h._framed for (m, n), h in zip(pairs, got))
    assert jordan and len(solves) < len(pairs)
    monkeypatch.undo()
    for (m, n), h in zip(pairs, got):
        assert h.basis == hom_space(fresh_copy(m), fresh_copy(n)).basis
        assert h.dim == len(reference_hom_space(m, n))


def test_hom_spaces_solve_each_distinct_system_once(k3_table, monkeypatch):
    # builtin_G sends (X, Y) to the three-arrow module (1, X, Y), whose
    # contracted system is the source's own: the eight Hom spaces among two
    # modules and their images are four systems
    g = builtin_G(k3_table)
    rng = random.Random("distinct-systems")
    mods = [FreeAlgModule(Mat.random(F101, 3, 3, rng), Mat.random(F101, 3, 3, rng))
            for _ in range(2)]
    images = [eval_tensor(g, v) for v in mods]
    solves = []
    solve = rep_module._solve_hom_equations
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))
    pairs = [(x[i], x[j]) for x in (mods, images) for i in range(2) for j in range(2)]
    with shared_solves():
        got = [hom_space(m, n) for m, n in pairs]
    assert len(solves) == 4
    assert [h.dim for h in got[:4]] == [h.dim for h in got[4:]]
    # a second phase solves nothing: every basis is cached on its source
    with shared_solves():
        assert [hom_space(m, n).basis for m, n in pairs] == [h.basis for h in got]
    assert len(solves) == 4


def test_hom_spaces_share_jordan_frames_within_a_field(k3_bq, monkeypatch):
    # three-arrow modules (1, N, R) leave the pencils N (nilpotent) and R
    # after contracting a; two modules with one N and two R are four
    # systems on one frame, and the same integer entries over F7 and F101
    # are two systems on two frames, as are the End spaces of one vertex
    # with no arrow over the two fields
    rng = random.Random("shared-frames")
    one = BoundQuiver(Quiver(["v"], []), [])

    def module(field, n, r):
        return Representation(k3_bq, field, {"1": 3, "2": 3},
                              {"a": Mat.identity(field, 3), "b": Mat.from_rows(field, n),
                               "c": Mat.from_rows(field, r)}, check=False)

    def rand_rows():
        return [[rng.randrange(7) for _ in range(3)] for _ in range(3)]

    nil, other = [[0, 1, 2], [0, 0, 3], [0, 0, 0]], [[0, 0, 0], [4, 0, 0], [0, 5, 0]]
    same = [module(F101, nil, rand_rows()) for _ in range(2)]
    rows = rand_rows()
    by_field = [module(F7, other, rows), module(F101, other, rows)]
    points = [Representation(one, f, {"v": 2}, {}) for f in (F7, F101)]
    frames, solves = [], []
    jordan, solve = exactlin_module.jordan_nilpotent, rep_module._solve_hom_equations
    monkeypatch.setattr(exactlin_module, "jordan_nilpotent",
                        lambda s: frames.append(s) or jordan(s))
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))
    pairs = [(x, y) for x in same for y in same] + [(x, x) for x in by_field + points]
    with shared_solves():
        got = [hom_space(x, y) for x, y in pairs]
    assert len(solves) == 8
    assert sorted(repr(s.field) for s in frames) == ["F101", "F101", "F7"]
    for (x, y), h in zip(pairs, got):
        assert all(f[v].field == x.field for f in h.basis for v in f)
        assert h.dim == len(reference_hom_space(x, y))
    assert [h.dim for h in got[-2:]] == [4, 4]


def test_a_nested_phase_joins_the_outer_one(k3_bq, monkeypatch):
    # End of fresh copies of one module is one system: shared within a
    # phase, a nested one included, and solved again after the outermost
    # phase exits, normally or by an exception; a decorated function opens
    # a phase per call
    rng = random.Random("nested-phases")
    m = Representation(k3_bq, F101, {"1": 2, "2": 1}, {a: Mat.random(F101, 1, 2, rng)
                                                         for a in "abc"})
    solves = []
    solve = rep_module._solve_hom_equations
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))

    def end_of_a_copy():
        c = fresh_copy(m)
        return hom_space(c, c).basis

    with shared_solves():
        end_of_a_copy()
        with shared_solves():
            end_of_a_copy()
        end_of_a_copy()
    assert len(solves) == 1
    end_of_a_copy()
    assert len(solves) == 2
    with pytest.raises(RuntimeError, match="inside"), shared_solves():
        end_of_a_copy()
        raise RuntimeError("raised inside")
    end_of_a_copy()
    assert len(solves) == 4

    @shared_solves()
    def two_copies():
        return end_of_a_copy() == end_of_a_copy()

    assert two_copies() and two_copies() and len(solves) == 6
    assert rep_module._SHARED.get() is None


def _witness_and_pushdown_samples(k3_table, dual_numbers_bq):
    """Seeded sources and images as ``verify_witness`` (builtin_G, up to
    dimension 2) and ``verify_pushdown`` (the dual numbers' window) check
    them."""
    rng = random.Random("preservation-samples")
    mods = [FreeAlgModule.random(F101, 2, rng) for _ in range(6)]
    g = builtin_G(k3_table)
    window = build_window(CoveringSpec(dual_numbers_bq, 1, {"x": (1,)}), [(0, 1)])
    bq = window.bound_quiver
    lifts = [sample_representation(bq, F101, {v: rng.randint(1, 2) for v in bq.quiver.vertices},
                                   rng) for _ in range(6)]
    return [(mods, [eval_tensor(g, v) for v in mods]),
            (lifts, [pushdown(window, n) for n in lifts])]


def test_check_preservation_matches_the_per_pair_reference(k3_table, dual_numbers_bq,
                                                           monkeypatch):
    # the counts, pairs and verdict seeds that check_preservation's docstring
    # names, from the trial-first references on fresh copies
    seeds = []
    indecomposable, isomorphic = wildness_module.is_indecomposable, wildness_module.are_isomorphic
    monkeypatch.setattr(wildness_module, "is_indecomposable",
                        lambda m, seed: seeds.append(seed) or indecomposable(m, seed))
    monkeypatch.setattr(wildness_module, "are_isomorphic",
                        lambda m, n, seed: seeds.append(seed) or isomorphic(m, n, seed=seed))
    for seed, (sources, images) in enumerate(_witness_and_pushdown_samples(k3_table,
                                                                           dual_numbers_bq)):
        *ref, ref_seeds = reference_check_preservation([fresh_copy(v) for v in sources],
                                                       [fresh_copy(v) for v in images],
                                                       seed, "pairs", 10)
        seeds.clear()
        got = check_preservation(sources, images, seed, "pairs", 10)
        assert list(got) == ref and sorted(seeds) == ref_seeds
        assert sum(vars(got[1]).values()) == len(got[2]) > 0


@pytest.mark.parametrize("field", [F101, QQ], ids=str)
def test_total_matrices_are_one_stack(k3_bq, field, monkeypatch):
    # one Span.assemble per call: equal, matrix for matrix, to one
    # Mat.assemble per basis element, over Q also with denominators
    assembled = []
    assemble = Span.assemble
    monkeypatch.setattr(Span, "assemble", lambda *args: assembled.append(args) or assemble(*args))
    rng = random.Random(f"totals:{field}")
    one = Representation(k3_bq, field, {"1": 2, "2": 1},
                         {a: Mat.random(field, 1, 2, rng) for a in "abc"})
    mods = [one, direct_sum(one, one), direct_sum(one, rand_rep(k3_bq, field, 2, rng))]
    if field == QQ:
        mods.append(Representation(k3_bq, field, one.dims,
                                   {a: x.scaled(Fraction(1, 6)) for a, x in one.mats.items()}))
    seen = 0
    for m in mods:
        for n in mods:
            h = hom_space(m, n)
            totals = h.totals()
            assert (totals.rows, totals.cols) == (n.total_dim, m.total_dim)
            assert totals.mats == [Mat.assemble(field, n.total_dim, m.total_dim,
                                                [(n.offset(v), m.offset(v), f[v]) for v in f])
                                   for f in h.basis]
            seen += h.dim > 1
    assert len(assembled) == len(mods) ** 2 and seen >= 3
    if field == QQ:
        assert any(x.denominator > 1 for m in mods for n in mods
                   for g in hom_space(m, n).totals().mats for row in g.row_list() for x in row)


def test_end_cache_leaves_no_reference_cycle(k3_bq):
    # with the cyclic collector off, reference counting alone must free a
    # module whose End was computed and cached
    gc.disable()
    try:
        m = rand_rep(k3_bq, F101, 3, random.Random(21))
        assert hom_space(m, m).dim >= 1
        is_indecomposable(m, seed=1)
        gone = weakref.ref(m)
        del m
        assert gone() is None
    finally:
        gc.enable()


def test_hom_bilinear_over_direct_sums(k3_bq):
    rng = random.Random(7)
    for _ in range(5):
        m = rand_rep(k3_bq, F101, 2, rng)
        mp = rand_rep(k3_bq, F101, 2, rng)
        n = rand_rep(k3_bq, F101, 2, rng)
        lhs = hom_space(direct_sum(m, mp), n).dim
        assert lhs == hom_space(m, n).dim + hom_space(mp, n).dim


def test_matrix_minpoly():
    rng = random.Random(3)
    for field in (F101, QQ):
        for n in (1, 3, 5):
            t = Mat.random(field, n, n, rng)
            mp = t.minimal_polynomial()
            assert mp[-1] == field.one
            assert _poly_eval_matrix(field, mp, t).is_zero()


def _reference_factor_polynomial(field, coeffs):
    """factor_polynomial with the Poly built from a sympy expression."""
    x = sympy.Symbol("x")
    if field.char:
        dom = sympy.GF(field.char)
        expr = sum(int(c) * x ** i for i, c in enumerate(coeffs))
    else:
        dom = sympy.QQ
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, domain=dom).factor_list()
    out = []
    for fac, mult in factors:
        fc = fac.all_coeffs()[::-1]
        if field.char:
            lifted = [field.coerce(int(c)) for c in fc]
        else:
            lifted = [Fraction(sympy.Rational(c).p, sympy.Rational(c).q) for c in fc]
        lead = lifted[-1]
        if lead != field.one:
            inv = field.inv(lead)
            lifted = [field.mul(inv, c) for c in lifted]
        out.append((lifted, int(mult)))
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out


POLY_FIELDS = [F101, Field.prime(7), Field.prime(5), Field.prime(16777213), QQ]


@pytest.mark.parametrize("field", POLY_FIELDS, ids=["F101", "F7", "F5", "F16777213", "Q"])
def test_factor_polynomial_matches_expression_reference(field):
    rng = random.Random(field.char + 11)

    def scalar():
        if field.char:
            return rng.randrange(field.char)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def poly(deg):
        lead = scalar()
        while lead == 0:
            lead = scalar()
        return [scalar() for _ in range(deg)] + [lead]

    cases = [poly(rng.randint(0, 5)) for _ in range(120)]
    # repeated factors g^2 * h with deg g in 1..2 and deg g^2 * h <= 5
    for _ in range(60):
        g = poly(rng.randint(1, 2))
        h = poly(rng.randint(0, 5 - 2 * (len(g) - 1)))
        cases.append(_reference_poly_mul(field, _reference_poly_mul(field, g, g), h))
    # non-monic: the first 40 cases scaled by 3, and 3 (x - 1)^2 (x + 2)
    cases += [[field.mul(field.coerce(3), c) for c in f] for f in cases[:40]]
    repeated = [field.coerce(c) for c in (6, -9, 0, 3)]
    cases.append(repeated)
    # up to degree 56, the largest module dimension in certify: random
    # polynomials, and products of random factors with repeated ones
    cases += [poly(d) for d in (12, 28, 56)]
    for total in (30, 56):
        f = [field.one]
        while len(f) <= total - 3:
            g = poly(rng.randint(1, 3))
            f = _reference_poly_mul(field, f, _reference_poly_mul(field, g, g) if rng.random() < 0.3 else g)
        cases.append(f)
    # multiplicities 5, 7 and 10: p-th powers over F5 and F7
    powers = [field.one]
    for root, mult in ((-2, 5), (1, 7), (0, 10)):
        for _ in range(mult):
            powers = _reference_poly_mul(field, powers, [field.coerce(-root), field.one])
    cases.append(powers)
    assert any(len(f) == 1 for f in cases) and any(f[-1] != field.one for f in cases)
    assert max(map(len, cases)) == 57
    for f in cases:
        assert factor_polynomial(field, f) == _reference_factor_polynomial(field, f)
    # the repeated factor shows up with its multiplicity
    assert ([field.coerce(-1), field.one], 2) in factor_polynomial(field, repeated)
    # constants, zero among them, have no factors
    for f in ([], [field.zero], [field.coerce(7)], [field.coerce(-2), field.zero]):
        assert factor_polynomial(field, f) == [] == _reference_factor_polynomial(field, f)


def test_factor_polynomial_recombines_over_q(monkeypatch):
    """Inputs whose factors mod the chosen prime must be recombined: every
    root of 1..12, and the Swinnerton-Dyer polynomials of sqrt 2, sqrt 3
    (and sqrt 5), irreducible over Q and split mod every prime; then
    coefficients so large that the Hensel lift runs past 2^24 three times."""
    moduli = []
    step = exactlin_module._hensel_step
    monkeypatch.setattr(exactlin_module, "_hensel_step",
                        lambda f, g, h, s, t, m: moduli.append(m) or step(f, g, h, s, t, m))
    roots = [QQ.one]
    for i in range(1, 13):
        roots = _reference_poly_mul(QQ, roots, [QQ.coerce(-i), QQ.one])
    sd4 = [QQ.coerce(c) for c in (1, 0, -10, 0, 1)]
    sd8 = [QQ.coerce(c) for c in (576, 0, -960, 0, 352, 0, -40, 0, 1)]
    big = [QQ.one]
    for g in ([7, 3 * 10 ** 20, -1], [5, -2 ** 70, 0, 11], [-3, 2 * 10 ** 15],
              [Fraction(1, 3), 0, 0, 0, 10 ** 12]):
        big = _reference_poly_mul(QQ, big, [QQ.coerce(c) for c in g])
    expected = {"roots": [1] * 12, "sd4": [4], "sd8": [8], "big": [1, 2, 3, 4]}
    for name, f in zip(expected, (roots, sd4, sd8, big)):
        moduli.clear()
        got = factor_polynomial(QQ, f)
        assert got == _reference_factor_polynomial(QQ, f), name
        assert sorted(len(g) - 1 for g, _ in got) == expected[name], name
        assert all(type(c) is Fraction for g, _ in got for c in g), name
        assert moduli, name
    assert max(moduli) ** 2 > 2 ** 72
    # non-monic with a repeated factor: 3 (2x - 1)^2 (x^2 - 2)
    f = _reference_poly_mul(QQ, [QQ.coerce(c) for c in (3, -12, 12)], [QQ.coerce(c) for c in (-2, 0, 1)])
    assert factor_polynomial(QQ, f) == [([Fraction(-1, 2), QQ.one], 2),
                                        ([QQ.coerce(-2), QQ.zero, QQ.one], 1)]


def _block_diagonal(field, blocks):
    offs = list(itertools.accumulate((b.rows for b in blocks), initial=0))
    return Mat.assemble(field, offs[-1], offs[-1], [(o, o, b) for o, b in zip(offs, blocks)])


def _split_cases(field, rng):
    """Seeded matrices whose minimal polynomials split into at least two
    coprime factors: Jordan blocks (repeated factors), companion matrices of
    irreducible quadratics and random blocks, in a random basis."""
    roots = [field.coerce(c) for c in (0, 1, 2, -3)]
    nonsquare = next(n for n in range(2, 200)
                     if len(factor_polynomial(field, [field.coerce(-n), 0, 1])) == 1)
    quad = Mat.from_rows(field, [[0, nonsquare], [1, 0]])

    def jordan(lam, k):
        return Mat.from_rows(field, [[lam if i == j else (1 if j == i + 1 else 0)
                                      for j in range(k)] for i in range(k)])

    cases = []
    for _ in range(24):
        blocks = [jordan(rng.choice(roots), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        blocks += [quad] * rng.randint(0, 2)
        if rng.random() < 0.3:
            blocks.append(Mat.random(field, 2, 2, rng))
        d = _block_diagonal(field, blocks)
        g = Mat.random(field, d.rows, d.rows, rng)
        while not g.is_invertible():
            g = Mat.random(field, d.rows, d.rows, rng)
        cases.append(g @ d @ g.inverse())
    return cases


@pytest.mark.parametrize("field", [F101, Field.prime(7), Field.prime(5), QQ],
                         ids=["F101", "F7", "F5", "Q"])
def test_idempotent_split_matches_hand_written_reference(field):
    rng = random.Random(field.char + 29)
    splits = repeated = quadratic = 0
    for phi in _split_cases(field, rng):
        factors = factor_polynomial(field, phi.minimal_polynomial())
        if len(factors) < 2:
            continue
        e = rep_module._idempotent_matrix_from_minpoly(field, factors, phi)
        assert e is not None
        assert e == reference_idempotent_from_minpoly(field, factors, phi)
        splits += 1
        repeated += any(mult > 1 for _, mult in factors)
        quadratic += any(len(fac) == 3 for fac, _ in factors)
    assert splits >= 12 and repeated >= 4 and quadratic >= 4


def test_indecomposable_examples(a2_bq, k2_bq, f101):
    s1 = simple_rep(a2_bq, f101, "1")
    assert is_indecomposable(s1, 0).verdict == "yes"
    v = is_indecomposable(direct_sum(s1, s1), 0)
    assert v.verdict == "no"
    e = v.witness
    for vt, blk in e.items():
        assert (blk @ blk) == blk
    assert is_indecomposable(kron_module(k2_bq, f101, 4), 0).verdict == "yes"
    zero = zero_rep(a2_bq, f101)
    assert is_indecomposable(zero, 0).verdict == "no"


def test_indecomposable_field_extension_inconclusive(free_bq):
    # companion matrix of an irreducible quadratic over F101: x acts with no
    # eigenvalue, End contains a quadratic field extension
    f = Field.prime(5)
    comp = Representation(free_bq, f, {"v": 2},
                          {"x": Mat.from_rows(f, [[0, 2], [1, 0]]),   # t^2 - 2 irred mod 5
                           "y": Mat.zeros(f, 2, 2)}, check=False)
    v = is_indecomposable(comp, 0)
    assert v.verdict == "inconclusive"


def test_are_isomorphic_examples(a2_bq, k2_bq, f101):
    s1 = simple_rep(a2_bq, f101, "1")
    s2 = simple_rep(a2_bq, f101, "2")
    assert are_isomorphic(s1, s1, seed=0).verdict == "yes"
    assert are_isomorphic(s1, s2, seed=0).verdict == "no"
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    assert are_isomorphic(m3, m5, seed=0).verdict == "no"
    v = are_isomorphic(m3, m3, seed=0)
    assert v.verdict == "yes"
    for vt, blk in v.witness.items():
        assert blk.is_invertible()


def test_iso_equivalence_relation(k2_bq, f101):
    mods = [kron_module(k2_bq, f101, lam) for lam in (2, 3, 2)]
    mods.append(direct_sum(mods[0], mods[1]))
    mods.append(direct_sum(mods[2], mods[1]))
    verdicts = {}
    for i, m in enumerate(mods):
        for j, n in enumerate(mods):
            verdicts[(i, j)] = are_isomorphic(m, n, seed=f"{i}:{j}").verdict
    for i in range(len(mods)):
        assert verdicts[(i, i)] == "yes"
        for j in range(len(mods)):
            if "inconclusive" in (verdicts[(i, j)], verdicts[(j, i)]):
                continue
            assert verdicts[(i, j)] == verdicts[(j, i)]
            for k in range(len(mods)):
                if verdicts[(i, j)] == "yes" and verdicts[(j, k)] == "yes":
                    assert verdicts[(i, k)] == "yes"


def test_kronecker_count_matches_oracle_small_p(k2_bq):
    # over F_p the pairwise non-isomorphic one-parameter Kronecker modules
    # at (1,1) with first arrow the identity number exactly p
    for p in (5, 7):
        f = Field.prime(p)
        mods = [rep_from_lists(k2_bq, f, {"1": 1, "2": 1},
                               {"a": [[1]], "b": [[lam]]})
                for lam in range(p)]
        for i in range(p):
            for j in range(i + 1, p):
                assert are_isomorphic(mods[i], mods[j], seed=f"{i}:{j}").verdict == "no"
        # brute-force oracle: invertible scalar pairs (g1, g2) with
        # g2 * 1 = 1 * g1 and g2 * lam = mu * g1 force lam = mu
        for lam in range(p):
            for mu in range(p):
                exists = any((g2 * 1 - 1 * g1) % p == 0 and (g2 * lam - mu * g1) % p == 0
                             for g1 in range(1, p) for g2 in range(1, p))
                assert exists == (lam == mu)


def test_decompose_examples(a2_bq, k2_bq, f101):
    zero = zero_rep(a2_bq, f101)
    assert list(decompose(zero, 0)) == []
    s1 = simple_rep(a2_bq, f101, "1")
    s2 = simple_rep(a2_bq, f101, "2")
    d = decompose(direct_sum(direct_sum(s1, s1), s2), 0)
    assert d.certified
    assert sorted((r.dim_vector(), mult) for r, mult in d) == [((0, 1), 1), ((1, 0), 2)]
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    d2 = decompose(direct_sum(m3, m5), 1)
    assert len(d2.summands) == 2 and d2.certified


def test_decompose_reconstructs(k3_bq, k2_bq, dual_numbers_bq):
    rng = random.Random(12)
    for bq in (k2_bq, k3_bq):
        for _ in range(4):
            m = rand_rep(bq, F101, 2, rng)
            d = decompose(m, 5)
            if not d.certified:
                continue
            total = None
            for r, mult in d:
                for _ in range(mult):
                    total = r if total is None else direct_sum(total, r)
            if total is None:
                total = zero_rep(bq, F101)
            assert are_isomorphic(m, total, seed=3).verdict == "yes"


def test_support_and_sincere(a2_bq, dual_numbers_bq, f101):
    zero = zero_rep(a2_bq, f101)
    assert support(zero) == set()
    s1 = simple_rep(a2_bq, f101, "1")
    assert support(s1) == {"1"}
    p1 = rep_from_lists(a2_bq, f101, {"1": 1, "2": 1}, {"a1": [[1]]})
    assert support(p1) == {"1", "2"}
    assert in_sincere_subcategory(zero, 0) is True
    assert in_sincere_subcategory(p1, 0) is True
    assert in_sincere_subcategory(direct_sum(s1, p1), 0) is False
    j2 = rep_from_lists(dual_numbers_bq, f101, {"v": 2},
                        {"x": [[0, 0], [1, 0]]})
    assert in_sincere_subcategory(j2, 0) is True


def test_no_invertible_composites_between_noniso_indecomposables(k2_bq, f101):
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    p1 = rep_from_lists(k2_bq, f101, {"1": 1, "2": 2},
                        {"a": [[1], [0]], "b": [[0], [1]]})
    fixtures = [m3, m5, p1]
    for m in fixtures:
        assert is_indecomposable(m, 0).verdict == "yes"
    for i, m in enumerate(fixtures):
        for j, n in enumerate(fixtures):
            if i == j:
                continue
            h_mn = hom_space(m, n)
            h_nm = hom_space(n, m)
            composites = []
            for f in h_mn.totals().mats:
                for g in h_nm.totals().mats:
                    composites.append(g @ f)
            nonzero = [c for c in composites if not c.is_zero()]
            if nonzero:
                assert find_invertible_in_span(span_of(nonzero), 32, seed=1) is None


def test_sampler_hereditary_and_power_zero(k2_bq, three_loop_bq, dual_numbers_bq):
    rng = random.Random(2)
    m = sample_representation(k2_bq, F101, {"1": 2, "2": 3}, rng)
    assert m.dim_vector() == (2, 3)
    for bq, dims in ((three_loop_bq, {"v": 3}), (dual_numbers_bq, {"v": 3})):
        for _ in range(5):
            m = sample_representation(bq, F101, dims, rng)
            assert all(ok for _, ok in check_relations(m))


def test_sampler_linear_solve_mode():
    # commuting pair of loops: xy - yx = 0 is linear in either loop
    q = loop_quiver(2)
    bq = BoundQuiver(q, [make_relation(q, [(1, ("x", "y")), (-1, ("y", "x"))])],
                     nilbound=4)
    rng = random.Random(8)
    for _ in range(5):
        m = sample_representation(bq, F101, {"v": 3}, rng, budget=50)
        assert all(ok for _, ok in check_relations(m))


@pytest.mark.parametrize("field", [F101, QQ])
def test_sampler_jacobian_matches_entrywise_reference(field):
    # the linear-solve sampler varies one arrow, used at most once per term,
    # and holds the others at random values
    q = Quiver(["1", "2"], [("x", "1", "1"), ("y", "1", "1"), ("a", "1", "2"),
                            ("b", "1", "2")])
    rels = [make_relation(q, [(1, ("x", "y")), (-1, ("y", "x")), ("2/3", ("x", "x"))]),
            make_relation(q, [(1, ("a", "y")), (-3, ("b", "x")), (1, ("b", "y"))])]
    rng = random.Random(19)
    for _ in range(8):
        dims = {"1": rng.randint(1, 3), "2": rng.randint(0, 3)}
        for name in ("y", "b"):
            var = q.arrow(name)
            fixed = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
                     for a in q.arrows if a.name != name}
            nvars = dims[var.target] * dims[var.source]
            for rel in rels:
                got = relation_jacobian(field, rel, fixed, dims, {name: 0}, nvars)
                assert got.row_list() == reference_relation_jacobian(
                    q, field, rel, fixed, dims, {name: 0}, nvars)


def test_sampler_starvation():
    # x^2 = 0 plus a disjoint free loop is neither power-uniform nor linear;
    # rejection at dimension 3 over F101 should starve within a tiny budget
    q = loop_quiver(2)
    bq = BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))]),
                         make_relation(q, [(1, ("x", "y"), ), (1, ("y", "x"))]),
                         make_relation(q, [(1, ("y", "y"), ), (-1, ("x", "x"))])],
                     nilbound=4)
    rng = random.Random(1)
    with pytest.raises(SamplingStarvation):
        for _ in range(3):
            sample_representation(bq, F101, {"v": 3}, rng, budget=3)


F5, F7 = Field.prime(5), Field.prime(7)
TRACE_FIELDS = [F101, F7, F5, QQ]


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_hom_pencil_matches_per_column_reference(field):
    # pencils g S_k = S'_k g with S'_k = diag(P S_k P^-1, T_k): g = [P; 0] and
    # more solve them, so the basis is nonempty; Hom between the one-vertex
    # modules M(a_k) = S_k and N(a_k) = S'_k is their solution space
    rng = random.Random(f"pencil:{field}")
    seen = set()
    for trial in range(16):
        nilpotent = trial % 2 == 0
        d, extra = rng.randint(1, 4), rng.randint(0, 2)
        e = d + extra
        a = Mat.from_rows(field, [[field.random_scalar(rng) if j > i or not nilpotent
                                   else field.zero for j in range(d)] for i in range(d)])
        sources = [a, a @ a + Mat.identity(field, d)][:1 + trial % 4 // 2]
        while True:
            p = Mat.random(field, d, d, rng)
            if p.is_invertible():
                break
        pinv = p.inverse()
        pairs = []
        for k, s in enumerate(sources):
            t = (Mat.zeros(field, extra, extra) if nilpotent and k == 0
                 else Mat.random(field, extra, extra, rng))
            pairs.append((s, Mat.assemble(field, e, e, [(0, 0, p @ s @ pinv), (d, d, t)])))
        rng.shuffle(pairs)
        seen.add((any(nilpotency_index(s) is not None and nilpotency_index(sp) is not None
                      for s, sp in pairs), len(pairs)))
        bq = BoundQuiver(loop_quiver(len(pairs)), [])
        names = [a.name for a in bq.quiver.arrows]
        m = Representation(bq, field, {"v": d}, dict(zip(names, [s for s, _ in pairs])))
        n = Representation(bq, field, {"v": e}, dict(zip(names, [sp for _, sp in pairs])))
        got = [f["v"] for f in hom_space(m, n).basis]
        assert got == reference_hom_pencil(field, e, d, pairs) and got
        assert all(g @ s == sp @ g for g in got for s, sp in pairs)
    assert {(True, 2), (False, 2)} <= seen


def test_hom_spaces_of_a_module_share_its_contracted_side(k2_bq, monkeypatch):
    # Kronecker modules (A, A G J G^-1): contracting a leaves the nilpotent
    # pencil A^-1 M(b); each module's side of it serves it as source and as
    # target, so the four Hom spaces between two modules take two Jordan
    # eliminations, one per module, and give the bases of fresh copies
    rng = random.Random("shared-side")

    mods = []
    for sizes in ([(2, 0), (1, 0)], [(3, 0)]):
        a, g = random_invertible(F101, 3, rng), random_invertible(F101, 3, rng)
        nil = g @ Mat.from_rows(F101, _jordan_rows(sizes, 3)) @ g.inverse()
        mods.append(Representation(k2_bq, F101, {"1": 3, "2": 3}, {"a": a, "b": a @ nil}))
    frames = []
    jordan = exactlin_module.jordan_nilpotent
    monkeypatch.setattr(exactlin_module, "jordan_nilpotent",
                        lambda s: frames.append(s) or jordan(s))
    for m in mods:
        for n in mods:
            h = hom_space(m, n)
            assert h.dim == len(reference_hom_space(m, n))
            assert all(f["2"] @ m.mats[x] == n.mats[x] @ f["1"] for f in h.basis for x in "ab")
    assert len(frames) == 2
    for m in mods:
        for n in mods:
            assert hom_space(copy_rep(m), copy_rep(n)).basis == hom_space(m, n).basis


def test_pencil_nilpotency_is_tested_once_per_side(k3_bq, monkeypatch):
    # three-arrow Kronecker modules (A, A R, A G J G^-1): contracting a leaves
    # the pencils A^-1 M(b), not nilpotent, and A^-1 M(c), nilpotent; each
    # module's one side, for both roles, tests each of its pencils once over
    # the four Hom spaces between two modules, where a test per Hom space
    # and pencil pair took twelve
    rng = random.Random("nilpotency-memo")

    mods = []
    for sizes in ([(2, 0), (1, 0)], [(3, 0)]):
        a, g, r = (random_invertible(F101, 3, rng) for _ in range(3))
        assert nilpotency_index(r) is None
        nil = g @ Mat.from_rows(F101, _jordan_rows(sizes, 3)) @ g.inverse()
        mods.append(Representation(k3_bq, F101, {"1": 3, "2": 3},
                                   {"a": a, "b": a @ r, "c": a @ nil}))
    tested = []
    is_nilpotent = Mat.is_nilpotent
    monkeypatch.setattr(Mat, "is_nilpotent", lambda x: tested.append(x) or is_nilpotent(x))
    for m in mods:
        for n in mods:
            h = hom_space(m, n)
            assert h.dim == len(reference_hom_space(m, n))
            assert all(f["2"] @ m.mats[x] == n.mats[x] @ f["1"] for f in h.basis for x in "abc")
    # b and c once on each module's side
    assert len(tested) == len({id(s) for s in tested}) == 4
    for m in mods:
        for n in mods:
            assert hom_space(copy_rep(m), copy_rep(n)).basis == hom_space(m, n).basis


def _folded_tree_modules(field, rng, nilpotent, extra):
    """Two modules on a quiver whose arrows a: 2 -> 3, b: 1 -> 2 and
    g: 5 -> 1 act invertibly, so that contracting them folds {3} onto 2,
    {2, 3} onto 1 and the tree {1, 2, 3} of two arrows onto 5, while
    c: 3 -> 1 and e: 3 -> 2 stay.  Arrow x: s -> t acts by g_t X g_s^-1
    with X = 1 on the contracted arrows and, on c and e, X nilpotent (every
    pencil is then nilpotent) or random.  With ``extra`` a vertex 4 of
    another dimension and an arrow d: 4 -> 1 leave a second root."""
    vertices = ["1", "2", "3", "5"] + (["4"] if extra else [])
    arrows = [("a", "2", "3"), ("b", "1", "2"), ("g", "5", "1"), ("c", "3", "1"),
              ("e", "3", "2")] + ([("d", "4", "1")] if extra else [])
    bq = BoundQuiver(Quiver(vertices, arrows), [])
    dims = {v: 2 if v == "4" else 3 for v in vertices}

    def inner():
        if not nilpotent:
            return Mat.random(field, 3, 3, rng)
        h = random_invertible(field, 3, rng)
        low = Mat.from_rows(field, [[field.random_scalar(rng) if j < i else 0 for j in range(3)]
                                    for i in range(3)])
        return h @ low @ h.inverse()

    mods = []
    for _ in range(2):
        g = {v: random_invertible(field, dims[v], rng) for v in vertices}
        mats = {}
        for name, src, tgt in arrows:
            x = (Mat.identity(field, 3) if name in "abg" else
                 Mat.random(field, dims[tgt], dims[src], rng) if name == "d" else inner())
            mats[name] = g[tgt] @ x @ g[src].inverse()
        mods.append(Representation(bq, field, dims, mats, check=False))
    return mods


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=repr)
def test_one_contracted_side_serves_both_roles(field, monkeypatch):
    # one side per module and contraction, for both roles: A_v B_v = 1 at
    # each folded vertex, the pencils are the target pencils A_t^-1 M(a) A_s
    # built with inversions, and the bases span the uncontracted kernels,
    # on the Jordan route (one root, nilpotent pencils) and the Kronecker one
    rng = random.Random(f"folded-trees:{field!r}")
    solved = []
    solve = rep_module.nilpotent_hom_basis
    monkeypatch.setattr(rep_module, "nilpotent_hom_basis",
                        lambda s, sp, rest=(): solved.append(s) or solve(s, sp, rest))
    for nilpotent, extra in ((True, False), (False, False), (True, True)):
        m, n = _folded_tree_modules(field, rng, nilpotent, extra)
        solved.clear()
        for x, y in ((m, n), (n, m), (m, m), (n, n)):
            got, ref = hom_space(x, y).basis, reference_hom_space(x, y)
            vertices = x.bound_quiver.quiver.vertices
            flat = [flat_morphism(f, vertices) for f in got]
            both = flat + [flat_morphism(f, vertices) for f in ref]
            assert len(got) == len(ref) == Mat.from_rows(field, both).rank() if got else not ref
        assert len(solved) == (4 if nilpotent and not extra else 0)
        for mod in (m, n):
            (key, side), = mod._sides.items()
            assert key == ("a", "b", "g")
            assert sorted(side.a) == sorted(side.b) == ["1", "2", "3"]
            for v in side.a:
                assert side.a[v] @ side.b[v] == Mat.identity(field, 3)
            assert (side.a, side.pencil) == reference_target_side(mod, key)


def _frame_route_modules(route, field, rng):
    """Modules of one bound quiver whose Hom spaces take one route of the
    solver, with a direct sum (an idempotent to find) and a base change of
    the first (an isomorphism to find) among them."""
    if route == "jordan tree":
        # a, b, g contracted onto one root, c and e nilpotent: the Jordan
        # route with a further pair, after a multi-vertex contraction
        mods = list(_folded_tree_modules(field, rng, True, False))
    elif route == "kronecker tree":
        mods = list(_folded_tree_modules(field, rng, False, False))
    elif route == "two roots":
        # vertex 4 of another dimension: a multi-root Kronecker system
        mods = list(_folded_tree_modules(field, rng, rng.random() < 0.5, True))
    elif route == "jordan alone":
        # Kronecker modules (A, A N): contracting a leaves the pencil N alone
        k2 = BoundQuiver(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [])
        mods = []
        for sizes in ([(2, 0), (1, 0)], rng.choice([[(3, 0)], [(2, 0), (1, 0)]])):
            g = random_invertible(field, 3, rng)
            a = random_invertible(field, 3, rng)
            nil = g @ Mat.from_rows(field, _jordan_rows(sizes, 3)) @ g.inverse()
            mods.append(Representation(k2, field, {"1": 3, "2": 3}, {"a": a, "b": a @ nil}))
    else:
        # three loops, x nilpotent: the Jordan route with two further pairs
        loops = BoundQuiver(loop_quiver(3), [], nilbound=3)
        mods = []
        for _ in range(2):
            g = random_invertible(field, 3, rng)
            x = g @ Mat.from_rows(field, _jordan_rows([(2, 0), (1, 0)], 3)) @ g.inverse()
            mods.append(Representation(loops, field, {"v": 3}, {
                "x": x, "y": Mat.random(field, 3, 3, rng),
                "z": x @ x if rng.random() < 0.5 else Mat.random(field, 3, 3, rng)}))
    first = mods[0]
    g = {v: random_invertible(field, d, rng) for v, d in first.dims.items()}
    moved = {a.name: g[a.target] @ first.mats[a.name] @ g[a.source].inverse()
             for a in first.bound_quiver.quiver.arrows}
    return mods + [direct_sum(mods[0], mods[1]),
                   Representation(first.bound_quiver, field, first.dims, moved, check=False)]


def _gates_open(field, m, hom):
    """Whether the characteristic gates of ``reference_is_indecomposable``
    let it certify every radical that ``is_indecomposable`` certifies."""
    return not field.char or field.char > max(m.total_dim, hom.dim)


@given(st.sampled_from([F101, Field.prime(7), Field.prime(16777213), QQ]),
       st.sampled_from(["jordan tree", "kronecker tree", "two roots", "jordan alone",
                        "loops"]),
       st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_the_solving_frame_reads_as_the_mapped_basis(field, route, seed):
    # the basis mapped on first read spans the uncontracted kernel; the frame
    # totals give the trace forms and the pairing of the eagerly mapped
    # totals, unframe maps a combination of them to the same combination of
    # the basis, and the verdicts and witnesses are the references'
    rng = random.Random(seed)
    mods = _frame_route_modules(route, field, rng)
    vertices = mods[0].bound_quiver.quiver.vertices
    for i, m in enumerate(mods):
        for n in mods:
            h = hom_space(m, n)
            ref = reference_hom_space(m, n)
            assert h.dim == len(h.frame) == len(ref)
            assert h.totals().mats == reference_frame_totals(h).mats
            for f in h.basis:
                for a in m.bound_quiver.quiver.arrows:
                    assert f[a.target] @ m.mats[a.name] == n.mats[a.name] @ f[a.source]
            if h.dim:
                both = [flat_morphism(f, vertices) for f in h.basis + ref]
                assert Mat.from_rows(field, both).rank() == h.dim
                coeffs = [field.random_scalar(rng) for _ in range(h.dim)]
                total = h.totals().combine(Mat.column(field, coeffs))[0]
                assert h.unframe(total) == {
                    v: Mat.lincomb(field, n.dims[v], m.dims[v], coeffs, [f[v] for f in h.basis])
                    for v in vertices}
            if m.dim_vector() == n.dim_vector() and h.dim and hom_space(n, m).dim:
                back = hom_space(n, m)
                assert trace_form(h.totals(), back.totals()) == \
                    trace_form(reference_totals(h), reference_totals(back))
        end = hom_space(m, m)
        if end.dim:
            assert trace_form(end.totals(), end.totals()) == \
                trace_form(reference_totals(end), reference_totals(end))
        got, ref = is_indecomposable(m, seed), reference_is_indecomposable(m, seed)
        if ref.verdict != "inconclusive" or _gates_open(field, m, end):
            assert (got.verdict, got.detail, got.witness) == (ref.verdict, ref.detail,
                                                               ref.witness), i
        rad = reference_end_radical(m)
        if rad is not None:
            assert end_radical(m) == rad
        for k, n in enumerate(mods):
            got = are_isomorphic(m, n, trials=2, seed=k)
            ref = reference_are_isomorphic(m, n, 2, k)
            assert (got.verdict, got.detail, got.witness) == (ref.verdict, ref.detail,
                                                               ref.witness), (i, k)


def test_verdicts_map_back_only_their_witnesses(k3_table, monkeypatch):
    # the certify images and a witness28 image, with every Hom space solved
    # first: the verdicts make no product by a Jordan frame on the left or by
    # an inverse frame on the right (the map back) but inside the one unframe
    # of each witness, and a second read of a basis maps nothing
    m, n = certify_images()
    w = k3_witness_image(k3_table, 1)
    rng = random.Random("frame-spy")
    g = random_invertible(F101, m.total_dim, rng)
    moved = Representation(m.bound_quiver, F101, m.dims,
                           {a: g @ x @ g.inverse() for a, x in m.mats.items()}, check=False)
    both = direct_sum(m, n)
    frames = []
    framed = exactlin_module._jordan_frame
    monkeypatch.setattr(exactlin_module, "_jordan_frame",
                        lambda s: frames.append(framed(s)) or frames[-1])
    pairs = [(m, m), (n, n), (w, w), (both, both), (m, n), (n, m), (m, moved), (moved, m)]
    for x, y in pairs:
        hom_space(x, y)
    assert frames
    depth, unframes, inside, outside = [0], [], [], []
    unframed = rep_module._Framed.unframed

    def spy_unframed(self, blocks):
        unframes.append(self)
        depth[0] += 1
        try:
            return unframed(self, blocks)
        finally:
            depth[0] -= 1

    matmul = exactlin_module._PrimeKernel.matmul

    def spy_matmul(self, a, b):
        if (any(a is p._entries for p, _, _ in frames)
                or any(b is p_inv._entries for _, p_inv, _ in frames)):
            (inside if depth[0] else outside).append((a.shape, b.shape))
        return matmul(self, a, b)

    monkeypatch.setattr(rep_module._Framed, "unframed", spy_unframed)
    monkeypatch.setattr(exactlin_module._PrimeKernel, "matmul", spy_matmul)
    indec = [is_indecomposable(x, 0) for x in (m, n, w, both)]
    iso = [are_isomorphic(m, n), are_isomorphic(m, moved)]
    assert [v.verdict for v in indec] == ["yes", "yes", "yes", "no"]
    assert [v.verdict for v in iso] == ["no", "yes"]
    assert indec[-1].witness and iso[-1].witness
    assert len(unframes) == 2 and not outside and inside
    unframes.clear()
    end = hom_space(m, m)
    first = end.basis
    assert len(unframes) == end.dim
    assert hom_space(m, m).basis is first and len(unframes) == end.dim


def test_end_verdicts_work_on_the_support_of_the_frame_totals(monkeypatch):
    # End(M) of a certify image has 197 basis elements whose (197, 784)
    # frame totals hold 224 nonzeros, on 28 diagonal positions and 196
    # others: the trace form contracts over the 28 positions where the
    # support meets its transpose, and the nilpotency test of the 196
    # radical elements reduces neither their combinations nor their squares
    # on all 784 positions; no index is both a nonzero row of one of them
    # and a nonzero column of one, so no product squares them
    m, _ = certify_images()
    end = hom_space(m, m)
    assert end.dim == 197 and len(end.totals()._support) == 224
    products, reduced = [], []
    matmul, residues = exactlin_module._PrimeKernel.matmul, exactlin_module._residues

    def spy_matmul(self, a, b):
        products.append((a.shape, b.shape))
        return matmul(self, a, b)

    def spy_residues(a, p, out=None):
        reduced.append(a.shape)
        return residues(a, p, out)

    monkeypatch.setattr(exactlin_module._PrimeKernel, "matmul", spy_matmul)
    monkeypatch.setattr(exactlin_module, "_residues", spy_residues)
    verdict = is_indecomposable(m, 0)
    assert verdict.verdict == "yes"
    assert ((197, 28), (28, 197)) in products
    assert not [x for x in products if x[0][-1] == 784 or (197, 784) in x]
    assert not [x for x in products if (196, 28, 28) in x]
    assert not [x for x in reduced if x in ((196, 784), (196, 28, 28))]


def test_one_vertex_totals_share_the_hom_basis_stack():
    # a one-vertex module's frame totals are its root's Span: the stack of
    # the Hom basis itself, read-only, on the Jordan route (the certify
    # images) and on the Kronecker one (a loop module over Q)
    rng = random.Random("shared-totals")
    loop = BoundQuiver(loop_quiver(1), [], nilbound=3)
    x, g = Mat.random(QQ, 3, 3, rng), random_invertible(QQ, 3, rng)
    kron = [Representation(loop, QQ, {"v": 3}, {"x": y}) for y in (x, g @ x @ g.inverse())]
    for m, n in (certify_images(), kron):
        for target in (m, n):
            h = hom_space(m, target)
            (span,) = h._framed.spans.values()
            totals = h.totals()
            assert len(totals) == h.dim > 0 and np.shares_memory(totals._stack, span._stack)
            with pytest.raises(ValueError):
                totals._stack[..., 0] = 1
            assert totals.mats == reference_frame_totals(h).mats


@pytest.mark.parametrize("field", [F101, QQ], ids=str)
def test_totals_of_a_two_vertex_tree_match_the_reference(field):
    # an invertible arrow a: 1 -> 2 folds vertex 2 onto root 1, so the root's
    # Span is placed twice, into one zeroed stack: the old assembly of the
    # frame blocks element by element, on the Jordan route (x nilpotent) and
    # the Kronecker one
    rng = random.Random(f"tree-totals:{field}")
    q = Quiver(["1", "2"], [("a", "1", "2"), ("x", "2", "2")])
    bq = BoundQuiver(q, [], nilbound=3)
    for nilpotent in (True, False):
        mods = []
        for _ in range(2):
            if nilpotent:
                g = random_invertible(field, 3, rng)
                x = g @ Mat.from_rows(field, _jordan_rows([(2, 0), (1, 0)], 3)) @ g.inverse()
            else:
                x = Mat.random(field, 3, 3, rng)
            mods.append(Representation(bq, field, {"1": 3, "2": 3},
                                       {"a": random_invertible(field, 3, rng), "x": x}))
        for m in mods:
            for n in mods:
                h = hom_space(m, n)
                assert (h._framed.jordan is not None) == nilpotent
                assert set(h._framed.root.values()) == {"1"} and len(h._framed.root) == 2
                totals = h.totals()
                (span,) = h._framed.spans.values()
                assert not np.shares_memory(totals._stack, span._stack)
                assert totals.mats == reference_frame_totals(h).mats
                if m is n:
                    assert trace_form(totals, totals) == trace_form(reference_totals(h),
                                                                    reference_totals(h))


def test_a_yes_on_a_certify_image_builds_no_basis_matrix():
    # the verdict reads stacks only: neither the frame's per-element dicts
    # nor any per-element Mat of the Hom basis is built
    m, _ = certify_images()
    assert is_indecomposable(m, 0).verdict == "yes"
    framed = m._homs[m]
    assert framed.frame is None and framed.basis is None
    assert all(span._mats is None for span in framed.spans.values())


@pytest.mark.parametrize("p", [5, 7])
def test_trap_fallback_reads_the_kernel_columns_as_before(k2_bq, p):
    # (I, J_p(2)) over F_p: both trace forms fail, and the regular fallback
    # reads the frame, built on that read from the contracted Kronecker
    # kernel: element j is kernel column j refilled as p x p, as each was
    # cut before; basis and unframe map those same matrices back
    field = Field.prime(p)
    m = rep_from_lists(k2_bq, field, {"1": p, "2": p},
                       {"a": Mat.identity(field, p).row_list(), "b": _jordan_rows([(p, 2)], p)})
    hom = hom_space(m, m)
    framed = hom._framed
    assert framed.jordan is None and framed.frame is None
    (_, side), = m._sides.items()
    pencil, one = side.pencil["b"], Mat.identity(field, p)
    ker = (kron(one, pencil.T) - kron(pencil, one)).kernel()
    before = [ker.submatrix(range(p * p), [j]).reshape(p, p) for j in range(ker.cols)]
    assert end_radical(m) is None and framed.frame is not None
    assert [g["1"] for g in hom.frame] == before and len(before) == hom.dim == p
    assert _regular_representation(m, hom.frame).mats == \
        _regular_representation(m, hom.basis).mats
    assert hom.basis == [framed.unframed({"1": g}) for g in before]
    assert [hom.unframe(t) for t in hom.totals().mats] == hom.basis


def _indecomposability_cases(field, dual_numbers_bq, a2_bq, k2_bq):
    """One module per route of ``is_indecomposable``, by name."""
    one_loop = BoundQuiver(loop_quiver(1), [], nilbound=3)
    lam = 2
    jordan4 = [[lam if j == i else 1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    return {
        # End = K[x]/(x^2): local of dimension 2
        "local": rep_from_lists(dual_numbers_bq, field, {"v": 2},
                                {"x": [[0, 0], [1, 0]]}),
        "direct sum": direct_sum(kron_module(k2_bq, field, 2), kron_module(k2_bq, field, 3)),
        # minimal polynomial x^2 + 1: End is K[x]/(x^2 + 1)
        "x^2+1": rep_from_lists(one_loop, field, {"v": 2},
                                {"x": [[0, -1], [1, 0]]}),
        # End = K[x]/(x^4) on total dimension 8: over F5 and F7 the gated
        # reference skips the module trace form and the regular one decides
        "regular (4, 4)": rep_from_lists(
            k2_bq, field, {"1": 4, "2": 4},
            {"a": [[int(i == j) for j in range(4)] for i in range(4)], "b": jordan4}),
        "zero": zero_rep(a2_bq, field),
        "simple": simple_rep(a2_bq, field, "1"),
    }


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_indecomposable_matches_trial_first_reference(field, dual_numbers_bq, a2_bq, k2_bq,
                                                      monkeypatch):
    cases = _indecomposability_cases(field, dual_numbers_bq, a2_bq, k2_bq)
    got = {}
    for name, m in cases.items():
        for seed in (0, "x"):
            new, ref = is_indecomposable(m, seed), reference_is_indecomposable(m, seed)
            assert (new.verdict, new.detail, new.witness) == \
                (ref.verdict, ref.detail, ref.witness), (name, seed)
        got[name] = new.verdict
    # -1 is a square mod 101 and mod 5
    split_sq = "no" if field in (F101, F5) else "inconclusive"
    assert got == {"local": "yes", "direct sum": "no", "x^2+1": split_sq,
                   "regular (4, 4)": "yes", "zero": "no", "simple": "yes"}
    if field == QQ:
        assert "division ring" in is_indecomposable(cases["x^2+1"], 0).detail
    big = cases["regular (4, 4)"]
    totals = hom_space(big, big).totals()
    # tr 1 = 8 on the module is nonzero on every field
    assert trace_radical(totals) is not None
    # certified locality decides before any trial is drawn
    calls = []
    monkeypatch.setattr(rep_module, "factor_polynomial",
                        lambda *args: calls.append(args) or factor_polynomial(*args))
    assert is_indecomposable(cases["local"], 1).detail == "End local: dim End/rad = 1"
    assert is_indecomposable(big, 1).verdict == "yes"
    assert not calls
    # End(M) = K x K for the direct sum: its trace-form kernel has
    # codimension 2, so the trials split it before any nilpotency check
    checks = []
    monkeypatch.setattr(exactlin_module, "all_nilpotent",
                        lambda span, c: checks.append(c) or all_nilpotent(span, c))
    assert is_indecomposable(cases["direct sum"], 1).verdict == "no"
    assert not checks
    assert is_indecomposable(cases["local"], 1).verdict == "yes" and checks


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_trace_forms_match_reference_loops(k3_bq, field):
    rng = random.Random(f"trace-form:{field}")
    seen_end = 0
    for _ in range(12):
        m = rand_rep(k3_bq, field, 3, rng)
        if m.is_zero():
            continue
        totals = hom_space(m, m).totals()
        # the Gram matrix of _natural_trace_radical
        assert trace_form(totals, totals).row_list() == reference_trace_pairing(totals.mats,
                                                                               totals.mats)
        n = rand_rep(k3_bq, field, 3, rng)
        back = hom_space(n, m).totals()
        there = hom_space(m, n).totals()
        if back.mats and there.mats:
            # the pairing of are_isomorphic (rectangular when dims differ)
            assert trace_form(there, back).row_list() == reference_trace_pairing(there.mats,
                                                                                 back.mats)
        end = ReferenceEndAnalysis(m)
        if end.dim:
            seen_end += 1
            regular = _regular_representation(m, hom_space(m, m).basis)
            assert regular.mats == [Mat.from_rows(field, reg) for reg in end.regular]
            assert trace_form(regular, regular) == reference_regular_trace_gram(end)
    assert seen_end >= 5


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_trace_pairing_decision_matches_reference_loop(k2_bq, a2_bq, field):
    # pairs that reach the trace pairing: no invertible combination exists
    def a2(rows):
        dims = {"1": len(rows[0]) if rows else 1, "2": len(rows)}
        return rep_from_lists(a2_bq, field, dims, {"a1": rows})
    p1, s1 = a2([[1]]), rep_from_lists(a2_bq, field, {"1": 1, "2": 0}, {})
    s2 = rep_from_lists(a2_bq, field, {"1": 0, "2": 1}, {})
    cases = [(direct_sum(s1, s2), p1), (p1, direct_sum(s1, s2))]
    for lam in (0, 1, 2, 3):
        base = kron_module(k2_bq, field, 0)
        cases.append((direct_sum(base, kron_module(k2_bq, field, lam + 1)),
                      direct_sum(base, kron_module(k2_bq, field, lam + 5))))
    verdicts = set()
    for m, n in cases:
        got = are_isomorphic(m, n, trials=2, seed=3)
        index, nonzero = reference_pairing_witness(hom_space(m, n), hom_space(n, m))
        if index is not None:
            expect = "yes"
        elif nonzero:
            expect = "inconclusive"
        else:
            expect = "no"
        assert got.verdict == expect
        assert ("pairing" in got.detail) == (expect == "no")
        verdicts.add(expect)
    assert verdicts == {"no", "inconclusive"}


@pytest.mark.parametrize("field", [F101, F7, QQ, Field.prime(16777213)], ids=str)
def test_pairing_first_order_matches_trials_first_reference(k2_bq, k3_bq, a2_bq, field):
    # certified-indecomposable pairs (Kronecker modules, seeded three-arrow
    # Kronecker modules, and base changes of them, which are isomorphic) and
    # the direct sums of the pairing-decision test: the pairing read before
    # the trials gives the verdict, detail and witness of the trials-first
    # reference.  Over F7 the dimension vectors (3, 4) make 7 | dim M, where
    # the pairing is not read
    rng = random.Random(f"iso-order:{field}")
    mods = [kron_module(k2_bq, field, lam) for lam in range(3)]
    for dims in ((1, 2), (2, 1), (2, 2), (3, 4), (2, 3)):
        for _ in range(2):
            m = Representation(k3_bq, field, {"1": dims[0], "2": dims[1]},
                               {a: Mat.random(field, dims[1], dims[0], rng) for a in "abc"})
            if is_indecomposable(m, 0).verdict == "yes":
                mods.append(m)
    pairs = [("indecomposable", m, n) for m in mods for n in mods
             if m.bound_quiver == n.bound_quiver]
    for m in mods[3::2]:
        g = {v: random_invertible(field, m.dims[v], rng) for v in m.dims}
        moved = {a.name: g[a.target] @ m.mats[a.name] @ g[a.source].inverse()
                 for a in m.bound_quiver.quiver.arrows}
        pairs.append(("indecomposable", m, Representation(m.bound_quiver, field, m.dims, moved)))
    p1 = rep_from_lists(a2_bq, field, {"1": 1, "2": 1}, {"a1": [[1]]})
    s12 = direct_sum(rep_from_lists(a2_bq, field, {"1": 1, "2": 0}, {}),
                     rep_from_lists(a2_bq, field, {"1": 0, "2": 1}, {}))
    pairs += [("sum", s12, p1), ("sum", p1, s12)]
    base = kron_module(k2_bq, field, 0)
    pairs += [("sum", direct_sum(base, kron_module(k2_bq, field, lam + 1)),
               direct_sum(base, kron_module(k2_bq, field, lam + 5))) for lam in range(4)]
    seen = set()
    for k, (kind, m, n) in enumerate(pairs):
        got = are_isomorphic(m, n, trials=2, seed=k)
        ref = reference_are_isomorphic(m, n, 2, k)
        assert (got.verdict, got.detail, got.witness) == (ref.verdict, ref.detail,
                                                           ref.witness), k
        seen.add((kind, field.coerce(m.total_dim) == 0, got.verdict, got.detail))
    assert {("indecomposable", False, "yes", "invertible intertwiner found"),
            # S1 + S2 against P1: the pairing is zero, so "no" with no trial
            ("sum", False, "no", "trace pairing vanishes identically"),
            # a common summand pairs to nonzero, and no combination is invertible
            ("sum", False, "inconclusive", "no invertible combination in 2 trials")} <= seen
    if field == F7:
        # base changes of bricks with dimension vector (3, 4): End = K, and the
        # isomorphism pairs with its inverse to 7 = 0, so the whole pairing is
        # zero and only the trials find the isomorphism
        assert ("indecomposable", True, "yes", "invertible intertwiner found") in seen


def test_certify_runs_no_isomorphism_trials(monkeypatch):
    # at benchmark size every pair that the witness check compares past the
    # dimension arguments pairs to zero: the pairing answers before
    # find_invertible_in_span, which the trials-first order called once
    searches = []
    monkeypatch.setattr(rep_module, "find_invertible_in_span",
                        lambda *args: searches.append(args) or find_invertible_in_span(*args))
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=2,
                            max_dim=1, seed="7", pushdown_samples=2)
    assert code == 0, out
    assert searches == []


def _jordan_rows(sizes_and_values, n):
    """Rows of the n x n block-diagonal matrix of Jordan blocks J_k(lam)."""
    rows = [[0] * n for _ in range(n)]
    off = 0
    for k, lam in sizes_and_values:
        for i in range(k):
            rows[off + i][off + i] = lam
            if i + 1 < k:
                rows[off + i][off + i + 1] = 1
        off += k
    return rows


def _radical_modules(field, k2_bq, k3_bq, rng):
    """Seeded modules whose End(M) has a nonzero radical or several blocks:
    random three-arrow Kronecker modules, one-loop modules conjugate to
    Jordan forms with eigenvalues in {0, 1}, and Kronecker modules (I, J)
    with J such a Jordan form."""
    one_loop = BoundQuiver(loop_quiver(1), [], nilbound=3)
    out = []
    for _ in range(8):
        out.append(rand_rep(k3_bq, field, 2, rng))
    for _ in range(10):
        sizes = [(rng.randint(1, 3), rng.randint(0, 1)) for _ in range(rng.randint(1, 2))]
        n = sum(k for k, _ in sizes)
        jordan = Mat.from_rows(field, _jordan_rows(sizes, n))
        while True:
            g = Mat.random(field, n, n, rng)
            if g.is_invertible():
                break
        out.append(Representation(one_loop, field, {"v": n}, {"x": g @ jordan @ g.inverse()}))
        out.append(rep_from_lists(k2_bq, field, {"1": n, "2": n},
                                  {"a": Mat.identity(field, n).row_list(),
                                   "b": jordan.row_list()}))
    return [m for m in out if not m.is_zero()]


def _is_nilpotent_ideal(end, rad):
    """Whether the span of the coefficient columns ``rad`` is a two-sided
    ideal of End(M) whose powers vanish, by structure constants."""
    field, cols = end.field, rad.T.row_list()
    if not cols:
        return True
    units = Mat.identity(field, end.dim).row_list()
    for r in cols:
        for u in units:
            for prod in (end.multiply(u, r), end.multiply(r, u)):
                if rad.solve(Mat.column(field, prod)) is None:
                    return False
    power = cols
    for _ in range(end.dim + 1):
        prods = [end.multiply(a, b) for a in power for b in cols]
        power = [prods[k] for k in Mat.from_rows(field, prods).T.pivot_columns()]
        if not power:
            return True
    return False


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_end_radical_matches_gated_reference(field, k2_bq, k3_bq):
    rng = random.Random(f"end-radical:{field}")
    compared = extra = 0
    for m in _radical_modules(field, k2_bq, k3_bq, rng):
        got, ref = end_radical(m), reference_end_radical(m)
        if ref is not None:
            assert got == ref
            compared += 1
        elif got is not None:
            # decided past the reference's characteristic gates
            assert _is_nilpotent_ideal(ReferenceEndAnalysis(m), got)
            extra += 1
    assert compared >= 20
    if field.char in (5, 7):
        assert extra >= 1


KRONECKER_JORDAN = [
    # (p, n): (I, J_n(2)) has End = K[x]/(x^n) on dimension 2n, so tr 1 is
    # 2n on the module and n on the regular representation
    (5, 7, "yes"), (5, 8, "yes"), (7, 8, "yes"),
    (5, 5, "inconclusive"), (7, 7, "inconclusive"),
]


@pytest.mark.parametrize("p,n,verdict", KRONECKER_JORDAN)
def test_kronecker_jordan_radical_in_small_characteristic(k2_bq, p, n, verdict):
    field = Field.prime(p)
    m = rep_from_lists(k2_bq, field, {"1": n, "2": n},
                       {"a": Mat.identity(field, n).row_list(),
                        "b": _jordan_rows([(n, 2)], n)})
    got = is_indecomposable(m, 0)
    assert got.verdict == verdict
    # the gated reference certified none of them
    ref = reference_is_indecomposable(m, 0)
    assert (ref.verdict, ref.detail) == ("inconclusive", "radical not certifiable over this field")
    if verdict == "yes":
        assert got.detail == "End local: dim End/rad = 1"
        assert end_radical(m).cols == n - 1
    else:
        # p divides both 2n and n: 1 is traceless in both representations
        assert got.detail == "radical not certifiable over this field"
        assert end_radical(m) is None


def test_end_radical_regular_route():
    # End(M) = K[phi] with phi^2 = 0, dimension 2, on a module of dimension
    # 5: tr 1 = 5 vanishes on M over F5, tr L(1) = 2 does not
    field = Field.prime(5)
    bq = BoundQuiver(loop_quiver(2), [], nilbound=3)
    m = rep_from_lists(bq, field, {"v": 5}, {
        "x": [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 3], [0] * 5],
        "y": [[0, 2, 0, 0, 4], [0, 0, 0, 0, 4], [0, 0, 0, 2, 0], [0] * 5, [0] * 5]})
    hom = hom_space(m, m)
    assert hom.dim == 2
    assert trace_radical(hom.totals()) is None
    assert trace_radical(_regular_representation(m, hom.basis)) is not None
    rad = end_radical(m)
    assert rad.cols == 1 and rad == reference_end_radical(m)
    assert is_indecomposable(m, 0).verdict == "yes"


@pytest.mark.parametrize("field", [F101, QQ], ids=str)
def test_in_sincere_subcategory_matches_decompose_reference(field, k3_bq, a2_bq, monkeypatch):
    rng = random.Random(f"sincere:{field}")
    modules = []
    for bq in (k3_bq, a2_bq):
        for _ in range(8):
            modules.append(direct_sum(rand_rep(bq, field, 2, rng), rand_rep(bq, field, 2, rng)))
    calls = []
    counted = rep_module.is_indecomposable
    monkeypatch.setattr(rep_module, "is_indecomposable",
                        lambda *args: calls.append(args) or counted(*args))
    answers = set()
    for k, m in enumerate(modules):
        del calls[:]
        got = in_sincere_subcategory(m, k)
        new_calls = len(calls)
        del calls[:]
        assert got == reference_in_sincere_subcategory(m, k)
        # the same splits in the same order, stopping at a smaller support
        assert new_calls <= len(calls)
        answers.add(got)
    assert answers == {True, False}


def test_in_sincere_subcategory_uncertified_piece():
    # End(rotation) = Q(i) is a division ring over Q: the piece is not
    # certified indecomposable, so sincerity stays undecided unless a
    # piece with a smaller support decides it
    q = Quiver(["v", "w"], [("x", "v", "v"), ("a", "v", "w")])
    bq = BoundQuiver(q, [], nilbound=3)
    rotation = rep_from_lists(bq, QQ, {"v": 2, "w": 2},
                              {"x": [[0, -1], [1, 0]], "a": [[1, 0], [0, 1]]})
    for sincere in (in_sincere_subcategory, reference_in_sincere_subcategory):
        with pytest.raises(InconclusiveError):
            sincere(rotation, 0)
        assert sincere(direct_sum(rotation, simple_rep(bq, QQ, "v")), 0) is False
