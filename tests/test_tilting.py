import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (reference_ar_translate_inverse, reference_ext1_dim_via_presentation,
                      reference_projective_presentation, reference_projective_rep)
from wildrank.exactlin import F101, QQ, Field, Mat
from wildrank.quiver import (BoundQuiver, Quiver, _enumerate_paths, euler_form,
                             kronecker_quiver, line_quiver, loop_quiver)
from wildrank.rep import (Representation, are_isomorphic, hom_space,
                          is_indecomposable, support)
from wildrank.tilting import (CartanData, CyclicQuiverError, Preprojective,
                              TiltingCandidate, ar_translate_inverse,
                              cartan_coxeter, endomorphism_algebra,
                              enumerate_preprojectives,
                              ext1_dim_via_presentation, injective_rep,
                              is_tilting, projective_presentation, projective_rep,
                              search_concealed)


def test_cartan_examples(a2_bq, k2_bq):
    cd = cartan_coxeter(a2_bq.quiver)
    assert cd.cartan.row_list() == [[1, 0], [1, 1]]
    cdk = cartan_coxeter(k2_bq.quiver)
    assert cdk.apply_coxeter_inverse((0, 1)) == (2, 3)
    assert (cdk.coxeter @ cdk.coxeter_inv).row_list() == [[1, 0], [0, 1]]
    point = cartan_coxeter(Quiver(["1"], []))
    assert point.cartan.row_list() == [[1]]
    assert point.coxeter.row_list() == [[Fraction(-1)]]
    diamond = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "1", "3"),
                                            ("c", "2", "4"), ("d", "3", "4"), ("e", "1", "4")])
    for q in (a2_bq.quiver, k2_bq.quiver, kronecker_quiver(3), line_quiver(4), diamond):
        cd = cartan_coxeter(q)
        n = len(q.vertices)
        # C[j][i] counts the paths i -> j; Phi and Phi^{-1} are inverse
        counts = Counter((p.source, p.target) for p in _enumerate_paths(q, n))
        assert cd.cartan.row_list() == [[counts[(i, j)] for i in q.vertices] for j in q.vertices]
        assert cd.coxeter @ cd.coxeter_inv == Mat.identity(QQ, n)
        assert cd.coxeter == -(cd.cartan.inverse().T @ cd.cartan)
        # the Euler form of the quiver is the bilinear form of C^{-T}
        form = cd.cartan.inverse().T
        for d in itertools.product(range(3), repeat=n):
            for e in itertools.product(range(2), repeat=n):
                value = Mat.from_rows(QQ, [list(d)]) @ form @ Mat.from_rows(QQ, [[x] for x in e])
                assert value.row_list() == [[euler_form(q, d, e)]]
    with pytest.raises(CyclicQuiverError):
        cartan_coxeter(loop_quiver(1))
    cyc = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(CyclicQuiverError):
        cartan_coxeter(cyc)


@pytest.mark.parametrize("quiver", [loop_quiver(1),
                                    Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])],
                         ids=["loop", "2-cycle"])
def test_projective_constructions_reject_cycles(quiver, f101):
    # paths around a cycle never end: the projective sum refuses the quiver
    bq = BoundQuiver(quiver, [], nilbound=2)
    v = quiver.vertices[0]
    with pytest.raises(CyclicQuiverError):
        projective_rep(bq, f101, v)
    with pytest.raises(CyclicQuiverError):
        injective_rep(bq, f101, v)
    with pytest.raises(CyclicQuiverError):
        projective_presentation(Representation.simple(bq, f101, v))


def test_projectives_and_injectives(k2_bq, f101):
    p1 = projective_rep(k2_bq, f101, "1")
    p2 = projective_rep(k2_bq, f101, "2")
    assert p1.dim_vector() == (1, 2) and p2.dim_vector() == (0, 1)
    i1 = injective_rep(k2_bq, f101, "1")
    i2 = injective_rep(k2_bq, f101, "2")
    assert i1.dim_vector() == (1, 0) and i2.dim_vector() == (2, 1)
    for rep in (p1, p2, i1, i2):
        assert is_indecomposable(rep, 0).verdict == "yes"


def test_ar_translate_examples(k2_bq, f101):
    p2 = projective_rep(k2_bq, f101, "2")
    t1 = ar_translate_inverse(p2)
    assert t1.dim_vector() == (2, 3)
    assert is_indecomposable(t1, 0).verdict == "yes"
    p1 = projective_rep(k2_bq, f101, "1")
    t2 = ar_translate_inverse(p1)
    assert t2.dim_vector() == (3, 4)
    inj = injective_rep(k2_bq, f101, "1")
    with pytest.raises(ValueError):
        ar_translate_inverse(inj)


def test_ar_translate_dim_formula(k2_bq, k3_bq, f101):
    for bq in (k2_bq, k3_bq):
        cd = cartan_coxeter(bq.quiver)
        # tau^- of each orbit element has the Coxeter-transformed dimension vector
        pool = enumerate_preprojectives(bq, f101, 2)
        by_key = {(p.projective_vertex, p.shift): p for p in pool}
        for (v, shift), p in by_key.items():
            if (v, shift + 1) in by_key:
                expected = cd.apply_coxeter_inverse(p.rep.dim_vector())
                assert by_key[(v, shift + 1)].rep.dim_vector() == expected


def test_preprojective_enumeration_k2(k2_bq, f101):
    pool = enumerate_preprojectives(k2_bq, f101, 2)
    dims = sorted(p.rep.dim_vector() for p in pool)
    assert dims == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    for p in pool:
        assert is_indecomposable(p.rep, 0).verdict == "yes"
        assert p.sincere == (support(p.rep) == {"1", "2"})


def test_preprojectives_a2_stop_at_injectives(a2_bq, f101):
    pool = enumerate_preprojectives(a2_bq, f101, 3)
    dims = sorted(p.rep.dim_vector() for p in pool)
    # P2=(0,1) -> tau^- = S1=(1,0) injective; P1=(1,1) injective already
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_is_tilting_examples(a2_bq, k2_bq, k3_bq, f101):
    for bq in (a2_bq, k2_bq, k3_bq):
        projs = enumerate_preprojectives(bq, f101, 0)
        assert is_tilting(TiltingCandidate(projs))
    pool = enumerate_preprojectives(k2_bq, f101, 1)
    by_dim = {p.rep.dim_vector(): p for p in pool}
    assert is_tilting(TiltingCandidate([by_dim[(1, 2)], by_dim[(2, 3)]]))
    assert not is_tilting(TiltingCandidate([by_dim[(0, 1)], by_dim[(2, 3)]]))
    # repeated summand is rejected
    assert not is_tilting(TiltingCandidate([by_dim[(0, 1)], by_dim[(0, 1)]]))


def test_euler_formula_consistency(k2_bq, k3_bq, f101):
    rng = random.Random(0)
    for bq in (k2_bq, k3_bq):
        pool = enumerate_preprojectives(bq, f101, 1)
        for p in pool:
            for q in pool:
                hom_d = hom_space(p.rep, q.rep).dim
                ext_d = ext1_dim_via_presentation(p.rep, q.rep)
                assert hom_d - ext_d == euler_form(bq.quiver, p.rep.dim_vector(),
                                                   q.rep.dim_vector())


def test_ext_via_presentation_a2(a2_bq, f101):
    s1 = Representation.simple(a2_bq, f101, "1")
    s2 = Representation.simple(a2_bq, f101, "2")
    assert ext1_dim_via_presentation(s1, s2) == 1
    assert ext1_dim_via_presentation(s2, s1) == 0
    assert ext1_dim_via_presentation(s1, s1) == 0


def test_ext_via_presentation_mixed_syzygy(f101):
    # A3 module whose first syzygy mixes projectives at connected vertices
    # (P_2 + P_3 with a path 2 -> 3): exercises the generator-offset layout
    import random
    from wildrank.exactlin import Mat
    a3 = BoundQuiver(line_quiver(3), [], nilbound=3)
    m = Representation(a3, f101, {"1": 2, "2": 1, "3": 0},
                       {"a1": Mat.from_rows(f101, [[1, 0]]),
                        "a2": Mat.zeros(f101, 0, 1)}, check=False)
    rng = random.Random(2)
    for _ in range(6):
        dims = {v: rng.randint(0, 2) for v in a3.quiver.vertices}
        mats = {a.name: Mat.random(f101, dims[a.target], dims[a.source], rng)
                for a in a3.quiver.arrows}
        n = Representation(a3, f101, dims, mats, check=False)
        hom_d = hom_space(m, n).dim
        ext_d = ext1_dim_via_presentation(m, n)
        assert hom_d - ext_d == euler_form(a3.quiver, m.dim_vector(), n.dim_vector())


def test_endomorphism_algebra_of_h(a2_bq, f101):
    projs = enumerate_preprojectives(a2_bq, f101, 0)
    pres, table = endomorphism_algebra(TiltingCandidate(projs), f101)
    assert table.dimension == 3
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 1
    assert not pres.relations


def test_endomorphism_algebra_slice_tilt(k2_bq, f101):
    pool = enumerate_preprojectives(k2_bq, f101, 1)
    by_dim = {p.rep.dim_vector(): p for p in pool}
    cand = TiltingCandidate([by_dim[(1, 2)], by_dim[(2, 3)]])
    pres, table = endomorphism_algebra(cand, f101)
    # End of a slice tilt of the Kronecker quiver is again a Kronecker algebra
    assert table.dimension == 4
    assert len(pres.quiver.arrows) == 2
    assert not pres.relations
    hom_total = sum(hom_space(a.rep, b.rep).dim
                    for a in cand.summands for b in cand.summands)
    assert hom_total == table.dimension


def test_endomorphism_algebra_rejects_non_tilting(k2_bq, f101):
    pool = enumerate_preprojectives(k2_bq, f101, 1)
    by_dim = {p.rep.dim_vector(): p for p in pool}
    bad = TiltingCandidate([by_dim[(0, 1)], by_dim[(2, 3)]])
    with pytest.raises(ValueError):
        endomorphism_algebra(bad, f101)


def test_ar_translate_a3_intervals(f101):
    # every non-injective indecomposable of the A3 line quiver: the built
    # translate must match the Coxeter dimension formula and stay
    # indecomposable; injectives must be refused
    a3 = BoundQuiver(line_quiver(3), [], nilbound=3)
    cd = cartan_coxeter(a3.quiver)
    intervals = {
        (0, 0, 1): {},                                   # S3 = P3
        (0, 1, 1): {"a2": [[1]]},                        # P2
        (0, 1, 0): {},                                   # S2
    }
    for dims_t, mats in intervals.items():
        dims = dict(zip(a3.quiver.vertices, dims_t))
        m = Representation.from_lists(a3, f101, dims, mats)
        t = ar_translate_inverse(m)
        assert t.dim_vector() == cd.apply_coxeter_inverse(dims_t)
        assert is_indecomposable(t, 0).verdict == "yes"
    for inj_t, mats in {(1, 0, 0): {}, (1, 1, 0): {"a1": [[1]]},
                        (1, 1, 1): {"a1": [[1]], "a2": [[1]]}}.items():
        dims = dict(zip(a3.quiver.vertices, inj_t))
        m = Representation.from_lists(a3, f101, dims, mats)
        with pytest.raises(ValueError):
            ar_translate_inverse(m)


def test_search_concealed_k3(k3_bq, f101):
    out = search_concealed(k3_bq, f101, depth=1)
    assert out
    for cand, pres, table in out:
        assert is_tilting(cand)
        assert any(s.shift == 0 for s in cand.summands)
        assert pres.quiver.is_connected()
        hom_total = sum(hom_space(a.rep, b.rep).dim
                        for a in cand.summands for b in cand.summands)
        assert table.dimension == hom_total


def test_search_concealed_requires_minimal_wild(k2_bq, f101):
    with pytest.raises(ValueError):
        search_concealed(k2_bq, f101, depth=1)


def same_module(m, n):
    return m.dims == n.dims and m.mats == n.mats


PRESENTATION_QUIVERS = {
    "a2": (line_quiver(2), 2),
    "k2": (kronecker_quiver(2), 2),
    "k3": (kronecker_quiver(3), 1),
    "a3-line": (line_quiver(3), 2),
    "a3-sink": (Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]), 2),
    "d4": (Quiver(["0", "1", "2", "3"], [("a", "1", "0"), ("b", "2", "0"), ("c", "0", "3")]), 2),
    # two paths of different lengths from 1 to 3: the basis order by
    # (length, arrows) differs from the order by arrows alone
    "a2-tilde": (Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]), 2),
}


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=["F101", "F7", "Q"])
def test_presentations_match_per_entry_reference(field):
    # every projective, tau^- step, presentation and Ext^1 dimension equals
    # the entry-by-entry construction, matrix for matrix
    for name, (q, depth) in PRESENTATION_QUIVERS.items():
        bq = BoundQuiver(q, [], nilbound=len(q.vertices))
        pool = []
        for v in q.vertices:
            cur = projective_rep(bq, field, v)
            assert same_module(cur, reference_projective_rep(bq, field, v)), (name, v)
            pool.append(cur)
            for _ in range(depth):
                try:
                    ref = reference_ar_translate_inverse(cur)
                except ValueError:
                    with pytest.raises(ValueError):
                        ar_translate_inverse(cur)
                    break
                cur = ar_translate_inverse(cur)
                assert same_module(cur, ref), (name, v)
                pool.append(cur)
        for m in pool:
            pres = projective_presentation(m)
            p0_mults, p1_mults, p0, p1, phi = reference_projective_presentation(m)
            assert (pres.p0_mults, pres.p1_mults) == (p0_mults, p1_mults)
            assert same_module(pres.p0.rep, p0) and same_module(pres.p1.rep, p1)
            assert pres.phi == phi, (name, m)
            for n in pool:
                assert ext1_dim_via_presentation(m, n) == \
                    reference_ext1_dim_via_presentation(m, n), (name, m, n)
