import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
import sympy

import wildrank.exactlin as exactlin_module
import wildrank.rep as rep_module
from conftest import (ReferenceEndAnalysis, reference_end_radical, reference_hom_pencil,
                      reference_hom_space, reference_idempotent_from_minpoly,
                      reference_in_sincere_subcategory,
                      reference_is_indecomposable, reference_pairing_witness,
                      reference_regular_trace_gram, reference_relation_jacobian,
                      reference_trace_pairing)

from wildrank.exactlin import (F101, QQ, Field, Mat, Span, nilpotency_index, trace_form,
                               trace_radical)
from wildrank.quiver import (BoundQuiver, Quiver, build_algebra_table,
                             kronecker_quiver, line_quiver, loop_quiver,
                             loop_square_zero, make_relation)
from wildrank.rep import (InconclusiveError, Representation, SamplingStarvation,
                          are_isomorphic, check_relations, decompose, end_radical,
                          factor_polynomial, hom_space, in_sincere_subcategory,
                          is_indecomposable, relation_jacobian,
                          sample_representation, support,
                          _poly_eval_matrix, _regular_representation)


def kron_module(k2_bq, field, lam):
    return Representation.from_lists(k2_bq, field, {"1": 1, "2": 1},
                                     {"a": [[1]], "b": [[lam]]})


def rand_rep(bq, field, maxd, rng):
    dims = {v: rng.randint(0, maxd) for v in bq.quiver.vertices}
    mats = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
            for a in bq.quiver.arrows}
    return Representation(bq, field, dims, mats, check=False)


def test_check_relations(dual_numbers_bq, f101):
    zero = Representation.zero(dual_numbers_bq, f101)
    assert all(ok for _, ok in check_relations(zero))
    j2 = Representation.from_lists(dual_numbers_bq, f101, {"v": 2},
                                   {"x": [[0, 0], [1, 0]]})
    assert all(ok for _, ok in check_relations(j2))
    with pytest.raises(ValueError):
        Representation.from_lists(dual_numbers_bq, f101, {"v": 2},
                                  {"x": [[1, 0], [0, 1]]})


def test_hom_examples(a2_bq, k2_bq, f101):
    s1 = Representation.simple(a2_bq, f101, "1")
    s2 = Representation.simple(a2_bq, f101, "2")
    assert hom_space(s1, s1).dim == 1
    assert hom_space(s1, s2).dim == 0
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    assert hom_space(m3, m3).dim == 1
    assert hom_space(m3, m5).dim == 0


def flat_morphism(f, vertices):
    return [x for v in vertices for row in f[v].row_list() for x in row]


def test_hom_fast_paths_agree(k3_bq, k2_bq, free_bq):
    # the contraction, pencil and Kronecker paths of hom_space against one
    # uncontracted kernel: the same dimension, and a basis of intertwiners
    rng = random.Random(42)
    for field in (F101, Field.prime(7), QQ):
        for bq in (k2_bq, k3_bq, free_bq, BoundQuiver(line_quiver(3), [], nilbound=3)):
            vertices = bq.quiver.vertices
            for _ in range(4):
                m = rand_rep(bq, field, 3, rng)
                n = rand_rep(bq, field, 3, rng)
                h = hom_space(m, n)
                assert h.dim == len(reference_hom_space(m, n))
                for f in h.basis:
                    for a in bq.quiver.arrows:
                        assert f[a.target] @ m.mats[a.name] == n.mats[a.name] @ f[a.source]
                if h.dim:
                    flat = [flat_morphism(f, vertices) for f in h.basis]
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
    n = m.direct_sum(rand_rep(k3_bq, F101, 3, rng))
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
        lhs = hom_space(m.direct_sum(mp), n).dim
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


def _poly_mul(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=["F101", "F7", "Q"])
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
        cases.append(_poly_mul(field, _poly_mul(field, g, g), h))
    # non-monic: the first 40 cases scaled by 3, and 3 (x - 1)^2 (x + 2)
    cases += [[field.mul(field.coerce(3), c) for c in f] for f in cases[:40]]
    cases.append([field.coerce(c) for c in (6, -9, 0, 3)])
    assert any(len(f) == 1 for f in cases) and any(f[-1] != field.one for f in cases)
    for f in cases:
        assert factor_polynomial(field, f) == _reference_factor_polynomial(field, f)
    # the repeated factor shows up with its multiplicity
    assert ([field.coerce(-1), field.one], 2) in factor_polynomial(field, cases[-1])


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
    s1 = Representation.simple(a2_bq, f101, "1")
    assert is_indecomposable(s1, 0).verdict == "yes"
    v = is_indecomposable(s1.direct_sum(s1), 0)
    assert v.verdict == "no"
    e = v.witness
    for vt, blk in e.items():
        assert (blk @ blk) == blk
    assert is_indecomposable(kron_module(k2_bq, f101, 4), 0).verdict == "yes"
    zero = Representation.zero(a2_bq, f101)
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
    s1 = Representation.simple(a2_bq, f101, "1")
    s2 = Representation.simple(a2_bq, f101, "2")
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
    mods.append(mods[0].direct_sum(mods[1]))
    mods.append(mods[2].direct_sum(mods[1]))
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
        mods = [Representation.from_lists(k2_bq, f, {"1": 1, "2": 1},
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
    zero = Representation.zero(a2_bq, f101)
    assert list(decompose(zero, 0)) == []
    s1 = Representation.simple(a2_bq, f101, "1")
    s2 = Representation.simple(a2_bq, f101, "2")
    d = decompose(s1.direct_sum(s1).direct_sum(s2), 0)
    assert d.certified
    assert sorted((r.dim_vector(), mult) for r, mult in d) == [((0, 1), 1), ((1, 0), 2)]
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    d2 = decompose(m3.direct_sum(m5), 1)
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
                    total = r if total is None else total.direct_sum(r)
            if total is None:
                total = Representation.zero(bq, F101)
            assert are_isomorphic(m, total, seed=3).verdict == "yes"


def test_support_and_sincere(a2_bq, dual_numbers_bq, f101):
    zero = Representation.zero(a2_bq, f101)
    assert support(zero) == set()
    s1 = Representation.simple(a2_bq, f101, "1")
    assert support(s1) == {"1"}
    p1 = Representation.from_lists(a2_bq, f101, {"1": 1, "2": 1}, {"a1": [[1]]})
    assert support(p1) == {"1", "2"}
    assert in_sincere_subcategory(zero, 0) is True
    assert in_sincere_subcategory(p1, 0) is True
    assert in_sincere_subcategory(s1.direct_sum(p1), 0) is False
    j2 = Representation.from_lists(dual_numbers_bq, f101, {"v": 2},
                                   {"x": [[0, 0], [1, 0]]})
    assert in_sincere_subcategory(j2, 0) is True


def test_no_invertible_composites_between_noniso_indecomposables(k2_bq, f101):
    from wildrank.exactlin import find_invertible_in_span
    m3, m5 = kron_module(k2_bq, f101, 3), kron_module(k2_bq, f101, 5)
    p1 = Representation.from_lists(k2_bq, f101, {"1": 1, "2": 2},
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
            for f in h_mn.total_matrices():
                for g in h_nm.total_matrices():
                    composites.append(g @ f)
            nonzero = [c for c in composites if not c.is_zero()]
            if nonzero:
                assert find_invertible_in_span(nonzero, 32, seed=1) is None


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
    # pencil A^-1 M(b); each module's side of it, as source and as target,
    # is built once, so the four Hom spaces between two modules take four
    # Jordan eliminations, not two each, and give the bases of fresh copies
    rng = random.Random("shared-side")

    def invertible(n):
        while True:
            g = Mat.random(F101, n, n, rng)
            if g.is_invertible():
                return g

    mods = []
    for sizes in ([(2, 0), (1, 0)], [(3, 0)]):
        a, g = invertible(3), invertible(3)
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
    assert len(frames) == 4
    for m in mods:
        for n in mods:
            assert hom_space(copy_rep(m), copy_rep(n)).basis == hom_space(m, n).basis


def _indecomposability_cases(field, dual_numbers_bq, a2_bq, k2_bq):
    """One module per route of ``is_indecomposable``, by name."""
    one_loop = BoundQuiver(loop_quiver(1), [], nilbound=3)
    lam = 2
    jordan4 = [[lam if j == i else 1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    return {
        # End = K[x]/(x^2): local of dimension 2
        "local": Representation.from_lists(dual_numbers_bq, field, {"v": 2},
                                           {"x": [[0, 0], [1, 0]]}),
        "direct sum": kron_module(k2_bq, field, 2).direct_sum(kron_module(k2_bq, field, 3)),
        # minimal polynomial x^2 + 1: End is K[x]/(x^2 + 1)
        "x^2+1": Representation.from_lists(one_loop, field, {"v": 2},
                                           {"x": [[0, -1], [1, 0]]}),
        # End = K[x]/(x^4) on total dimension 8: over F5 and F7 the gated
        # reference skips the module trace form and the regular one decides
        "regular (4, 4)": Representation.from_lists(
            k2_bq, field, {"1": 4, "2": 4},
            {"a": [[int(i == j) for j in range(4)] for i in range(4)], "b": jordan4}),
        "zero": Representation.zero(a2_bq, field),
        "simple": Representation.simple(a2_bq, field, "1"),
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
    totals = Span(field, 8, 8, hom_space(big, big).total_matrices())
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
    monkeypatch.setattr(exactlin_module, "nilpotency_index",
                        lambda s: checks.append(s) or nilpotency_index(s))
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
        totals = hom_space(m, m).total_matrices()
        # the Gram matrix of _natural_trace_radical
        assert trace_form(totals, totals).row_list() == reference_trace_pairing(totals, totals)
        n = rand_rep(k3_bq, field, 3, rng)
        back = hom_space(n, m).total_matrices()
        there = hom_space(m, n).total_matrices()
        if back and there:
            # the pairing of are_isomorphic (rectangular when dims differ)
            assert trace_form(there, back).row_list() == reference_trace_pairing(there, back)
        end = ReferenceEndAnalysis(m)
        if end.dim:
            seen_end += 1
            regular = _regular_representation(m, hom_space(m, m).basis)
            assert regular.mats == [Mat.from_rows(field, reg) for reg in end.regular]
            assert trace_form(regular.mats, regular.mats) == reference_regular_trace_gram(end)
    assert seen_end >= 5


@pytest.mark.parametrize("field", TRACE_FIELDS, ids=str)
def test_trace_pairing_decision_matches_reference_loop(k2_bq, a2_bq, field):
    # pairs that reach the trace pairing: no invertible combination exists
    def a2(rows):
        dims = {"1": len(rows[0]) if rows else 1, "2": len(rows)}
        return Representation.from_lists(a2_bq, field, dims, {"a1": rows})
    p1, s1 = a2([[1]]), Representation.from_lists(a2_bq, field, {"1": 1, "2": 0}, {})
    s2 = Representation.from_lists(a2_bq, field, {"1": 0, "2": 1}, {})
    cases = [(s1.direct_sum(s2), p1), (p1, s1.direct_sum(s2))]
    for lam in (0, 1, 2, 3):
        base = kron_module(k2_bq, field, 0)
        cases.append((base.direct_sum(kron_module(k2_bq, field, lam + 1)),
                      base.direct_sum(kron_module(k2_bq, field, lam + 5))))
    verdicts = set()
    for m, n in cases:
        got = are_isomorphic(m, n, trials=2, seed=3, both_indecomposable=True)
        index, nonzero = reference_pairing_witness(hom_space(m, n), hom_space(n, m))
        if index is not None:
            expect = "yes"
        elif nonzero:
            expect = "inconclusive"
        else:
            expect = "no"
        assert got.verdict == expect and "pairing" in got.detail
        verdicts.add(expect)
    assert verdicts == {"no", "inconclusive"}


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
        out.append(Representation.from_lists(k2_bq, field, {"1": n, "2": n},
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
    m = Representation.from_lists(k2_bq, field, {"1": n, "2": n},
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
    m = Representation.from_lists(bq, field, {"v": 5}, {
        "x": [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 3], [0] * 5],
        "y": [[0, 2, 0, 0, 4], [0, 0, 0, 0, 4], [0, 0, 0, 2, 0], [0] * 5, [0] * 5]})
    hom = hom_space(m, m)
    assert hom.dim == 2
    assert trace_radical(Span(field, 5, 5, hom.total_matrices())) is None
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
            modules.append(rand_rep(bq, field, 2, rng).direct_sum(rand_rep(bq, field, 2, rng)))
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
    rotation = Representation.from_lists(bq, QQ, {"v": 2, "w": 2},
                                         {"x": [[0, -1], [1, 0]], "a": [[1, 0], [0, 1]]})
    for sincere in (in_sincere_subcategory, reference_in_sincere_subcategory):
        with pytest.raises(InconclusiveError):
            sincere(rotation, 0)
        assert sincere(rotation.direct_sum(Representation.simple(bq, QQ, "v")), 0) is False
