import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildrank.exactlin import F101, QQ, Field
from wildrank.quiver import (AdmissibilityError, BoundQuiver, Quiver, RepType,
                             build_algebra_table, classify_hereditary, euler_form,
                             factor_quiver, is_minimal_wild_hereditary,
                             k3_bound_quiver, kronecker_quiver, line_quiver,
                             loop_quiver, loop_square_zero, make_relation,
                             symmetrized_tits_matrix, tits_form,
                             _char_poly, _leading_minors_positive, _sparse_rref)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(["a", "a"], [])
    with pytest.raises(ValueError):
        Quiver(["a"], [("f", "a", "b")])
    with pytest.raises(ValueError):
        Quiver(["a", "b"], [("f", "a", "b"), ("f", "b", "a")])


def test_trivial_path_takes_vertices_only():
    q = kronecker_quiver(2)
    assert q.trivial_path("1").arrows == () and q.trivial_path("2").source == "2"
    with pytest.raises(ValueError):
        q.trivial_path("a")         # an arrow's name, not a vertex
    with pytest.raises(ValueError):
        q.trivial_path("3")


def test_relation_validation():
    q = line_quiver(3)
    with pytest.raises(ValueError):
        make_relation(q, [(1, ("a1",))])          # length < 2
    with pytest.raises(ValueError):
        make_relation(q, [(1, ("a1", "a2"))])     # not composable in this order
    rel = make_relation(q, [(1, ("a2", "a1"))])
    assert rel.source == "1" and rel.target == "3"


def test_table_point_algebra(f101):
    bq = BoundQuiver(Quiver(["v"], []), [], nilbound=1)
    t = build_algebra_table(bq, f101)
    assert t.dimension == 1


def test_table_dual_numbers(dual_numbers_bq, f101):
    t = build_algebra_table(dual_numbers_bq, f101)
    assert t.dimension == 2
    x = t.arrow_element("x")
    assert (x * x).is_zero()
    assert t.check_associativity()


def test_table_a2(a2_bq, f101):
    assert build_algebra_table(a2_bq, f101).dimension == 3


def test_table_k3(k3_table):
    assert k3_table.dimension == 5
    assert k3_table.check_associativity()


def test_table_three_loop(three_loop_bq, f101):
    t = build_algebra_table(three_loop_bq, f101)
    assert t.dimension == 4
    assert t.check_associativity()
    one = t.one()
    for i in range(t.dimension):
        b = t.basis_element(i)
        assert one * b == b and b * one == b


def test_admissibility_errors(f101, qq):
    with pytest.raises(AdmissibilityError):
        build_algebra_table(BoundQuiver(loop_quiver(1), [], nilbound=3), f101)
    q = loop_quiver(1)
    trap = BoundQuiver(q, [make_relation(q, [(1, ("x", "x")), (-1, ("x", "x", "x"))])],
                       nilbound=4)
    with pytest.raises(AdmissibilityError):
        build_algebra_table(trap, qq)


def test_table_commutative_square(f101):
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    bq = BoundQuiver(q, [make_relation(q, [(1, ("b", "a")), (-1, ("d", "c"))])],
                     nilbound=3)
    t = build_algebra_table(bq, f101)
    # paths: 4 idempotents + 4 arrows + one diagonal class (ba = dc)
    assert t.dimension == 9
    assert t.check_associativity()
    ba = t.path_element(q.path(("b", "a")))
    dc = t.path_element(q.path(("d", "c")))
    assert ba == dc and not ba.is_zero()


def test_factor_quiver_examples(three_loop_bq):
    q3 = line_quiver(3)
    bq3 = BoundQuiver(q3, [make_relation(q3, [(1, ("a2", "a1"))])], nilbound=3)
    full = factor_quiver(bq3, ["1", "2", "3"], ["a1", "a2"])
    assert full == bq3
    fq = factor_quiver(bq3, ["1", "2"], ["a1"])
    assert len(fq.quiver.vertices) == 2 and not fq.relations
    single = factor_quiver(three_loop_bq, ["v"], ["x"])
    assert len(single.quiver.arrows) == 1
    assert len(single.relations) == 1   # only x*x survives


def test_factor_quiver_errors(three_loop_bq):
    q3 = line_quiver(3)
    bq3 = BoundQuiver(q3, [], nilbound=3)
    with pytest.raises(ValueError):
        factor_quiver(bq3, ["1", "2"], ["a2"])    # a2 touches removed vertex 3


def test_factor_quiver_idempotent(three_loop_bq):
    once = factor_quiver(three_loop_bq, ["v"], ["x", "y"])
    twice = factor_quiver(once, ["v"], ["x", "y"])
    assert once == twice


def test_tits_form_examples():
    assert tits_form(kronecker_quiver(3), (0, 0)) == 0
    assert tits_form(kronecker_quiver(3), (1, 1)) == -1
    assert tits_form(kronecker_quiver(2), (1, 1)) == 0
    with pytest.raises(ValueError):
        tits_form(kronecker_quiver(2), (1, 1, 1))


def test_euler_form_examples():
    k3 = kronecker_quiver(3)
    # Ext^1(S1, S2) has one dimension per arrow, and
    # <dim P1, dim S2> = dim Hom(P1, S2) - dim Ext^1(P1, S2) = 0
    assert euler_form(k3, (1, 0), (0, 1)) == -3
    assert euler_form(k3, (0, 1), (1, 0)) == 0
    assert euler_form(k3, (1, 3), (0, 1)) == 0
    assert euler_form(k3, (2, 1), (2, 1)) == tits_form(k3, (2, 1))
    for d, e in (((1, 1, 1), (1, 1)), ((1, 1), (1,))):
        with pytest.raises(ValueError):
            euler_form(k3, d, e)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_tits_form_quadratic(d1, d2, lam):
    q = kronecker_quiver(3)
    assert tits_form(q, (lam * d1, lam * d2)) == lam * lam * tits_form(q, (d1, d2))


def test_classify_examples():
    assert classify_hereditary(line_quiver(2)) == RepType.FINITE
    assert classify_hereditary(kronecker_quiver(2)) == RepType.TAME
    assert classify_hereditary(kronecker_quiver(3)) == RepType.WILD
    with pytest.raises(ValueError):
        classify_hereditary(loop_quiver(1))
    disconnected = Quiver(["1", "2"], [])
    with pytest.raises(ValueError):
        classify_hereditary(disconnected)


def test_minimal_wild_examples():
    assert is_minimal_wild_hereditary(kronecker_quiver(3))
    assert not is_minimal_wild_hereditary(kronecker_quiver(2))
    pendant = Quiver(["1", "2", "3"],
                     [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2"), ("d", "2", "3")])
    assert classify_hereditary(pendant) == RepType.WILD
    assert not is_minimal_wild_hereditary(pendant)


def test_minimal_implies_wild_on_samples():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 4)
        edges = []
        for k in range(rng.randint(0, 5)):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j:
                continue
            edges.append((f"e{k}", str(i), str(j)))
        q = Quiver([str(i) for i in range(n)], edges)
        if q.has_loops() or not q.vertices or not q.is_connected():
            continue
        if is_minimal_wild_hereditary(q):
            assert classify_hereditary(q) == RepType.WILD


def test_connected_components():
    assert line_quiver(2).is_connected()
    assert Quiver([], []).is_connected() and Quiver([], []).connected_components() == []
    # parallel arrows 1 -> 2, a loop at 3, an arrow 4 -> 3, isolated 5; the
    # components come in the order of their first vertex
    q = Quiver(["5", "1", "3", "2", "4"],
               [("a", "1", "2"), ("b", "1", "2"), ("x", "3", "3"), ("c", "4", "3")])
    assert not q.is_connected()
    comps = q.connected_components()
    assert [c.vertices for c in comps] == [("5",), ("1", "2"), ("3", "4")]
    assert [[a.name for a in c.arrows] for c in comps] == [[], ["a", "b"], ["x", "c"]]
    assert loop_quiver(2).is_connected() and kronecker_quiver(3).is_connected()


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Fraction elimination with row swaps (reference)."""
    n = len(rows)
    w = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        sel = next((i for i in range(c, n) if w[i][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            w[c], w[sel] = w[sel], w[c]
            det = -det
        det *= w[c][c]
        inv = Fraction(1) / w[c][c]
        for i in range(c + 1, n):
            if w[i][c] != 0:
                f = w[i][c] * inv
                w[i] = [x - f * y for x, y in zip(w[i], w[c])]
    return det


def _reference_char_poly(b: list[list[int]]) -> list[Fraction]:
    """Faddeev-LeVerrier over Fraction, dividing tr(M_k) by k exactly."""
    n = len(b)
    bq = [[Fraction(x) for x in row] for row in b]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = [[sum(bq[i][l] * m[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def _random_tits_like(rng: random.Random) -> list[list[int]]:
    """Symmetric integer matrix shaped like a symmetrized Tits form: 2, 0
    or -2 on the diagonal (no loop, one loop, two loops), and off the
    diagonal minus the number of arrows between two vertices, up to 12."""
    n = rng.randint(1, 8)
    most = rng.choice((1, 2, 12))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = rng.choice((2, 2, 2, 0, -2))
        for j in range(i):
            b[i][j] = b[j][i] = -rng.randint(0, most) * (rng.random() < 0.5)
    return b


def test_char_poly_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        b = _random_tits_like(rng)
        assert _char_poly(b) == _reference_char_poly(b)
    assert _char_poly([]) == [1]
    # a nonsymmetric matrix: det(tI - [[1, 2], [3, 4]]) = t^2 - 5t - 2
    assert _char_poly([[1, 2], [3, 4]]) == [-2, -5, 1]


def test_leading_minors_match_fraction_determinants():
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        b = _random_tits_like(rng)
        n = len(b)
        expect = all(_det([[Fraction(b[i][j]) for j in range(k)] for i in range(k)]) > 0
                     for k in range(1, n + 1))
        assert _leading_minors_positive(b) == expect
        outcomes.add(expect)
    assert outcomes == {True, False}
    # E8 is positive definite; its extension ~E8 (the long arm one longer)
    # is semidefinite, its last leading minor is 0
    e8 = symmetrized_tits_matrix(Quiver([str(i) for i in range(8)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(6)] + [("b", "2", "7")]))
    assert _leading_minors_positive(e8)
    e8_ext = [row + [0] for row in e8] + [[0] * 9]
    e8_ext[6][8] = e8_ext[8][6] = -1
    e8_ext[8][8] = 2
    assert not _leading_minors_positive(e8_ext)


def _oracle_classify(q: Quiver) -> RepType:
    """All-principal-minors definiteness oracle on the symmetrized form."""
    b = symmetrized_tits_matrix(q)
    n = len(b)
    minors = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = [[Fraction(b[i][j]) for j in subset] for i in subset]
            minors.append((size, subset, _det(sub)))
    if all(d > 0 for _, _, d in minors):
        return RepType.FINITE
    if all(d >= 0 for _, _, d in minors):
        return RepType.TAME
    return RepType.WILD


def test_classify_matches_oracle_random_sample():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 5)
        arrows = []
        for k in range(rng.randint(0, 5)):
            if n == 1:
                continue
            i, j = rng.sample(range(1, n + 1), 2)
            arrows.append((f"e{k}", str(i), str(j)))
        q = Quiver([str(i) for i in range(1, n + 1)], arrows)
        if q.has_loops() or not q.is_connected():
            continue
        assert classify_hereditary(q) == _oracle_classify(q)
        checked += 1


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=["F101", "F7", "Q"])
def test_sparse_rref_continues_from_a_reduced_span(field):
    rng = random.Random(field.char + 5)

    def sparse_row(ncols):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
            x = field.coerce(rng.randint(-6, 6))
            if x != 0:
                row[c] = x
        return row

    for trial in range(60):
        ncols = rng.randint(1, 12)
        span = [sparse_row(ncols) for _ in range(rng.randint(0, 8))]
        units = [{c: field.one} for c in rng.sample(range(ncols), rng.randint(0, ncols))]
        if trial % 2:
            units += [sparse_row(ncols) for _ in range(rng.randint(1, 3))]
        together = _sparse_rref(span + units, field)
        continued = _sparse_rref(units, field, _sparse_rref(span, field))
        assert continued == together
        if trial % 2 == 0:
            # on unit rows the entries even come in the same order
            assert [list(r.items()) for _, r in continued] == \
                [list(r.items()) for _, r in together]
