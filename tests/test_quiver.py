import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (F101, field_add, fixture_text, is_associative, line_quiver,
                      loop_square_zero, make_relation, QQ, reference_relation_rows, table_product)
from wildrank import quiver
from wildrank.cli import parse_quiver_spec
from wildrank.covering import CoveringSpec, build_window
from wildrank.exactlin import Field
from wildrank.quiver import (AdmissibilityError, BoundQuiver, Path, Quiver, RepType,
                             build_algebra_table, classify_hereditary, euler_form, factor_quiver,
                             is_minimal_wild_hereditary, k3_bound_quiver, kronecker_quiver,
                             loop_quiver, symmetrized_tits_matrix, _enumerate_paths,
                             _leading_minors, _present, _sparse_rref)


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
    assert x and table_product(t, x, x) == {}
    assert is_associative(t)


def test_table_a2(a2_bq, f101):
    assert build_algebra_table(a2_bq, f101).dimension == 3


def test_table_k3(k3_table):
    assert k3_table.dimension == 5
    assert is_associative(k3_table)


def test_table_three_loop(three_loop_bq, f101):
    t = build_algebra_table(three_loop_bq, f101)
    assert t.dimension == 4
    assert is_associative(t)
    one = t.one()
    for i in range(t.dimension):
        b = {i: t.field.one}
        assert table_product(t, one, b) == b and table_product(t, b, one) == b


def _element_tables(field):
    """The k3, three-loop and three-loop window (two sheets, with interior
    relations) tables over ``field``."""
    three_loop = loop_square_zero(3)
    cov = CoveringSpec(three_loop, 1, {a.name: (1,) for a in three_loop.quiver.arrows})
    window = build_window(cov, [(0, 2)]).bound_quiver
    assert window.relations
    return [build_algebra_table(bq, field) for bq in (k3_bound_quiver(), three_loop, window)]


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "QQ"])
def test_table_elements_are_coefficient_dicts(field):
    for t in _element_tables(field):
        one = field.one
        for i, p in enumerate(t.basis):
            nf = t._normal_forms[(p.source, p.target, p.arrows)]
            assert t.path_element(p) == {k: c for k, c in nf.items() if c != 0} == {i: one}
        for p in _enumerate_paths(t.bound_quiver.quiver, t.bound_quiver.nilbound):
            elt = t.path_element(p)
            assert all(c != 0 for c in elt.values()) and list(elt) == sorted(elt)
            if len(p) >= t.bound_quiver.nilbound:
                assert elt == {}
        for a in t.bound_quiver.quiver.arrows:
            assert t.arrow_element(a.name) == t.path_element(Path(a.source, a.target,
                                                                  (a.name,)))
        total = {}
        for v in t.bound_quiver.quiver.vertices:
            e = t.idempotent(v)
            assert table_product(t, e, e) == e
            for k, c in e.items():
                total[k] = field_add(field, total.get(k, field.zero), c)
        assert total == t.one()
        for i in range(t.dimension):
            b = {i: one}
            assert table_product(t, t.one(), b) == b == table_product(t, b, t.one())


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
    assert is_associative(t)
    ba = t.path_element(q.path(("b", "a")))
    dc = t.path_element(q.path(("d", "c")))
    assert ba == dc and ba


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
    # the Tits form is the Euler form on the diagonal, q(d) = <d, d>
    assert euler_form(kronecker_quiver(3), (0, 0), (0, 0)) == 0
    assert euler_form(kronecker_quiver(3), (1, 1), (1, 1)) == -1
    assert euler_form(kronecker_quiver(2), (1, 1), (1, 1)) == 0
    with pytest.raises(ValueError):
        euler_form(kronecker_quiver(2), (1, 1, 1), (1, 1, 1))


def test_euler_form_examples():
    k3 = kronecker_quiver(3)
    # Ext^1(S1, S2) has one dimension per arrow, and
    # <dim P1, dim S2> = dim Hom(P1, S2) - dim Ext^1(P1, S2) = 0
    assert euler_form(k3, (1, 0), (0, 1)) == -3
    assert euler_form(k3, (0, 1), (1, 0)) == 0
    assert euler_form(k3, (1, 3), (0, 1)) == 0
    for d, e in (((1, 1, 1), (1, 1)), ((1, 1), (1,))):
        with pytest.raises(ValueError):
            euler_form(k3, d, e)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_tits_form_quadratic(d1, d2, lam):
    q = kronecker_quiver(3)
    d, scaled = (d1, d2), (lam * d1, lam * d2)
    assert euler_form(q, scaled, scaled) == lam * lam * euler_form(q, d, d)


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


def test_leading_minors_match_fraction_determinants():
    # the minors up to the first one <= 0, or all of them
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        b = _random_tits_like(rng)
        n = len(b)
        expect = []
        for k in range(1, n + 1):
            expect.append(_det([[Fraction(b[i][j]) for j in range(k)] for i in range(k)]))
            if expect[-1] <= 0:
                break
        assert _leading_minors(b) == expect
        outcomes.add((len(expect) == n, expect[-1] > 0, expect[-1] == 0))
    assert {(True, True, False), (True, False, True), (True, False, False),
            (False, False, True), (False, False, False)} <= outcomes
    # E8 is positive definite; its extension ~E8 (the long arm one longer)
    # is semidefinite, its last leading minor is 0
    e8 = symmetrized_tits_matrix(Quiver([str(i) for i in range(8)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(6)] + [("b", "2", "7")]))
    assert _leading_minors(e8)[-1] == 1 and len(_leading_minors(e8)) == 8
    e8_ext = [row + [0] for row in e8] + [[0] * 9]
    e8_ext[6][8] = e8_ext[8][6] = -1
    e8_ext[8][8] = 2
    assert _leading_minors(e8_ext) == _leading_minors(e8) + [0]


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


def _mixed_two_loop():
    """Two loops with xy = yx = 0 and x^2 = y^3: relations of lengths 2 and 3
    in one, so the window runs past the nilbound."""
    q = loop_quiver(2)
    x, y = (a.name for a in q.arrows)
    rels = [make_relation(q, [(1, (x, y))]), make_relation(q, [(1, (y, x))]),
            make_relation(q, [(1, (x, x)), (-1, (y, y, y))])]
    return q, rels


@pytest.mark.parametrize("name", ["a2", "k2", "k3", "loop_x2", "three_loop_rad2", "mixed"])
def test_relation_rows_match_the_full_double_loop(name, monkeypatch):
    """``_relation_rows`` visits only the pairs (u, v) that fit the window; it
    gives the rows of the double loop over every pair, in the same order,
    and ``_present`` the same basis and normal forms, or the same error."""
    if name == "mixed":
        q, rels = _mixed_two_loop()
    else:
        bq = parse_quiver_spec(fixture_text(f"{name}.quiver")).bound_quiver
        q, rels = bq.quiver, bq.relations
    seen = []
    fast = quiver._relation_rows

    def spy(*args):
        rows = fast(*args)
        seen.append(rows == reference_relation_rows(*args))
        return rows

    for field in (F101, QQ):
        for nilbound in range(2, 6):
            bq = BoundQuiver(q, rels, nilbound=nilbound)
            outcomes = []
            for rows in (spy, reference_relation_rows):
                monkeypatch.setattr(quiver, "_relation_rows", rows)
                try:
                    outcomes.append(_present(bq, field))
                except AdmissibilityError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], (name, field, nilbound)
    assert seen == [True] * 8
