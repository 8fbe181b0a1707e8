import contextlib
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (fixture_text, intertwiner_system, jordan_shift, reference_echelon_qq,
                      reference_find_invertible_in_span, reference_hom_pencil,
                      reference_jordan_nilpotent, reference_kernel, reference_matmul_qq,
                      reference_trace_pairing)

import wildrank.exactlin as exactlin_module

from wildrank.cli import cmd_certify, cmd_classify
from wildrank.exactlin import (F101, QQ, Field, Mat, ShapeMismatchError, Span,
                               find_invertible_in_span, jordan_nilpotent, nilpotency_index,
                               nilpotent_hom_basis, trace_form,
                               _echelon_qq, _is_prime, _jordan_frame, _on_support)


def test_field_validation():
    with pytest.raises(ValueError):
        Field.prime(4)
    with pytest.raises(ValueError):
        Field.prime(3)   # characteristic must be >= 5
    assert Field.prime(101).char == 101
    assert Field.rationals().char == 0


@contextlib.contextmanager
def at_once(seconds=1.0):
    """Fail the block with ``TimeoutError`` once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))
    assert [n for n in range(100000) if _is_prime(n)] == \
        [n for n in range(100000) if by_trial_division(n)]


def test_is_prime_decides_large_numbers_at_once():
    with at_once():
        # Carmichael numbers and a composite with only large factors
        assert not any(_is_prime(n) for n in (561, 41041, 2 ** 61 + 1, 1000003 * 1000033))
        # the Mersenne prime 2**61 - 1 and the prime 10**18 + 3
        assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 18 + 3)
        assert Field.prime(2 ** 53 - 111).char == 2 ** 53 - 111


def test_prime_field_refuses_inexact_residues():
    # the residue p - 1 must be an exact float64; 2**53 + 5 is prime
    for p in (2 ** 53 + 5, 2 ** 61 - 1, 10 ** 18 + 3):
        with at_once(), pytest.raises(ValueError, match="below 2\\*\\*53"):
            Field.prime(p)
    with at_once():
        for p in (2 ** 53 + 5, 10 ** 18 + 3):
            out, code = cmd_classify(f"quiver big\nfield Fp {p}\nvertex 1 2\narrow a: 1 -> 2\n")
            assert code == 2 and out.startswith("error: line 2") and "2**53" in out


def test_field_scalar_ops():
    f = Field.prime(7)
    assert f.coerce(Fraction(1, 2)) == 4          # 1/2 = 4 mod 7
    assert f.inv(3) == 5
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_rank_examples():
    assert Mat.zeros(QQ, 0, 0).rank() == 0
    assert Mat.identity(F101, 2).rank() == 2
    assert Mat.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Mat.identity(F101, 3).kernel().cols == 0
    assert Mat.zeros(QQ, 2, 3).kernel().cols == 3
    ker = Mat.from_rows(QQ, [[1, 1]]).kernel()
    assert ker.cols == 1
    assert ker.entry(0, 0) == -ker.entry(1, 0) != 0


def test_solve_examples():
    x = Mat.identity(QQ, 2).solve(Mat.column(QQ, [1, 2]))
    assert x.T.row_list()[0] == [1, 2] and Mat.identity(QQ, 2).kernel().cols == 0
    a = Mat.from_rows(QQ, [[1, 1]])
    x = a.solve(Mat.column(QQ, [0]))
    assert x is not None
    assert x.T.row_list()[0] == [0, 0] and a.kernel().cols == 1
    assert Mat.from_rows(QQ, [[0]]).solve(Mat.column(QQ, [1])) is None
    with pytest.raises(ShapeMismatchError):
        Mat.identity(QQ, 2).solve(Mat.column(QQ, [1, 2, 3]))


def test_find_invertible_examples():
    ident = Mat.identity(F101, 2)
    coeffs, combo = find_invertible_in_span([ident], 4, seed=0)
    assert combo.is_invertible() and coeffs == [1]
    nil = Mat.from_rows(F101, [[0, 1], [0, 0]])
    assert find_invertible_in_span([nil], 16, seed=0) is None
    e11 = Mat.from_rows(QQ, [[1, 0], [0, 0]])
    e22 = Mat.from_rows(QQ, [[0, 0], [0, 1]])
    coeffs, combo = find_invertible_in_span([e11, e22], 16, seed=0)
    assert combo.is_invertible()
    assert all(c != 0 for c in coeffs)
    assert find_invertible_in_span([], 4, seed=1) is None


def test_find_invertible_deterministic():
    rng = random.Random(9)
    basis = [Mat.random(F101, 3, 3, rng) for _ in range(3)]
    a = find_invertible_in_span(basis, 8, seed=123)
    b = find_invertible_in_span(basis, 8, seed=123)
    assert a[0] == b[0]


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=repr)
def test_find_invertible_matches_per_candidate_reference(field):
    rng = random.Random(f"span-search:{field!r}")
    n = 3
    while True:
        g = Mat.random(field, n, n, rng)
        if g.is_invertible():
            break
    ginv = g.inverse()

    def conj(mats):
        return [g @ x @ ginv for x in mats]

    diag = [Mat.unit(field, n, n, i, i) for i in range(n)]
    upper = [Mat.unit(field, n, n, i, j) for i in range(n) for j in range(i + 1, n)]
    cases = [
        ("unit", conj([upper[0], Mat.identity(field, n), diag[0]])),
        ("sum", conj(diag)),
        # every unit vector and the sum are singular; random draws are not
        ("late", conj([diag[0], diag[1], diag[2], diag[2].scaled(-1)])),
        ("none", conj(upper)),
        # elements with a zero row or a zero column, singular by their support
        ("unit", [upper[0], Mat.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 1, 1]]),
                  diag[0], Mat.identity(field, n)]),
        ("late", [diag[0], diag[1], diag[2], diag[2].scaled(-1)]),
        ("none", upper),
    ]
    for name, basis in cases:
        for seed in range(3):
            got = find_invertible_in_span(basis, 8, seed)
            ref = reference_find_invertible_in_span(basis, 8, seed)
            if name == "none":
                assert got is None and ref is None
                continue
            coeffs, combo = got
            assert coeffs == ref[0] and [type(c) for c in coeffs] == [type(c) for c in ref[0]]
            assert combo == ref[1] and combo.is_invertible()
            if name == "late":   # a seeded draw: neither a unit vector nor the sum
                assert sum(1 for c in coeffs if c != 0) > 1
                assert coeffs != [field.one] * len(basis)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(m, n, seed):
    rng = random.Random(seed)
    a = Mat.random(F101, m, n, rng)
    ker = a.kernel()
    assert a.rank() + ker.cols == n
    assert (a @ ker).is_zero()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_rational_rank_row_order_invariance(m, n, seed):
    rng = random.Random(seed)
    a = Mat.random(QQ, m, n, rng)
    rows = a.row_list()
    rng.shuffle(rows)
    b = Mat.from_rows(QQ, rows)
    assert a.rank() == b.rank()


def test_solve_residual_exact():
    rng = random.Random(4)
    for field in (F101, QQ):
        a = Mat.random(field, 4, 6, rng)
        x0 = Mat.random(field, 6, 1, rng)
        b = a @ x0
        x = a.solve(b)
        assert (a @ x - b).is_zero()


def test_inverse_and_solve_matrix():
    rng = random.Random(11)
    for field in (F101, QQ):
        while True:
            a = Mat.random(field, 4, 4, rng)
            if a.is_invertible():
                break
        assert (a @ a.inverse()) == Mat.identity(field, 4)
        b = Mat.random(field, 4, 3, rng)
        x = a.solve_matrix(b)
        assert (a @ x) == b


def test_solve_matrix_batched_consistency():
    rng = random.Random(13)
    for field in (F101, QQ):
        for _ in range(8):
            m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
            a = Mat.random(field, m, n, rng)
            x0 = Mat.random(field, n, k, rng)
            b = a @ x0
            x = a.solve_matrix(b)
            assert x is not None and (a @ x) == b
    # inconsistent batch: one bad column poisons the whole solve
    a = Mat.from_rows(F101, [[1, 0], [0, 0]])
    b = Mat.from_rows(F101, [[1, 1], [0, 1]])
    assert a.solve_matrix(b) is None
    # zero-width batch
    z = Mat.zeros(F101, 2, 0)
    out = a.solve_matrix(z)
    assert out is not None and out.shape == (2, 0)


def _random_nilpotent(field, n, rng):
    rows = [[field.random_scalar(rng) if j > i else field.zero
             for j in range(n)] for i in range(n)]
    s = Mat(field, n, n, rows) if field.char == 0 else Mat.from_rows(field, rows)
    while True:
        g = Mat.random(field, n, n, rng)
        if g.is_invertible():
            return g @ s @ g.inverse()


def test_nilpotency_index():
    assert nilpotency_index(Mat.zeros(F101, 3, 3)) == 1
    assert nilpotency_index(Mat.identity(F101, 2)) is None
    j = Mat.from_rows(QQ, [[0, 1], [0, 0]])
    assert nilpotency_index(j) == 2


@pytest.mark.parametrize("field", [F101, QQ])
def test_jordan_nilpotent(field):
    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        s = _random_nilpotent(field, n, rng)
        p, p_inv, sizes = jordan_nilpotent(s)
        assert sum(sizes) == n
        assert s @ p == p @ jordan_shift(field, sizes)
        assert p @ p_inv == Mat.identity(field, n)


@pytest.mark.parametrize("field", [F101, Field.prime(7), QQ], ids=repr)
def test_jordan_nilpotent_matches_greedy_reference(field):
    rng = random.Random(f"jordan:{field!r}")
    cases = [Mat.zeros(field, 1, 1), Mat.zeros(field, 3, 3)]
    cases += [_random_nilpotent(field, n, rng) for n in (1, 2, 5)]
    for _ in range(10):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        n = sum(sizes)
        while True:
            g = Mat.random(field, n, n, rng)
            if g.is_invertible():
                break
        cases.append(g @ jordan_shift(field, sizes) @ g.inverse())
    for s in cases:
        p, p_inv, sizes = jordan_nilpotent(s)
        assert (p, list(sizes)) == reference_jordan_nilpotent(s)
        assert p_inv == p.inverse()


@pytest.mark.parametrize("field", [F101, QQ])
def test_nilpotent_hom_basis_matches_kron_kernel(field):
    rng = random.Random(6)
    for _ in range(6):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        s = _random_nilpotent(field, n1, rng)
        t = _random_nilpotent(field, n2, rng)
        basis = nilpotent_hom_basis(s, t)
        for g in basis:
            assert g @ s == t @ g
        big = s.T.kron(Mat.identity(field, n2)) - Mat.identity(field, n1).kron(t)
        assert big.kernel().cols == len(basis)


def _random_invertible(field, n, rng):
    while True:
        g = Mat.random(field, n, n, rng)
        if g.is_invertible():
            return g


def _conjugate_into(field, q, top, p, extra, rng, nilpotent):
    """q [[p top p^-1, x], [0, t]] q^-1 with x random and t a random nilpotent
    (when ``nilpotent``) or random ``extra x extra`` block: the map
    q [p; 0] intertwines ``top`` with it."""
    d = top.rows
    t = (_random_nilpotent(field, extra, rng) if nilpotent
         else Mat.random(field, extra, extra, rng))
    m = Mat.assemble(field, d + extra, d + extra,
                     [(0, 0, p @ top @ p.inverse()), (0, d, Mat.random(field, d, extra, rng)),
                      (d, d, t)])
    return q @ m @ q.inverse()


@pytest.mark.parametrize("field", [F101, Field.prime(7), Field.prime(5), QQ], ids=repr)
def test_nilpotent_hom_basis_in_jordan_coordinates_matches_reference(field):
    # g S = S' g cut down by 0-3 more pairs g R = R' g: S of a random Jordan
    # type, S' = q [[p S p^-1, x], [0, T]] q^-1 with T nilpotent of another
    # type, each R' built alike from R, so q [p; 0] is a solution
    rng = random.Random(f"jordan-pencil:{field!r}")
    seen = set()
    for trial in range(24):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        d, extra = sum(sizes), rng.randint(0, 3)
        e = d + extra
        g = _random_invertible(field, d, rng)
        s = g @ jordan_shift(field, sizes) @ g.inverse()
        p, q = _random_invertible(field, d, rng), _random_invertible(field, e, rng)
        sp = _conjugate_into(field, q, s, p, extra, rng, nilpotent=True)
        rest = []
        for _ in range(rng.randint(0, 3)):
            r = Mat.random(field, d, d, rng)
            rest.append((r, _conjugate_into(field, q, r, p, extra, rng, nilpotent=False)))
        if trial % 6 == 5:
            # a pair unrelated to q [p; 0]: often no common solution is left
            rest.append((Mat.random(field, d, d, rng), Mat.random(field, e, e, rng)))
        got = nilpotent_hom_basis(s, sp, rest)
        assert got == reference_hom_pencil(field, e, d, [(s, sp)] + rest), trial
        assert all(x @ y == y2 @ x for x in got for y, y2 in [(s, sp)] + rest)
        if trial % 6 != 5:
            assert got
        seen.add((len(rest), e == d))
    assert {0, 1, 2, 3} <= {n for n, _ in seen} and {sq for _, sq in seen} == {True, False}


def test_jordan_frame_is_memoised_per_mat(monkeypatch):
    rng = random.Random(41)
    calls = []
    monkeypatch.setattr(exactlin_module, "jordan_nilpotent",
                        lambda s: calls.append(s) or jordan_nilpotent(s))
    s = _random_nilpotent(F101, 6, rng)
    t = _random_nilpotent(F101, 5, rng)
    first = nilpotent_hom_basis(s, t)
    assert len(calls) == 2
    # a second solve on the same matrices runs no Jordan elimination
    assert nilpotent_hom_basis(s, t) == first and len(calls) == 2
    assert nilpotent_hom_basis(t, s, [(t, s)]) and len(calls) == 2
    # equal entries in a new Mat: its own frame, equal to the first
    twin = Mat.from_rows(F101, s.row_list())
    assert twin == s and twin is not s
    assert _jordan_frame(twin) == _jordan_frame(s) and len(calls) == 3
    # another matrix of the same shape gets a frame of its own
    other = _random_nilpotent(F101, 6, rng)
    p, p_inv, sizes = _jordan_frame(other)
    assert len(calls) == 4
    assert other @ p == p @ jordan_shift(F101, sizes) and p @ p_inv == Mat.identity(F101, 6)


# ---------------------------------------------------------------------------
# Mat operations against plain list-of-rows references
# ---------------------------------------------------------------------------

FIELDS = [F101, Field.prime(7), QQ]


def _rand_rows(field, m, n, rng):
    return [[field.random_scalar(rng) for _ in range(n)] for _ in range(m)]


def _ref_zeros(field, m, n):
    return [[field.zero] * n for _ in range(m)]


def _ref_matmul(field, a, b, inner):
    out = _ref_zeros(field, len(a), len(b[0]) if b else 0)
    for i, row in enumerate(a):
        for j in range(len(out[i])):
            for k in range(inner):
                out[i][j] = field.add(out[i][j], field.mul(row[k], b[k][j]))
    return out


def _ref_rref(field, rows):
    """Reduced row echelon form (nonzero rows only) and pivot columns."""
    w = [list(r) for r in rows]
    ncols = len(w[0]) if w else 0
    piv, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(w)) if w[i][c] != 0), None)
        if sel is None:
            continue
        w[r], w[sel] = w[sel], w[r]
        inv = field.inv(w[r][c])
        w[r] = [field.mul(inv, x) for x in w[r]]
        for i in range(len(w)):
            if i != r and w[i][c] != 0:
                f = w[i][c]
                w[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(w[i], w[r])]
        piv.append(c)
        r += 1
    return w[:r], piv


@pytest.mark.parametrize("field", FIELDS)
def test_assemble_and_unit_match_reference(field):
    rng = random.Random(31)
    for _ in range(20):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        ref = _ref_zeros(field, rows, cols)
        blocks = []
        for k in range(rng.randint(1, 4)):
            # the first block covers everything, so later ones overlap it
            i, j = (0, 0) if k == 0 else (rng.randint(0, rows), rng.randint(0, cols))
            b = _rand_rows(field, rows, cols, rng) if k == 0 else \
                _rand_rows(field, rng.randint(0, rows - i), rng.randint(0, cols - j), rng)
            blocks.append((i, j, Mat(field, len(b), len(b[0]) if b else 0, b) if b
                           else Mat.zeros(field, 0, rng.randint(0, cols - j))))
            for a, row in enumerate(b):
                for c, x in enumerate(row):
                    ref[i + a][j + c] = field.add(ref[i + a][j + c], x)
        assert Mat.assemble(field, rows, cols, blocks).row_list() == ref
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            unit = _ref_zeros(field, rows, cols)
            unit[i][j] = field.one
            assert Mat.unit(field, rows, cols, i, j).row_list() == unit
    with pytest.raises(ShapeMismatchError):
        Mat.assemble(field, 2, 2, [(1, 1, Mat.identity(field, 2))])


@pytest.mark.parametrize("field", FIELDS)
def test_concat_and_reshape_match_reference(field):
    rng = random.Random(32)
    for _ in range(20):
        rows = rng.randint(0, 4)
        parts = [_rand_rows(field, rows, rng.randint(0, 3), rng) for _ in range(rng.randint(0, 4))]
        widths = [len(p[0]) if p else 0 for p in parts]
        mats = [Mat(field, rows, w, p) if rows else Mat.zeros(field, 0, w)
                for p, w in zip(parts, widths)]
        h = Mat.hcat(field, rows, mats)
        assert h.shape == (rows, sum(widths))
        assert h.row_list() == [[x for p in parts for x in p[i]] for i in range(rows)]
        v = Mat.vcat(field, rows, [m.T for m in mats])
        assert v.row_list() == [[p[i][k] for i in range(rows)] for p in parts
                                for k in range(len(p[0]) if p else 0)]
        flat = [x for row in h.row_list() for x in row]
        for r in range(1, len(flat) + 1):
            if len(flat) % r == 0:
                c = len(flat) // r
                assert h.reshape(r, c).row_list() == [flat[k * c:(k + 1) * c] for k in range(r)]
    with pytest.raises(ShapeMismatchError):
        Mat.hcat(field, 2, [Mat.zeros(field, 3, 1)])
    with pytest.raises(ShapeMismatchError):
        Mat.identity(field, 2).reshape(3, 1)


@pytest.mark.parametrize("field", FIELDS)
def test_lincomb_matches_reference(field):
    rng = random.Random(33)
    col_rng = random.Random(35)

    def reference(coeffs, rows, m, n):
        ref = _ref_zeros(field, m, n)
        for c, b in zip(coeffs, rows):
            for i in range(m):
                for j in range(n):
                    ref[i][j] = field.add(ref[i][j], field.mul(c, b[i][j]))
        return ref

    shapes = [(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 5)) for _ in range(20)]
    # 1x1, non-square, zero matrices, no matrices
    extra = [(1, 1, 3), (2, 3, 2), (3, 1, 4), (2, 2, 3), (2, 3, 0)]
    for case, (m, n, k) in enumerate(shapes + extra):
        if case < len(shapes):
            rows = [_rand_rows(field, m, n, rng) for _ in range(k)]
            coeffs = [field.random_scalar(rng) if rng.random() < 0.7 else field.zero
                      for _ in range(k)]
        else:
            zero = case - len(shapes) == 3
            rows = [_ref_zeros(field, m, n) if zero else _rand_rows(field, m, n, col_rng)
                    for _ in range(k)]
            coeffs = _rand_rows(field, 1, k, col_rng)[0]
        mats = [Mat(field, m, n, b) for b in rows]
        assert Mat.lincomb(field, m, n, coeffs, mats).row_list() == reference(coeffs, rows, m, n)
        # many combinations at once, one per coefficient column (none at all
        # for a coefficient matrix with zero columns)
        cols = _rand_rows(field, case % 4, k, col_rng)
        coef = Mat(field, k, len(cols), [[c[i] for c in cols] for i in range(k)])
        got = Span(field, m, n, mats).combine(coef)
        assert [g.row_list() for g in got] == [reference(c, rows, m, n) for c in cols]
    with pytest.raises(ShapeMismatchError):
        Span(field, 2, 2, [Mat.zeros(field, 2, 3)])
    with pytest.raises(ShapeMismatchError):
        Span(field, 1, 1, [Mat.zeros(field, 1, 1)]).combine(Mat.zeros(field, 2, 1))


@pytest.mark.parametrize("field", FIELDS)
def test_kron_matches_reference(field):
    rng = random.Random(34)
    for _ in range(20):
        m, n, p, q = (rng.randint(0, 3) for _ in range(4))
        a = [[field.random_scalar(rng) if rng.random() < 0.5 else field.zero
              for _ in range(n)] for _ in range(m)]
        b = _rand_rows(field, p, q, rng)
        ref = [[field.mul(a[i // p][j // q], b[i % p][j % q]) for j in range(n * q)]
               for i in range(m * p)]
        assert Mat(field, m, n, a).kron(Mat(field, p, q, b)).row_list() == ref


@pytest.mark.parametrize("field", FIELDS)
def test_column_space_matches_reference(field):
    rng = random.Random(34)
    for _ in range(25):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        a = _rand_rows(field, m, n, rng)
        if m and n and rng.random() < 0.5:      # force a dependent column
            j = rng.randrange(n)
            c = field.random_scalar(rng)
            for row in a:
                row[j] = field.mul(c, row[0])
        mat = Mat(field, m, n, a) if m else Mat.zeros(field, 0, n)
        cs = mat.column_space()
        ref_rows, piv = _ref_rref(field, [[a[i][j] for i in range(m)] for j in range(n)])
        assert cs.shape == (m, len(piv))
        got_rows, _ = _ref_rref(field, [[cs.entry(i, j) for i in range(m)] for j in range(cs.cols)])
        assert got_rows == ref_rows


@pytest.mark.parametrize("field", FIELDS)
def test_minimal_polynomial_matches_reference(field):
    rng = random.Random(35)
    for n in (1, 2, 3, 4, 5):
        for kind in ("random", "scalar", "nilpotent"):
            if kind == "random":
                t = _rand_rows(field, n, n, rng)
            elif kind == "scalar":
                c = field.random_scalar(rng)
                t = [[c if i == j else field.zero for j in range(n)] for i in range(n)]
            else:
                t = [[field.one if j == i + 1 else field.zero for j in range(n)] for i in range(n)]
            # reference: the first power of t that depends on the lower ones
            powers = [[[field.one if i == j else field.zero for j in range(n)] for i in range(n)]]
            while True:
                flat = [[x for row in p for x in row] for p in powers]
                _, piv = _ref_rref(field, [[f[k] for f in flat] for k in range(n * n)])
                if len(piv) < len(powers):
                    break
                powers.append(_ref_matmul(field, powers[-1], t, n))
            mp = Mat(field, n, n, t).minimal_polynomial()
            assert len(mp) == len(powers) and mp[-1] == field.one
            total = _ref_zeros(field, n, n)
            for c, p in zip(mp, powers):
                total = [[field.add(x, field.mul(c, y)) for x, y in zip(r1, r2)]
                         for r1, r2 in zip(total, p)]
            assert total == _ref_zeros(field, n, n)


@pytest.mark.parametrize("field", FIELDS)
def test_intertwiner_system_matches_reference(field):
    rng = random.Random(36)
    for _ in range(10):
        e, d = rng.randint(1, 4), rng.randint(1, 4)
        params = [_rand_rows(field, e, d, rng) for _ in range(rng.randint(1, 4))]
        pairs = [(_rand_rows(field, d, d, rng), _rand_rows(field, e, e, rng))
                 for _ in range(rng.randint(1, 3))]
        cols = []
        for g in params:
            col = []
            for s, s2 in pairs:
                gs = _ref_matmul(field, g, s, d)
                sg = _ref_matmul(field, s2, g, e)
                col += [field.sub(x, y) for r1, r2 in zip(gs, sg) for x, y in zip(r1, r2)]
            cols.append(col)
        ref = [[col[i] for col in cols] for i in range(len(cols[0]))]
        got = intertwiner_system([Mat(field, e, d, g) for g in params],
                                 [(Mat(field, d, d, s), Mat(field, e, e, s2)) for s, s2 in pairs])
        assert got.row_list() == ref


@pytest.mark.parametrize("field", FIELDS)
def test_kron_with_identity_factors_matches_kron(field):
    # kron_assemble against an entrywise sum of Kronecker products, with
    # every None factor built as an identity: blocks at offsets, overlapping
    # blocks adding, and Mat.kron as the one-block case
    rng = random.Random(38)

    def ref_kron(x, y):
        return [[field.mul(xv, yv) for xv in xr for yv in yr] for xr in x for yr in y]

    overlaps = 0
    for _ in range(10):
        rows, cols = rng.randint(9, 11), rng.randint(9, 11)
        blocks, ref = [], _ref_zeros(field, rows, cols)
        hit = [[False] * cols for _ in range(rows)]
        for _ in range(4):
            n, kind = rng.randint(0, 3), rng.choice(["left", "right", "both"])
            x, y = (Mat.random(field, rng.randint(0, 3), rng.randint(0, 3), rng)
                    for _ in range(2))
            fx = Mat.identity(field, n) if kind == "left" else x
            fy = Mat.identity(field, n) if kind == "right" else y
            i = rng.randint(0, rows - fx.rows * fy.rows)
            j = rng.randint(0, cols - fx.cols * fy.cols)
            blocks.append((i, j, None if kind == "left" else x,
                           None if kind == "right" else y, n))
            for u, row in enumerate(ref_kron(fx.row_list(), fy.row_list())):
                for v, val in enumerate(row):
                    overlaps += hit[i + u][j + v]
                    hit[i + u][j + v] = True
                    ref[i + u][j + v] = field.add(ref[i + u][j + v], val)
        assert Mat.kron_assemble(field, rows, cols, blocks).row_list() == ref
        x, y = (Mat.random(field, rng.randint(0, 3), rng.randint(0, 3), rng) for _ in range(2))
        assert x.kron(y).row_list() == ref_kron(x.row_list(), y.row_list())
        n = rng.randint(0, 3)
        assert (Mat.kron_assemble(field, n * y.rows, n * y.cols, [(0, 0, y, None, n)])
                == y.kron(Mat.identity(field, n)))
        e, d = rng.randint(1, 4), rng.randint(1, 4)
        s, s2, g = (Mat.random(field, d, d, rng), Mat.random(field, e, e, rng),
                    Mat.random(field, e, d, rng))
        # the Sylvester operator g -> g s - s2 g on row-major vec(g)
        got = Mat.kron_assemble(field, e * d, e * d, [(0, 0, None, s.T, e), (0, 0, -s2, None, d)])
        assert got @ g.reshape(e * d, 1) == (g @ s - s2 @ g).reshape(e * d, 1)
    assert overlaps
    with pytest.raises(ShapeMismatchError):
        Mat.kron_assemble(field, 3, 3, [(1, 0, None, Mat.identity(field, 1), 3)])
    with pytest.raises(ShapeMismatchError):
        Mat.kron_assemble(field, 1, 1, [(0, 0, Mat.identity(Field.prime(5), 1), None, 1)])


@pytest.mark.parametrize("field", FIELDS)
def test_solve_matches_reference(field):
    # particular solutions set every free variable to zero, for one column and many
    rng = random.Random(37)
    for _ in range(30):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        a = _rand_rows(field, m, n, rng)
        if rng.random() < 0.5:
            a[-1] = list(a[0])
        b = _rand_rows(field, m, k, rng)
        if rng.random() < 0.5:
            b = _ref_matmul(field, a, _rand_rows(field, n, k, rng), n)
        rref, piv = _ref_rref(field, [ra + rb for ra, rb in zip(a, b)])
        ref = None
        if not piv or piv[-1] < n:
            ref = _ref_zeros(field, n, k)
            for r, pc in enumerate(piv):
                ref[pc] = rref[r][n:]
        got = Mat(field, m, n, a).solve_matrix(Mat(field, m, k, b))
        assert (got.row_list() if got is not None else None) == ref
        x = Mat(field, m, n, a).solve(Mat(field, m, 1, [row[:1] for row in b]))
        rref1, piv1 = _ref_rref(field, [ra + rb[:1] for ra, rb in zip(a, b)])
        assert (x is None) == bool(piv1 and piv1[-1] == n)
        if x is not None:
            assert x.T.row_list()[0] == [next((rref1[r][n] for r, pc in enumerate(piv1)
                                                if pc == j), field.zero) for j in range(n)]


def _check_kernel(a):
    got, ref = a.kernel(), reference_kernel(a)
    assert got.shape == ref.shape and got.row_list() == ref.row_list()
    assert (a @ got).is_zero()


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_matches_reference_on_support(field):
    rng = random.Random(f"kernel-support:{field!r}")
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = _sparse_rows(field, m, n, rng, rng.choice([0.3, 0.7, 1.0]))
        if m > 2:
            rows[1] = list(rows[0])          # rank deficient
        for i in rng.sample(range(m), rng.randint(1, m)):
            rows[i] = [field.zero] * n
        zero_cols = rng.sample(range(n), rng.randint(1, n))
        rows = [[field.zero if j in zero_cols else x for j, x in enumerate(r)] for r in rows]
        _check_kernel(Mat(field, m, n, rows))
    for m, n in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        _check_kernel(Mat.zeros(field, m, n))
    for m, n in [(1, 1), (3, 5), (5, 3), (4, 4)]:
        full = Mat(field, m, n, [[field.random_nonzero(rng) for _ in range(n)]
                                 for _ in range(m)])
        assert _on_support(full._entries)[0] is full._entries
        _check_kernel(full)


@given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([0.15, 0.5, 1.0]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_drawn_matrices(field, m, n, density, seed):
    rng = random.Random(seed)
    rows = _sparse_rows(field, m, n, rng, density)
    if m > 1:
        rows[-1] = rows[0]
    _check_kernel(Mat(field, m, n, rows))


def test_kernel_matches_reference_on_certify_systems(monkeypatch):
    kernel = Mat.kernel
    seen = {"calls": 0, "with_zero_lines": 0}

    def checked(a):
        got = kernel(a)
        ref = reference_kernel(a)
        assert got.shape == ref.shape and got.row_list() == ref.row_list()
        seen["calls"] += 1
        seen["with_zero_lines"] += _on_support(a._entries)[0].shape != a.shape
        return got

    monkeypatch.setattr(Mat, "kernel", checked)
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=1,
                            max_dim=1, seed=0, pushdown_samples=1)
    assert code == 0, out
    assert seen["with_zero_lines"] >= 4 and seen["calls"] > seen["with_zero_lines"]


@pytest.mark.parametrize("field", [F101, QQ], ids=str)
def test_constructor_checks_the_shape(field):
    # one constructor for both fields: data of another shape is refused,
    # never refilled in row-major order or broadcast
    for rows, cols, data in ((2, 3, [[1, 2], [3, 4], [5, 6]]), (2, 3, [[1, 2, 3]]),
                             (1, 6, [1, 2, 3, 4, 5, 6])):
        with pytest.raises(ShapeMismatchError):
            Mat(field, rows, cols, data)
    with pytest.raises(ValueError):
        Mat(field, 2, 2, [[1, 2], [3]])
    assert Mat(field, 0, 3, []).shape == (0, 3)
    assert Mat(field, 2, 0, [[], []]).shape == (2, 0)


def test_entries_read_out_as_field_scalars():
    q = Mat.from_rows(QQ, [[1, Fraction(1, 2)], [0, -3]])
    assert all(type(x) is Fraction for row in q.row_list() for x in row)
    assert type(q.entry(0, 1)) is Fraction and type(q.trace()) is Fraction
    assert all(type(x) is Fraction for x in q.T.row_list()[1])
    f = Mat.from_rows(F101, [[1, -1], [0, 3]])
    assert f.row_list() == [[1, 100], [0, 3]]
    assert all(type(x) is int for row in f.row_list() for x in row)
    assert type(f.entry(0, 1)) is int and type(f.trace()) is int


@pytest.mark.parametrize("field", FIELDS)
def test_equal_matrices_hash_equal(field):
    rng = random.Random(38)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(0, 4)
        a = Mat(field, m, n, _rand_rows(field, m, n, rng))
        # the same entries reached through other operations
        same = [a.T.T, a + Mat.zeros(field, m, n), a.scaled(2).scaled(field.inv(2)),
                Mat.from_rows(field, a.row_list()), a.reshape(n, m).reshape(m, n)]
        for b in same:
            assert b == a and hash(b) == hash(a)
    assert hash(Mat.from_rows(QQ, [[Fraction(2, 4)]])) == hash(Mat.from_rows(QQ, [["1/2"]]))


@pytest.mark.parametrize("field", FIELDS)
def test_trace_form_matches_reference(field):
    rng = random.Random(39)
    for _ in range(25):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        lefts = [Mat(field, n, m, _sparse_rows(field, n, m, rng)) for _ in range(rng.randint(1, 4))]
        rights = [Mat(field, m, n, _sparse_rows(field, m, n, rng)) for _ in range(rng.randint(1, 4))]
        got = trace_form(lefts, rights)
        assert got.shape == (len(lefts), len(rights))
        assert got.row_list() == reference_trace_pairing(lefts, rights)
    with pytest.raises(ShapeMismatchError):
        trace_form([Mat.zeros(field, 2, 3)], [Mat.zeros(field, 2, 3)])


def _sparse_rows(field, m, n, rng, density=0.5):
    """Random rows where about ``1 - density`` of the entries are zero."""
    return [[field.random_scalar(rng) if rng.random() < density else field.zero
             for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("p", [101, 7])
def test_prime_field_results_are_rational_results_mod_p(p):
    # every operation on integer matrices commutes with reduction mod p, and
    # reduction can only lower the rank
    fp = Field.prime(p)
    rng = random.Random(f"fp-vs-q:{p}")

    def pair(rows, cols, rank=None):
        if rank is not None and rows and cols:
            a, _ = pair(rows, rank)
            b, _ = pair(rank, cols)
            ints = (a @ b).row_list()
        else:
            ints = [[rng.randint(-30, 30) if rng.random() < 0.6 else 0
                     for _ in range(cols)] for _ in range(rows)]
        return Mat(QQ, rows, cols, ints), Mat(fp, rows, cols, ints)

    def agree(q, f):
        assert Mat(fp, q.rows, q.cols, [[fp.coerce(x) for x in r] for r in q.row_list()]) == f
        assert f.rank() <= q.rank()

    drops = 0
    for _ in range(40):
        m, n, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        (aq, af), (bq, bf) = pair(m, n, rng.randint(0, 3)), pair(m, n)
        cq, cf = pair(n, k)
        c = rng.randint(-20, 20)
        agree(aq, af)
        drops += af.rank() < aq.rank()
        agree(aq + bq, af + bf)
        agree(aq.scaled(c), af.scaled(c))
        agree(aq @ cq, af @ cf)
        agree(aq.kron(cq), af.kron(cf))
        agree(aq.T, af.T)
        agree(aq.reshape(n, m), af.reshape(n, m))
        ri = sorted(rng.sample(range(m), rng.randint(0, m)))
        ci = sorted(rng.sample(range(n), rng.randint(0, n)))
        agree(aq.submatrix(ri, ci), af.submatrix(ri, ci))
        i, j = rng.randint(0, m), rng.randint(0, n)
        dq, df = pair(m - i, n - j)
        agree(Mat.assemble(QQ, m, n, [(0, 0, aq), (i, j, dq)]),
              Mat.assemble(fp, m, n, [(0, 0, af), (i, j, df)]))
        agree(Mat.hcat(QQ, m, [aq, bq]), Mat.hcat(fp, m, [af, bf]))
        agree(Mat.vcat(QQ, n, [aq, bq]), Mat.vcat(fp, n, [af, bf]))
        coeffs = [rng.randint(-9, 9) for _ in range(3)]
        agree(Mat.lincomb(QQ, m, n, coeffs, [aq, bq, aq]),
              Mat.lincomb(fp, m, n, coeffs, [af, bf, af]))
        sq, sf = pair(n, n)
        assert fp.coerce(sq.trace()) == sf.trace()
        e, d = rng.randint(1, 4), rng.randint(1, 4)
        params = [pair(e, d) for _ in range(rng.randint(1, 3))]
        pairs = [(pair(d, d), pair(e, e)) for _ in range(rng.randint(1, 2))]
        agree(intertwiner_system([g for g, _ in params], [(s[0], s2[0]) for s, s2 in pairs]),
              intertwiner_system([g for _, g in params], [(s[1], s2[1]) for s, s2 in pairs]))
        lefts = [pair(e, d) for _ in range(rng.randint(1, 3))]
        rights = [pair(d, e) for _ in range(rng.randint(1, 3))]
        agree(trace_form([x for x, _ in lefts], [y for y, _ in rights]),
              trace_form([x for _, x in lefts], [y for _, y in rights]))
    if p == 7:
        assert drops   # some reductions mod 7 lost rank, so the bound was exercised


# ---------------------------------------------------------------------------
# rational kernels against the Fraction-per-entry references
# ---------------------------------------------------------------------------

def _qq_rows(rng, m, n, kind):
    """Seeded m x n rows, about 40% zeros; the other entries are small
    integers, fractions with denominators up to 12, or numerators up to 10**30."""
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        if kind == "integers":
            return Fraction(rng.randint(-9, 9))
        if kind == "fractions":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 3))
    return [[entry() for _ in range(n)] for _ in range(m)]


def _qq_array(m, n, rows):
    return np.array(rows, dtype=object).reshape(m, n)


def _qq_cases():
    """``(m, n, rows)``: empty, 1 x n, n x 1, tall, wide and square shapes of
    each entry kind, the last three also as a rank-deficient product with two
    all-zero rows inserted, and an all-zero matrix."""
    rng = random.Random("qq-kernels")
    cases = [(4, 5, [[Fraction(0)] * 5 for _ in range(4)])]
    for m, n in [(0, 0), (0, 3), (3, 0), (1, 6), (6, 1), (9, 4), (4, 9), (6, 6)]:
        for kind in ("integers", "fractions", "large"):
            cases.append((m, n, _qq_rows(rng, m, n, kind)))
            if m > 1 and n > 1:
                r = rng.randint(1, min(m, n) - 1)
                low = reference_matmul_qq(_qq_array(m, r, _qq_rows(rng, m, r, kind)),
                                          _qq_array(r, n, _qq_rows(rng, r, n, kind)))
                for _ in range(2):
                    low.insert(rng.randint(0, len(low)), [Fraction(0)] * n)
                cases.append((m + 2, n, low))
    return cases


def _check_echelon_qq(rows):
    got = _echelon_qq(rows)
    assert got == reference_echelon_qq(rows)
    assert all(type(x) is Fraction for row in got[0] for x in row)
    return got[1]


def _check_matmul_qq(a, b):
    got = QQ._kernel.matmul(a, b)
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == reference_matmul_qq(a, b)
    assert all(type(x) is Fraction for x in got.ravel())


def test_echelon_qq_matches_fraction_reference():
    deficient = 0
    for m, n, rows in _qq_cases():
        piv = _check_echelon_qq(rows)
        deficient += len(piv) < min(m, n)
    assert deficient >= 10


def test_rational_product_matches_fraction_reference():
    rng = random.Random("qq-product")
    for m, k, rows in _qq_cases():
        a = _qq_array(m, k, rows)
        for n in (0, 1, rng.randint(2, 7)):
            kind = rng.choice(["integers", "fractions", "large"])
            _check_matmul_qq(a, _qq_array(k, n, _qq_rows(rng, k, n, kind)))


_QQ_ENTRY = st.one_of(st.just(Fraction(0)),
                      st.fractions(-10 ** 12, 10 ** 12, max_denominator=40))


@given(st.data(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_rational_kernels_match_references_on_drawn_matrices(data, m, n, k):
    def draw(rows, cols):
        return data.draw(st.lists(st.lists(_QQ_ENTRY, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))
    rows = draw(m, n)
    # a repeated row makes the rank deficient
    if m > 1:
        rows[-1] = rows[0]
    _check_echelon_qq(rows)
    _check_matmul_qq(_qq_array(m, n, rows), _qq_array(n, k, draw(n, k)))
