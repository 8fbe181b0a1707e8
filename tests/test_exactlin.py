import contextlib
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (F101, certify_images, field_add, fixture_text, intertwiner_system,
                      jordan_shift, k3_witness_image, mat_trace,
                      nilpotency_index, QQ, random_nonzero, reference_all_nilpotent,
                      reference_assemble, reference_dense_null_basis, reference_echelon_fp,
                      reference_echelon_qq, reference_on_support, reference_peel_unit_rows,
                      reference_find_invertible_in_span, reference_hom_pencil,
                      reference_jordan_nilpotent, reference_kernel, reference_matmul_fp, span_of,
                      reference_matmul_qq, reference_trace_pairing, _reference_poly_divmod,
                      _reference_poly_gcdext, _reference_poly_mul)

import wildrank.exactlin as exactlin_module

import wildrank.rep as rep_module
from wildrank.cli import cmd_certify, cmd_classify
from wildrank.exactlin import (Field, Mat, ShapeMismatchError, Span, _zeros, all_nilpotent,
                               find_invertible_in_span, jordan_nilpotent, nilpotent_hom_basis,
                               trace_form, trace_radical,
                               _echelon_qq, _is_prime, _jordan_frame,
                               _poly_divmod, _poly_gcdex, _poly_mul)
from wildrank.quiver import build_algebra_table, k3_bound_quiver
from wildrank.rep import hom_space


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
        assert _is_prime(2 ** 53 - 111)


def test_prime_field_refuses_inexact_residues():
    # eliminations and products are proved exact only below the cap 2**24;
    # 16777213 is the largest prime below it, 16777259 the least above it,
    # and 2**31 - 1 and 2**53 + 5 are prime too
    assert Field.prime(16777213).char == 16777213
    for p in (16777259, 2 ** 31 - 1, 2 ** 53 + 5, 2 ** 61 - 1, 10 ** 18 + 3):
        with at_once(), pytest.raises(ValueError, match="below 2\\*\\*24"):
            Field.prime(p)
    with at_once():
        for p in (16777259, 2 ** 53 + 5, 10 ** 18 + 3):
            out, code = cmd_classify(f"quiver big\nfield Fp {p}\nvertex 1 2\narrow a: 1 -> 2\n")
            assert code == 2 and out.startswith("error: line 2") and "2**24" in out


def test_field_scalar_ops():
    f = Field.prime(7)
    assert f.coerce(Fraction(1, 2)) == 4          # 1/2 = 4 mod 7
    assert f.inv(3) == 5
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_inverse_reads_what_coerce_reads():
    # a numpy integer, an integral float, a string and a fraction are
    # scalars to ``coerce``, so ``inv`` takes them too
    for x in (5, np.int64(5), 5.0, "5", Fraction(10, 2)):
        assert F101.inv(x) == 81 and QQ.inv(x) == Fraction(1, 5)      # 5 * 81 = 4 * 101 + 1
    assert F101.inv(3.0) == F101.inv(3) == 34
    assert F101.inv("2/3") == F101.coerce(Fraction(3, 2)) == 52
    assert F101.inv(np.int64(-1)) == 100 and F101.inv(Fraction(-7, 3)) == F101.coerce("-3/7")
    assert QQ.inv("2/3") == Fraction(3, 2) and QQ.inv(np.int64(-4)) == Fraction(-1, 4)
    for field in (F101, QQ):
        for zero in (0, np.int64(0), 0.0, "0", Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                field.inv(zero)
    with pytest.raises(ZeroDivisionError):
        F101.inv(np.int64(202))


@pytest.mark.parametrize("p", [5, 101, 131071, 16777213])
def test_residues_match_python_int_mod(p):
    # the one reduction mod p, on integer values below 2**53 in absolute
    # value: both signs, the edges of that envelope, multiples of p and one
    # below them, and a negative zero
    fk = Field.prime(p)._kernel
    rng = random.Random(f"residues:{p}")
    top = 2 ** 53 - 1
    k = top // p
    edge = [top, -top, k * p, -k * p, k * p - 1, -(k * p - 1), p, -p, p - 1, 1 - p, 1, -1, 0]
    drawn = [rng.choice([-1, 1]) * rng.randrange(bound) for bound in (p, p * p, 2 ** 40, top)
             for _ in range(60)]
    values = edge + drawn + [0] * ((-len(edge) - len(drawn)) % 4)
    arr = np.array(values, dtype=np.float64).reshape(4, -1)
    arr[0, -1] = -0.0
    assert np.signbit(arr).any()

    def check(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.astype(np.int64).tolist() == want.tolist()
        assert not np.signbit(got).any() and ((0 <= got) & (got < p)).all()

    want = np.array([[x % p for x in row] for row in arr.astype(np.int64).tolist()], dtype=object)
    # a contiguous array, a strided view and a transpose
    for a, ref in ((arr, want), (arr[1:, ::3], want[1:, ::3]), (arr.T, want.T)):
        check(exactlin_module._residues(a, p), ref)
        check(fk.normalize(a), ref)
        # in place, as ``reduce`` reduces a fresh product in its own array
        own = a.copy()
        assert fk.reduce(own) is own
        check(own, ref)
    # products with every entry p - 1 whose inner dimension is above
    # ``chunk`` (32 at p = 16777213), and one of exactly ``chunk`` terms
    # where it is small, reduced only by ``normalize``
    for inner in (min(fk.chunk, 64), 100):
        x, y = [[p - 1] * inner] * 3, [[p - 1] * 2] * inner
        got = fk.normalize(fk.matmul(np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)))
        check(got, np.array(reference_matmul_fp(x, y, p), dtype=object))
        # two stacks of 4: the chunks cut the contraction axis, not the
        # stack's first axis, slice by slice as for one product
        xs = np.array([np.array(x) - i for i in range(4)], dtype=np.float64)
        ys = np.array([np.array(y) - 2 * i for i in range(4)], dtype=np.float64)
        got = fk.reduce(fk.matmul(xs, ys))
        for i in range(4):
            ref = reference_matmul_fp(xs[i].astype(np.int64).tolist(),
                                      ys[i].astype(np.int64).tolist(), p)
            check(got[i], np.array(ref, dtype=object))
    # object arrays from ``asarray``: integers beyond 2**53 and fractions
    data = [[2 ** 60 + 1, Fraction(1, 2), -(2 ** 60 + 1)], [Fraction(-7, 3), 2 ** 100, -1]]
    obj = fk.asarray(data)
    assert obj.dtype == object
    ref = np.array([[fk.coerce(x) for x in row] for row in data], dtype=object)
    check(fk.normalize(obj), ref)
    check(exactlin_module._residues(obj, p), ref)
    assert ref[0, 1] == (p + 1) // 2 and ref[0, 0] == (2 ** 60 + 1) % p


@pytest.mark.parametrize("p", [101, 16777213])
def test_constructor_reduces_big_ints_exactly(p):
    # float64 rounds an int beyond 2**53 (2**60 + 1 became 87 mod 101, not 88)
    f = Field.prime(p)
    for x in (2 ** 60 + 1, -(2 ** 60 + 1), 2 ** 100):
        m = Mat(f, 1, 2, [[x, 1]])
        assert m == Mat.from_rows(f, [[x, 1]])
        assert m.entry(0, 0) == x % p


@pytest.mark.parametrize("p", [101, 16777213])
def test_constructor_reduces_fractions_exactly(p):
    # a Fraction must be reduced, not stored as a float: diag(0.5, 1) has
    # rank 2, but its square and its "inverse" both read out as diag(0, 1)
    f = Field.prime(p)
    half = Mat(f, 2, 2, [[Fraction(1, 2), 0], [0, 1]])
    assert half == Mat.from_rows(f, [[Fraction(1, 2), 0], [0, 1]])
    assert half.entry(0, 0) == (p + 1) // 2
    assert half @ half == Mat.from_rows(f, [[Fraction(1, 4), 0], [0, 1]])
    assert half.inverse() == Mat.from_rows(f, [[2, 0], [0, 1]])
    data = [[Fraction(-7, 3), 1.5, "2/3"], [Fraction(5), -0.25, 2 ** 60 + 1]]
    assert Mat(f, 2, 3, data) == Mat.from_rows(f, data)
    assert Mat(f, 2, 3, data).row_list() == [[f.coerce(x) for x in row] for row in data]
    assert f.coerce("2/3") == f.coerce(Fraction(2, 3)) and f.coerce(1.5) == f.coerce(Fraction(3, 2))
    for bad in ([[Fraction(1, p)]], [[Fraction(3, 2 * p)]]):
        with pytest.raises(ZeroDivisionError):
            Mat(f, 1, 1, bad)
        with pytest.raises(ZeroDivisionError):
            Mat.from_rows(f, bad)
    # float64 arrays of residues are taken as they are
    arr = np.array([[3.0, p - 1.0]])
    assert Mat(f, 1, 2, arr) == Mat.from_rows(f, [[3, -1]])


@pytest.mark.parametrize("p", [101, 16777213])
def test_constructor_reads_float64_off_the_envelope_exactly(p):
    # a float64 array is taken as it is only when its values are integers
    # below 2**53 in absolute value; other finite values are read exactly
    # through ``coerce`` (1e20 read 11 mod 101 and 0.5 read 0 when they were
    # taken on trust), and a nan or an infinity is refused
    f = Field.prime(p)
    edge = 2.0 ** 53
    for v in (1e20, -1e20, 0.5, -0.5, 1.5, edge, -edge, edge - 1, 1 - edge, 1e300):
        m = Mat(f, 1, 2, np.array([[v, 1.0]]))
        assert m.entry(0, 0) == f.coerce(Fraction(v)) and m.entry(0, 1) == 1
        assert m == Mat.from_rows(f, [[Fraction(v), 1]])
    assert Mat(f, 1, 1, np.array([[1e20]])).entry(0, 0) == 10 ** 20 % p
    assert Mat(f, 1, 1, np.array([[0.5]])).entry(0, 0) == (p + 1) // 2
    assert Mat(f, 1, 1, np.array([[edge]])).entry(0, 0) == 2 ** 53 % p
    assert Mat(f, 1, 1, np.array([[-edge]])).entry(0, 0) == -(2 ** 53) % p
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Mat(f, 1, 2, np.array([[1.0, bad]]))


def test_no_float64_array_reaches_the_public_constructor_from_src(monkeypatch):
    # the operations that had a float64 array in hand (sum, scaling,
    # product, solution, trace form, Hom conditions) build their results
    # with the private constructor, after the kernel's reduction, and so
    # does the certify pipeline
    rng = random.Random("float64-sites")
    a, b = (Mat.random(F101, 3, 3, rng) for _ in range(2))
    s = Mat.from_rows(F101, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    init, seen = Mat.__init__, []

    def spy(self, field, rows, cols, data):
        seen.append(isinstance(data, np.ndarray) and data.dtype == np.float64)
        init(self, field, rows, cols, data)

    monkeypatch.setattr(Mat, "__init__", spy)
    a + b, a - b, a.scaled(5), -a, a @ b, trace_form(span_of([a, b]), span_of([b]))
    a.solve_matrix(a @ b), nilpotent_hom_basis(s, s, [(a @ s @ a.inverse(), a @ s @ a.inverse())])
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=1,
                            max_dim=1, seed=0, pushdown_samples=1)
    assert code == 0, out
    assert not any(seen)
    Mat(F101, 1, 1, np.array([[1.0]]))
    assert seen[-1]


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
    coeffs, combo = find_invertible_in_span(span_of([ident]), 4, seed=0)
    assert combo.is_invertible() and coeffs == [1]
    nil = Mat.from_rows(F101, [[0, 1], [0, 0]])
    assert find_invertible_in_span(span_of([nil]), 16, seed=0) is None
    e11 = Mat.from_rows(QQ, [[1, 0], [0, 0]])
    e22 = Mat.from_rows(QQ, [[0, 0], [0, 1]])
    coeffs, combo = find_invertible_in_span(span_of([e11, e22]), 16, seed=0)
    assert combo.is_invertible()
    assert all(c != 0 for c in coeffs)
    assert find_invertible_in_span(Span(F101, 2, 2, []), 4, seed=1) is None
    with pytest.raises(ShapeMismatchError):
        find_invertible_in_span(span_of([Mat.zeros(F101, 2, 3)]), 4, seed=0)
    with pytest.raises(ValueError):
        find_invertible_in_span(span_of([ident]), 0, seed=0)


def test_find_invertible_deterministic():
    rng = random.Random(9)
    span = span_of([Mat.random(F101, 3, 3, rng) for _ in range(3)])
    a = find_invertible_in_span(span, 8, seed=123)
    b = find_invertible_in_span(span, 8, seed=123)
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
            got = find_invertible_in_span(span_of(basis), 8, seed)
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
    for m, want in ((Mat.zeros(F101, 3, 3), True), (Mat.identity(F101, 2), False), (j, True)):
        assert all_nilpotent(Span(m.field, m.rows, m.cols, [m])) is want


@pytest.mark.parametrize("p", [5, 101, 16777213])
def test_nilpotency_reduces_the_squares_still_live(p):
    # [[1, 1], [p - 1, p - 1]] squares to [[p, p], [p(p - 1), p(p - 1)]]:
    # zero mod p, but not before the reduction, so it must be reduced to read
    # as nilpotent; next to it a slice whose square is an exact zero and a
    # non-nilpotent one, alone and in 4 x 4 corners (two squarings)
    fp = Field.prime(p)
    lazy = Mat.from_rows(fp, [[1, 1], [p - 1, p - 1]])
    exact = Mat.from_rows(fp, [[0, 1], [0, 0]])
    unipotent = Mat.from_rows(fp, [[1, 1], [0, 1]])
    assert (lazy @ lazy).is_zero() and lazy._entries.max() == p - 1
    for size in (2, 4):
        lz, ex, un = (Mat.assemble(fp, size, size, [(0, 0, x)]) for x in (lazy, exact, unipotent))
        assert lz.is_nilpotent() and ex.is_nilpotent() and not un.is_nilpotent()
        assert all_nilpotent(Span(fp, size, size, [lz, ex]))
        assert all_nilpotent(Span(fp, size, size, [ex, lz, ex]))
        assert not all_nilpotent(Span(fp, size, size, [lz, ex, un]))
        assert all_nilpotent(Span(fp, size, size, [lz, un]), Mat.column(fp, [1, 0]))


NILPOTENCY_KINDS = ["upper", "jordan", "full", "partial", "not nilpotent", "multiple of p"]


def _nilpotency_slice(field, n, kind, rng):
    """One n x n slice for the stacked nilpotency test, entries mostly
    +-(p - 1) over F_p: strictly upper triangular (nilpotent, and its inner
    set, the indices that are a nonzero row and a nonzero column, is not
    empty once n > 2); Jordan blocks conjugated by a random invertible
    matrix (nilpotent, support mostly full); every entry nonzero; strictly
    upper triangular on random rows by random columns (a partial inner
    set); upper triangular with a nonzero diagonal entry (not nilpotent);
    and [[1, 1], [p - 1, p - 1]] on two random indices, whose unreduced
    square is a nonzero multiple of p ([[1, 1], [-1, -1]] over Q)."""
    big = field.coerce(-1)

    def entry():
        return rng.choice([big, field.one, field.random_scalar(rng)])

    rows = [[field.zero] * n for _ in range(n)]
    if kind == "jordan":
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        return _conjugate(field, jordan_shift(field, sizes), rng)
    if kind == "multiple of p":
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i][i] = rows[i][j] = field.one
            rows[j][i] = rows[j][j] = big
        return Mat.from_rows(field, rows)
    on_rows, on_cols = set(range(n)), set(range(n))
    if kind == "partial":
        on_rows, on_cols = (set(rng.sample(range(n), rng.randint(1, n))) for _ in range(2))
    for i in range(n):
        for j in range(n):
            if kind == "full" or (j > i and i in on_rows and j in on_cols):
                rows[i][j] = entry() if kind == "full" else rng.choice([entry(), field.zero])
    if kind == "not nilpotent":
        k = rng.randrange(n)
        rows[k][k] = rng.choice([big, field.one])
    return Mat.from_rows(field, rows)


@given(st.sampled_from([Field.prime(5), F101, Field.prime(16777213), QQ]), st.integers(1, 7),
       st.lists(st.sampled_from(NILPOTENCY_KINDS), min_size=1, max_size=6),
       st.integers(0, 10 ** 6))
@example(Field.prime(5), 4, ["multiple of p", "upper", "partial"], 0)
@example(F101, 6, ["jordan", "not nilpotent", "upper"], 1)
@example(Field.prime(16777213), 7, ["partial", "partial", "jordan"], 2)
@settings(max_examples=150, deadline=None)
def test_nilpotent_stack_matches_repeated_squaring(field, n, kinds, seed):
    """``_nilpotent_stack``, which stops when a stack has no inner index,
    against squaring each matrix on its own, whole, on stacks that mix
    nilpotent slices (strictly upper triangular, conjugated Jordan blocks,
    a partial inner set, an unreduced square that is a multiple of p) with
    full and non-nilpotent ones."""
    rng = random.Random(seed)
    mats = [_nilpotency_slice(field, n, kind, rng) for kind in kinds]
    want = reference_all_nilpotent(mats)
    if "not nilpotent" in kinds:
        assert not want
    elif "full" not in kinds:
        assert want
    stack = np.stack([m._entries for m in mats])
    assert exactlin_module._nilpotent_stack(field._kernel, stack) == want
    assert all_nilpotent(span_of(mats)) == want
    assert [m.is_nilpotent() for m in mats] == [reference_all_nilpotent([m]) for m in mats]


def test_nilpotent_stack_stops_with_no_inner_index(monkeypatch):
    # strictly upper triangular on rows {0, 1, 2} by columns {2, 3, 4}:
    # index 2 is a nonzero row and a nonzero column, so the stack is
    # squared, whole, and the square, on rows {0, 1} by columns {3, 4}, has
    # no such index: nilpotent with no second product.  Matrix units from
    # rows {0, 1} to columns {2, 3, 4} have none either, however many are
    # stacked, and need no product at all
    products = []
    matmul = exactlin_module._PrimeKernel.matmul
    monkeypatch.setattr(exactlin_module._PrimeKernel, "matmul",
                        lambda self, a, b: products.append((a.shape, b.shape))
                        or matmul(self, a, b))
    x = Mat.from_rows(F101, [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 100, 100],
                             [0] * 5, [0] * 5])
    assert x.is_nilpotent() and products == [((1, 5, 5), (1, 5, 5))]
    products.clear()
    units = [Mat.unit(F101, 5, 5, i, j) for i in (0, 1) for j in (2, 3, 4)]
    assert all_nilpotent(span_of(units)) and not products
    # next to them a diagonal unit, idempotent: three squarings, whole
    assert not all_nilpotent(span_of(units + [Mat.unit(F101, 5, 5, 3, 3)]))
    assert products == [((7, 5, 5), (7, 5, 5))] * 3


def _conjugate(field, s, rng):
    """g s g^-1 for a seeded random invertible g."""
    while True:
        g = Mat.random(field, s.rows, s.rows, rng)
        if g.is_invertible():
            return g @ s @ g.inverse()


@pytest.mark.parametrize("field, n", [(F101, 5), (Field.prime(7), 9), (QQ, 6),
                                      (Field.prime(16777213), 40)], ids=str)
def test_all_nilpotent_matches_per_element_index(field, n):
    # the stacked squaring against one power at a time: J_n(0), whose index
    # is exactly n (n = 5, 9 and 40 lie just above a power of two, where one
    # squaring too few still sees a nonzero power), index n - 1, zero slices,
    # non-nilpotent slices alone and among nilpotent ones, and combinations;
    # over Q the conjugates have denominators, and at p = 16777213 every
    # product of 40 x 40 slices is chunked (``chunk`` = 32)
    rng = random.Random(f"all-nilpotent:{field}:{n}")
    j_n = jordan_shift(field, [n])
    j_short = jordan_shift(field, [n - 1, 1])
    cycle = j_n + Mat.unit(field, n, n, n - 1, 0)        # a permutation matrix
    zero = Mat.zeros(field, n, n)
    mats = [_conjugate(field, x, rng) for x in (j_n, j_short, cycle)] + [zero, j_n]
    if field == QQ:
        mats.append(mats[0].scaled(Fraction(1, 3)))
        assert any(y.denominator > 1 for x in mats for row in x.row_list() for y in row)
    span = Span(field, n, n, mats)
    want_index = [n, n - 1, None, 1, n] + ([n] if field == QQ else [])
    assert [nilpotency_index(x) for x in mats] == want_index
    k = len(mats)

    def columns(*cols):
        return Mat(field, k, len(cols), [list(row) for row in zip(*cols)])

    def unit(i):
        return [1 if j == i else 0 for j in range(k)]

    nil = [i for i, w in enumerate(want_index) if w is not None]
    cases = [columns(*(unit(i) for i in nil)), columns(unit(0)), columns(unit(1)),
             columns(unit(2)), columns(unit(3)), columns(unit(3), unit(3)),
             columns(unit(3), unit(2), unit(0)), Mat.zeros(field, k, 0),
             # J_n + (its conjugate) is not nilpotent in general; 2 J_n and
             # J_n - J_n (zero) are
             columns([0, 0, 0, 0, 2] + [0] * (k - 5), unit(0), [0] * k),
             columns(unit(0), [1, 0, 0, 0, 1] + [0] * (k - 5))]
    for coeffs in cases:
        combos = span.combine(coeffs)
        want = all(nilpotency_index(x) is not None for x in combos)
        assert all_nilpotent(span, coeffs) is want, coeffs
    # with no coefficients, the span's own matrices, alone and together
    for i, x in enumerate(mats):
        assert all_nilpotent(Span(field, n, n, [x])) is (want_index[i] is not None)
        assert x.is_nilpotent() is (want_index[i] is not None)
    # a 1 x 1 matrix is nilpotent exactly when it is zero
    assert Mat.zeros(field, 1, 1).is_nilpotent() and not Mat.identity(field, 1).is_nilpotent()
    assert Mat.zeros(field, 0, 0).is_nilpotent()
    with pytest.raises(ShapeMismatchError):
        Mat.zeros(field, 2, 3).is_nilpotent()
    assert not all_nilpotent(span)
    assert all_nilpotent(Span(field, n, n, [x for x, w in zip(mats, want_index) if w]))
    assert all_nilpotent(span, cases[0]) and not all_nilpotent(span, cases[3])
    with pytest.raises(ShapeMismatchError):
        all_nilpotent(Span(field, 2, 3, []), Mat.zeros(field, 0, 1))


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
        basis = mapped_hom_basis(s, t)
        for g in basis:
            assert g @ s == t @ g
        big = s.T.kron(Mat.identity(field, n2)) - Mat.identity(field, n1).kron(t)
        assert big.kernel().cols == len(basis)


def _random_invertible(field, n, rng):
    while True:
        g = Mat.random(field, n, n, rng)
        if g.is_invertible():
            return g


def mapped_hom_basis(s, s_target, rest=()):
    """``nilpotent_hom_basis`` mapped back to the original coordinates: each
    h in Jordan coordinates as P_t h P_s^-1."""
    hs, p_t, p_s_inv = nilpotent_hom_basis(s, s_target, rest)
    return [p_t @ h @ p_s_inv for h in hs.mats]


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


@pytest.mark.parametrize("field", [F101, Field.prime(7), Field.prime(5), QQ,
                                   Field.prime(16777213)], ids=repr)
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
        got = mapped_hom_basis(s, sp, rest)
        assert got == reference_hom_pencil(field, e, d, [(s, sp)] + rest), trial
        assert all(x @ y == y2 @ x for x in got for y, y2 in [(s, sp)] + rest)
        if trial % 6 != 5:
            assert got
        seen.add((len(rest), e == d))
    assert {0, 1, 2, 3} <= {n for n, _ in seen} and {sq for _, sq in seen} == {True, False}


@pytest.mark.parametrize("field", [Field.prime(16777213), F101], ids=repr)
def test_nilpotent_hom_basis_with_chunked_map_back_matches_reference(field):
    # d, e > 32: at p = 16777213 (``chunk`` = 32) both products of the map
    # back, P_t over the e rows and P_s^-1 over the d columns, are chunked
    rng = random.Random(f"jordan-chunks:{field!r}")
    for sizes, extra, pairs in (([12, 11, 11], 2, 1), ([17, 9, 7, 1], 0, 0), ([33], 1, 2)):
        d = sum(sizes)
        e = d + extra
        assert min(d, e) > 32
        g = _random_invertible(field, d, rng)
        s = g @ jordan_shift(field, sizes) @ g.inverse()
        p, q = _random_invertible(field, d, rng), _random_invertible(field, e, rng)
        sp = _conjugate_into(field, q, s, p, extra, rng, nilpotent=True)
        rest = []
        for _ in range(pairs):
            r = Mat.random(field, d, d, rng)
            rest.append((r, _conjugate_into(field, q, r, p, extra, rng, nilpotent=False)))
        got = mapped_hom_basis(s, sp, rest)
        assert got and got == reference_hom_pencil(field, e, d, [(s, sp)] + rest)
        assert all(x @ y == y2 @ x for x in got for y, y2 in [(s, sp)] + rest)
        for x in got:
            _assert_canonical(x)


def test_nilpotent_hom_basis_refuses_mixed_fields_and_shapes():
    # every matrix over one field: F101 against F7 used to come back over
    # F101 and F101 against Q to end in a TypeError
    s = jordan_shift(F101, [2, 1])
    for other in (jordan_shift(Field.prime(7), [2, 1]), jordan_shift(QQ, [2, 1])):
        for args in ((s, other), (other, s), (s, s, [(s, other)]), (s, s, [(other, s)]),
                     (s, s, [(s, s), (other, other)])):
            with pytest.raises(ShapeMismatchError):
                nilpotent_hom_basis(*args)
    # s and s_target square, each r like s and each r2 like s_target
    wide = Mat.zeros(F101, 3, 4)
    t = jordan_shift(F101, [2])
    for args in ((wide, s), (s, wide), (s, t, [(t, t)]), (s, t, [(s, s)]),
                 (s, t, [(s, t), (wide, t)])):
        with pytest.raises(ShapeMismatchError):
            nilpotent_hom_basis(*args)
    assert mapped_hom_basis(s, t, [(s, t)]) == reference_hom_pencil(F101, 2, 3, [(s, t), (s, t)])


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
    again = nilpotent_hom_basis(s, t)
    assert (again[0].mats, again[1:]) == (first[0].mats, first[1:]) and len(calls) == 2
    assert nilpotent_hom_basis(t, s, [(t, s)])[0].mats and len(calls) == 2
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
                out[i][j] = field_add(field, out[i][j], field.mul(row[k], b[k][j]))
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
                    ref[i + a][j + c] = field_add(field, ref[i + a][j + c], x)
        assert Mat.assemble(field, rows, cols, blocks).row_list() == ref
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            unit = _ref_zeros(field, rows, cols)
            unit[i][j] = field.one
            assert Mat.unit(field, rows, cols, i, j).row_list() == unit
    with pytest.raises(ShapeMismatchError):
        Mat.assemble(field, 2, 2, [(1, 1, Mat.identity(field, 2))])


@pytest.mark.parametrize("field", FIELDS)
def test_span_assemble_matches_one_assemble_per_matrix(field):
    # k matrices whose blocks sit at shared places, over Q with denominators
    # that differ between matrices and places: each matrix is the one
    # Mat.assemble builds, and the stack over its denominator holds them;
    # one block that fills the whole matrix is placed by sharing its stack
    rng = random.Random(f"span-assemble:{field}")
    for trial in range(12):
        k = rng.randint(0, 4)
        heights, widths = ([rng.randint(0, 3) for _ in range(3)] for _ in range(2))
        rows, cols = sum(heights) + rng.randint(0, 1), sum(widths)
        blocks = []
        for b, (h, w) in enumerate(zip(heights, widths)):
            mats = [Mat(field, h, w, _rand_rows(field, h, w, rng)) if h * w else
                    Mat.zeros(field, h, w) for _ in range(k)]
            if field == QQ:
                mats = [x.scaled(Fraction(1, rng.choice([1, 2, 6, 35]))) for x in mats]
            blocks.append((sum(heights[:b]), sum(widths[:b]), mats))
        spans = [(i, j, Span(field, heights[b], widths[b], mats))
                 for b, (i, j, mats) in enumerate(blocks)]
        span = Span.assemble(field, rows, cols, k, spans)
        want = [Mat.assemble(field, rows, cols, [(i, j, mats[x]) for i, j, mats in blocks])
                for x in range(k)]
        assert span.mats == want and (span.rows, span.cols) == (rows, cols)
        assert span.mats == reference_assemble(field, rows, cols, k, blocks).mats
        for x in span.mats:
            _assert_canonical(x)
        assert span.combine(Mat.identity(field, k)) == want
        assert not span._stack.flags.writeable
        whole = Span(field, rows, cols, want)
        alone = Span.assemble(field, rows, cols, k, [(0, 0, whole)])
        assert alone._stack is whole._stack and alone.mats == want
        assert list(alone._support) == [c for c in range(rows * cols)
                                        if any(x._entries.ravel()[c] for x in want)]
        # one block that leaves a row free is placed into a zeroed stack
        lower = Span.assemble(field, rows + 1, cols, k, [(1, 0, whole)])
        assert lower.mats == [Mat.assemble(field, rows + 1, cols, [(1, 0, x)]) for x in want]
        assert not np.shares_memory(lower._stack, whole._stack)
    one, two = Mat.identity(field, 1), Mat.identity(field, 2)
    other = Mat.identity(QQ if field.char else F101, 2)
    for count, blocks in ((2, [(0, 0, [two])]), (1, [(1, 1, [two])]), (2, [(0, 0, [two, one])]),
                          (1, [(0, 0, [one]), (1, 0, [one]), (0, 0, [one])]),
                          (1, [(0, 0, [other])])):
        with pytest.raises(ShapeMismatchError):
            Span.assemble(field, 2, 2, count,
                          [(r, c, Span(mats[0].field, *mats[0].shape, mats))
                           for r, c, mats in blocks])


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
                    ref[i][j] = field_add(field, ref[i][j], field.mul(c, b[i][j]))
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
                total = [[field_add(field, x, field.mul(c, y)) for x, y in zip(r1, r2)]
                         for r1, r2 in zip(total, p)]
            assert total == _ref_zeros(field, n, n)


@pytest.mark.parametrize("field", [F101, Field.prime(5), QQ], ids=str)
def test_polynomial_helpers_match_hand_written_references(field):
    rng = random.Random(f"poly:{field}")

    def poly(deg):
        return [field.random_scalar(rng) for _ in range(deg)] + [random_nonzero(field, rng)]

    gcds = 0
    for _ in range(150):
        a, b = poly(rng.randint(0, 8)), poly(rng.randint(0, 6))
        if rng.random() < 0.4:
            common = poly(rng.randint(1, 3))
            a, b = (_reference_poly_mul(field, common, x) for x in (a, b))
        assert _poly_mul(field, a, b) == _reference_poly_mul(field, a, b)
        assert _poly_divmod(field, a, b) == _reference_poly_divmod(field, a, b)
        assert _poly_gcdex(field, a, b) == _reference_poly_gcdext(field, a, b)
        gcds += len(_poly_gcdex(field, a, b)[0]) > 1
    assert gcds >= 40
    assert _poly_mul(field, [], poly(2)) == []


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
                    ref[i + u][j + v] = field_add(field, ref[i + u][j + v], val)
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


@contextlib.contextmanager
def _echelon_shapes():
    """The shapes of the arrays handed to ``_echelon_fp`` and ``_echelon_qq``
    while the block runs (no fixture: hypothesis tests use it too)."""
    shapes = []
    fp, qq = exactlin_module._echelon_fp, exactlin_module._echelon_qq
    exactlin_module._echelon_fp = lambda a, *args: shapes.append(a.shape) or fp(a, *args)
    exactlin_module._echelon_qq = lambda rows, *args: (
        shapes.append((len(rows), len(rows[0]) if rows else 0)) or qq(rows, *args))
    try:
        yield shapes
    finally:
        exactlin_module._echelon_fp, exactlin_module._echelon_qq = fp, qq


def _check_kernel(a):
    """``a.kernel()`` against the reference kernel and the dense front end,
    which must leave the echelon form the same rest: the rows and columns
    that the support and the weight-one cascade keep."""
    with _echelon_shapes() as shapes:
        got = a.kernel()
    ref = reference_kernel(a)
    assert got.shape == ref.shape and got.row_list() == ref.row_list()
    assert got == reference_dense_null_basis(a.field, a._entries)
    rest = reference_peel_unit_rows(*reference_on_support(a._entries))[0]
    assert shapes == ([rest.shape] if rest.shape[0] else [])
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
        full = Mat(field, m, n, [[random_nonzero(field, rng) for _ in range(n)]
                                 for _ in range(m)])
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


def _peeled(a):
    """The columns of ``a`` that the dense front end peels off before the
    echelon form; ``_check_kernel`` checks that ``Mat.kernel`` leaves the
    echelon form the same rest."""
    return set(reference_peel_unit_rows(*reference_on_support(a._entries))[2].tolist())


def _peelable(field, n, rng, units, chain, twins, zero_cols, dense):
    """An ``(a, columns)`` pair: ``a`` has ``units`` unit rows, a chain of
    ``chain`` weight-2 rows that turn into unit rows one drop after another,
    ``twins`` more unit rows on columns that have one already, ``zero_cols``
    zero columns and ``dense`` random rows on the other columns, with rows
    and columns shuffled; ``columns`` are those the unit rows and the chain
    pin, all of which the cascade must peel."""
    cols = list(range(n))
    rng.shuffle(cols)
    zero, live = cols[:zero_cols], cols[zero_cols:]
    rows, pinned = [], set()

    def row(entries):
        r = [field.zero] * n
        for j in entries:
            r[j] = random_nonzero(field, rng)
        rows.append(r)

    for j in rng.sample(live, min(units, len(live))):
        row([j])
        pinned.add(j)
    if chain and len(live) > chain:
        path = rng.sample(live, chain + 1)
        row([path[0]])
        for j0, j1 in zip(path, path[1:]):
            row([j0, j1])
        pinned.update(path)
    for _ in range(twins if pinned else 0):
        row([rng.choice(sorted(pinned))])
    for _ in range(dense):
        row([j for j in live if rng.random() < 0.6])
    rng.shuffle(rows)
    assert all(r[j] == field.zero for r in rows for j in zero)
    return Mat(field, len(rows), n, rows) if rows else Mat.zeros(field, 0, n), pinned


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_cascade_matches_reference(field):
    rng = random.Random(f"cascade:{field!r}")
    fired = 0
    for trial in range(60):
        n = rng.randint(2, 12)
        a, pinned = _peelable(field, n, rng, units=rng.randint(0, 3), chain=rng.randint(0, 4),
                              twins=rng.randint(0, 2), zero_cols=rng.randint(0, 2),
                              dense=rng.randint(0, 4))
        _check_kernel(a)
        assert pinned <= _peeled(a), trial
        fired += bool(pinned)
    # a chain that only a drop turns into unit rows: x0 = 0, x0 + x1 = 0, ...
    chain = Mat.from_rows(field, [[1, 1, 0, 0, 0], [0, 1, 2, 0, 0], [1, 0, 0, 0, 0],
                                  [0, 0, 1, 1, 1]])
    assert _peeled(chain) == {0, 1, 2}
    _check_kernel(chain)
    assert fired > 40


@given(st.sampled_from(FIELDS), st.integers(1, 10), st.integers(0, 3), st.integers(0, 4),
       st.integers(0, 2), st.integers(0, 3), st.integers(0, 4), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_kernel_cascade_matches_reference_on_drawn_matrices(field, n, units, chain, twins,
                                                            zero_cols, dense, seed):
    a, pinned = _peelable(field, n, random.Random(seed), units, chain, twins,
                          min(zero_cols, n - 1), dense)
    _check_kernel(a)
    assert pinned <= _peeled(a)


def test_kernel_matches_reference_on_certify_systems(monkeypatch):
    kernel = Mat.kernel
    seen = {"calls": 0, "with_zero_lines": 0, "peeled": 0}

    def checked(a):
        got = kernel(a)
        ref = reference_kernel(a)
        assert got.shape == ref.shape and got.row_list() == ref.row_list()
        seen["calls"] += 1
        seen["with_zero_lines"] += reference_on_support(a._entries)[0].shape != a.shape
        seen["peeled"] += bool(_peeled(a))
        return got

    monkeypatch.setattr(Mat, "kernel", checked)
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=1,
                            max_dim=1, seed=0, pushdown_samples=1)
    assert code == 0, out
    assert seen["with_zero_lines"] >= 4 and seen["calls"] > seen["with_zero_lines"]
    assert seen["peeled"] >= 4


def _assert_canonical(m):
    """``m`` is what the public constructor makes of its own entries, bit for
    bit, and its entries are read-only.  Over F_p: residues with no negative
    zero over the denominator 1.  Over Q: ``int`` numerators over a positive
    ``int`` denominator that shares no factor with all of them, so the zero
    matrix is over 1."""
    a, den = m._entries, m._den
    ref = Mat(m.field, m.rows, m.cols, m.row_list())
    assert not a.flags.writeable
    assert a.shape == (m.rows, m.cols) and a.dtype == ref._entries.dtype
    assert type(den) is int and den > 0 and den == ref._den
    if m.field.char:
        assert den == 1
        assert a.tobytes() == ref._entries.tobytes()
        assert not np.signbit(a).any()
    else:
        nums = a.ravel().tolist()
        assert all(type(x) is int for x in nums)
        assert math.gcd(den, *nums) == 1
        assert nums == ref._entries.ravel().tolist()


def _ref_kron_assemble(field, rows, cols, blocks):
    """The sum of ``Mat.kron_assemble`` on Python ints (``Fraction`` values
    over Q), a None factor being the n x n identity, reduced mod p once at
    the end."""
    out = [[0] * cols for _ in range(rows)]
    for i, j, x, y, n in blocks:
        xs, ys = ([[int(r == c) for c in range(n)] for r in range(n)] if f is None
                  else f.row_list() for f in (x, y))
        yr, yc = (n, n) if y is None else y.shape
        for r, xrow in enumerate(xs):
            for c, xv in enumerate(xrow):
                for s, yrow in enumerate(ys):
                    for t, yv in enumerate(yrow):
                        out[i + r * yr + s][j + c * yc + t] += xv * yv
    return [[v % field.char if field.char else Fraction(v) for v in row] for row in out]


def _kron_extent(blocks):
    """The least ``(rows, cols)`` that holds every block of ``blocks``."""
    corners = []
    for i, j, x, y, n in blocks:
        (xr, xc), (yr, yc) = ((n, n) if f is None else f.shape for f in (x, y))
        corners.append((i + xr * yr, j + xc * yc))
    return max(h for h, _ in corners), max(w for _, w in corners)


@pytest.mark.parametrize("field", FIELDS + [Field.prime(16777213)], ids=str)
def test_invertibility_stops_at_the_first_column_without_a_pivot(field):
    # a square matrix is invertible when every column has a pivot; the
    # elimination that decides it stops at the first column without one,
    # and the pivots it found are the full form's up to that column
    rng = random.Random(f"gap:{field!r}")
    fk = field._kernel
    for _ in range(40):
        n = rng.randint(1, 40)
        a = Mat.random(field, n, n, rng)
        if rng.random() < 0.7:
            # column g a combination of the earlier ones (zero at g = 0)
            g = rng.randrange(n)
            rows = a.row_list()
            coeffs = [field.random_scalar(rng) for _ in range(g)]
            for row in rows:
                row[g] = sum((c * x for c, x in zip(coeffs, row[:g])), field.zero)
            a = Mat(field, n, n, rows)
        full = a.pivot_columns()
        w, _, got = fk.echelon(a._entries, stop_at_gap=True)
        gap = next((c for c in range(n) if c not in full), None)
        if gap is None:
            assert w is not None and got == full == list(range(n))
        else:
            assert w is None and got == list(range(gap)) == full[:gap]
        assert a.is_invertible() == (a.rank() == n)
    assert not Mat.zeros(field, 3, 3).is_invertible()
    assert not Mat.random(field, 2, 3, rng).is_invertible()
    assert Mat.identity(field, 5).is_invertible()


@pytest.mark.parametrize("field", FIELDS + [Field.prime(16777213)])
def test_trusted_constructor_sites_give_canonical_entries(field, monkeypatch):
    # every site that builds its result without a reduction of the whole
    # output: the entries are canonical by construction, and no writable
    # alias is left
    rng = random.Random(f"trusted:{field!r}")
    top = Mat.from_rows(field, [[-1] * 3] * 2)       # every entry p - 1
    for _ in range(25):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        a = Mat(field, m, n, _sparse_rows(field, m, n, rng, rng.choice([0.3, 1.0])))
        b = Mat(field, m, 2, _rand_rows(field, m, 2, rng))
        square = Mat(field, n, n, _rand_rows(field, n, n, rng))
        rows = sorted(rng.sample(range(m), rng.randint(0, m)))
        cols = sorted(rng.sample(range(n), rng.randint(0, n)))
        made = [Mat.zeros(field, m, n), Mat.identity(field, n), Mat.hcat(field, m, [a, b]),
                Mat.vcat(field, n, [a, a]), Mat.hcat(field, m, []), a.T, a.T.reshape(n * m, 1),
                a.reshape(1, m * n), a.submatrix(rows, cols), a.submatrix(rows, []),
                a.kernel(), a.column_space(), Mat.random(field, m, n, rng),
                Mat.column(field, [-1, 0, 2 * field.char - 1, Fraction(-2, 3)]
                           if field.char else [-1, 0, Fraction(-2, 3)]),
                Mat.column(field, []),
                Mat.assemble(field, m + 2, n + 2, [(0, 0, a), (m, n, Mat.identity(field, 2))]),
                *Span(field, m, n, [a, a, a]).combine(Mat(field, 3, 2, [[-1, 2]] * 3))]
        if square.is_invertible():
            made.append(square.inverse())
        for x in made:
            _assert_canonical(x)
        # an overlap adds, and the sum is reduced
        twice = Mat.assemble(field, m, n, [(0, 0, a), (0, 0, a)])
        _assert_canonical(twice)
        assert twice == a.scaled(2)
        # Kronecker blocks: both factors, an identity on the left and on the
        # right, and overlapping blocks, each reduced where it is formed
        k = rng.randint(1, 3)
        for blocks in ([(0, 0, a, b, 0)], [(0, 0, None, b, k)], [(1, 0, a, None, k)],
                       [(0, 0, top, b, 0), (1, 1, b, top, 0), (0, 2, None, top, k),
                        (0, 1, top, None, k), (2, 0, top, top, 0)]):
            shape = _kron_extent(blocks)
            got = Mat.kron_assemble(field, *shape, blocks)
            _assert_canonical(got)
            assert got.row_list() == _ref_kron_assemble(field, *shape, blocks)
        # the sites that bring operands to a common denominator, on operands
        # over 3, over 2 and over 2 with even numerators (over F_p the same
        # scalars are residues), and results that must be put in lowest terms
        third, half = a.scaled(field.inv(3)), b.scaled(field.inv(2))
        even = a.scaled(2).scaled(field.inv(4))
        joined = [Mat.hcat(field, m, [third, half]), Mat.vcat(field, n, [third, a, even]),
                  third + even, third - third, even.scaled(2), third.scaled(6), half @ half.T,
                  third.submatrix(rows, cols), even.submatrix(rows, cols), third.kernel(),
                  third.column_space(), third.reshape(n, m), third.T,
                  Mat.assemble(field, m + 2, n, [(0, 0, third), (2, 0, even), (1, 0, third)]),
                  Mat.kron_assemble(field, m * m, n * 2, [(0, 0, third, half, 0)]),
                  Mat.kron_assemble(field, m * 3, n * 3, [(0, 0, third, None, 3),
                                                          (0, 0, None, even, 3)]),
                  *Span(field, m, n, [third, even, a]).combine(Mat(field, 3, 2, [[-1, 2]] * 3)),
                  trace_form(span_of([third, even]), span_of([third.T, even.T])),
                  *nilpotent_hom_basis(jordan_shift(field, [2, 1]).scaled(field.inv(3)),
                                       jordan_shift(field, [2]).scaled(field.inv(2)))[0].mats,
                  *mapped_hom_basis(jordan_shift(field, [2, 1]).scaled(field.inv(3)),
                                    jordan_shift(field, [2]).scaled(field.inv(2)))]
        if square.is_invertible():
            joined += [square.scaled(field.inv(5)).inverse(),
                       square.solve_matrix(square.scaled(field.inv(3)))]
        for x in joined:
            _assert_canonical(x)
    # the entries the reductions make: p - 1 and negatives of zero
    top = Mat.from_rows(field, [[-1, 0], [0, -1]])
    for x in (top.inverse(), (-top).kernel(), top.column_space(),
              Mat.from_rows(field, [[1, -1], [-1, 1]]).kernel()):
        _assert_canonical(x)
    if field.char not in (101, 16777213, 0):
        return
    # every Mat the Hom path builds, through either constructor, on the
    # certify images and on a K3 witness image: the Jordan route's triples,
    # its kernels and frames, the Hom bases and what they are read as
    made = []
    init, of = Mat.__init__, Mat._of
    monkeypatch.setattr(Mat, "__init__", lambda self, *args: init(self, *args) or made.append(self))
    monkeypatch.setattr(Mat, "_of", classmethod(lambda cls, *args: made.append(of(*args))
                                                or made[-1]))
    m, n = certify_images(field=field)
    k3 = k3_witness_image(build_algebra_table(k3_bound_quiver(), field), 1)
    before = len(made)
    for src, tgt in ((m, m), (m, n), (k3, k3)):
        h = hom_space(src, tgt)
        assert h.dim and h.frame and h.basis and h.unframe(h.totals().mats[-1])
    assert len(made) - before > 1000
    for x in made[before:]:
        _assert_canonical(x)


def _k3_witness_pencils(k3_table):
    """The arguments of every ``nilpotent_hom_basis`` call that the Hom
    spaces between the images of a 1- and a 2-dimensional module under the
    rank-28 K3 witness make, with those modules."""
    images = [k3_witness_image(k3_table, dim) for dim in (1, 2)]
    calls = []
    solve = rep_module.nilpotent_hom_basis
    rep_module.nilpotent_hom_basis = lambda s, sp, rest=(): (calls.append((s, sp, list(rest)))
                                                             or solve(s, sp, rest))
    try:
        for m in images:
            for n in images:
                hom_space(m, n)
    finally:
        rep_module.nilpotent_hom_basis = solve
    return calls


def test_nilpotent_hom_basis_matches_reference_on_k3_witness_pencils(k3_table):
    calls = _k3_witness_pencils(k3_table)
    assert len(calls) == 4 and all(rest for _, _, rest in calls)
    for s, sp, rest in calls:
        got = mapped_hom_basis(s, sp, rest)
        assert got == reference_hom_pencil(F101, sp.rows, s.rows, [(s, sp)] + rest)
        for g in got + nilpotent_hom_basis(s, sp, rest)[0].mats:
            _assert_canonical(g)


def _certify_pencils():
    """The arguments of the ``nilpotent_hom_basis`` calls that the Hom spaces
    between the images of two 1-dimensional modules under the witness that
    ``covering_criterion`` finds for ``three_loop_rad2`` make: 28-dimensional
    modules whose pencils have the Jordan type J_2^14, two further pairs."""
    m, n = certify_images()
    calls = []
    solve = rep_module.nilpotent_hom_basis
    rep_module.nilpotent_hom_basis = lambda s, sp, rest=(): (calls.append((s, sp, list(rest)))
                                                             or solve(s, sp, rest))
    try:
        hom_space(m, m), hom_space(m, n)
    finally:
        rep_module.nilpotent_hom_basis = solve
    return calls


def test_nilpotent_hom_basis_matches_reference_on_certify_pencils():
    # the shape of the benchmark's certify round: 392 intertwiners of
    # J_2^14 -> J_2^14 cut down by two pairs to 197 and 196 dimensions
    calls = _certify_pencils()
    dims = []
    for s, sp, rest in calls:
        assert (s.rows, sp.rows, len(rest)) == (28, 28, 2)
        assert _jordan_frame(s)[2] == _jordan_frame(sp)[2] == (2,) * 14
        got = mapped_hom_basis(s, sp, rest)
        assert got == reference_hom_pencil(F101, 28, 28, [(s, sp)] + rest)
        dims.append(len(got))
        for g in got + nilpotent_hom_basis(s, sp, rest)[0].mats:
            _assert_canonical(g)
    assert dims == [197, 196]


def test_k3_witness_pencils_leave_a_small_dense_pass(k3_table, monkeypatch):
    # the Hom conditions of the witness images are about 1% dense and mostly
    # rows of weight one or two: after the cascade the echelon form sees a
    # few columns, not one per Jordan-block intertwiner (112 on 28 x 28)
    calls = _k3_witness_pencils(k3_table)
    shapes = []
    echelon = exactlin_module._echelon_fp
    monkeypatch.setattr(exactlin_module, "_echelon_fp",
                        lambda a, p, *args: shapes.append(a.shape) or echelon(a, p, *args))
    dense = []
    for s, sp, rest in calls:
        _jordan_frame(s), _jordan_frame(sp)       # memoised already: no elimination
        shapes.clear()
        nilpotent_hom_basis(s, sp, rest)
        assert len(shapes) == 1
        dense.append((s.rows, sp.rows, shapes[0]))
    assert max(cols for _, _, (_, cols) in dense) <= 16, dense


class _ShapeLog:
    """A stand-in for numpy inside ``exactlin`` that records the shape of
    every array a numpy function returns, alone or in a tuple."""

    def __init__(self, shapes: list):
        self._shapes = shapes

    def __getattr__(self, name):
        obj = getattr(np, name)
        if isinstance(obj, type) or not callable(obj):
            return obj

        def logged(*args, **kwargs):
            out = obj(*args, **kwargs)
            for x in out if isinstance(out, tuple) else (out,):
                if isinstance(x, np.ndarray):
                    self._shapes.append(x.shape)
            return out
        return logged


@pytest.mark.parametrize("case", ["certify", "k3"])
def test_jordan_route_hands_the_kernel_its_nonzero_rows_unreduced(case, k3_table, monkeypatch):
    # the conditions reach the null basis as built: one nonzero entry per
    # cell, in (-p, p), some negative, with no reduction before the echelon
    # form's own, on the rows that hold a nonzero entry (of 1568 (pair, i, j)
    # rows on certify's 28 x 28 calls and 784 on the witness's) and the
    # columns that hold one (of certify's 392 intertwiners).  Neither the
    # Jordan route nor the null basis allocates an array of that system's
    # shape: only the dense rest the cascade leaves reaches the echelon form
    calls = _certify_pencils() if case == "certify" else _k3_witness_pencils(k3_table)
    log, systems, shapes = [], [], []
    residues, echelon, null_basis = (
        exactlin_module._residues, exactlin_module._echelon_fp, exactlin_module._null_basis)
    monkeypatch.setattr(exactlin_module, "_null_basis",
                        lambda f, *triples: systems.append(triples) or log.append(("null basis",))
                        or null_basis(f, *triples))
    monkeypatch.setattr(exactlin_module, "_residues",
                        lambda a, p, *out: log.append(("reduce", a.shape)) or residues(a, p, *out))
    monkeypatch.setattr(exactlin_module, "_echelon_fp",
                        lambda a, p, *args: log.append(("echelon", a.shape)) or echelon(a, p, *args))
    monkeypatch.setattr(exactlin_module, "np", _ShapeLog(shapes))
    found = []
    for s, sp, rest in calls:
        _jordan_frame(s), _jordan_frame(sp)       # memoised already: no elimination
        log.clear()
        systems.clear()
        shapes.clear()
        nilpotent_hom_basis(s, sp, rest)
        (rows, cols, vals, (m, width)), = systems
        at = log.index(("null basis",))
        # before the conditions only the pairs are conjugated into the frames
        assert {x[1] for x in log[:at]} <= {s.shape, sp.shape}, log[:at]
        assert log[at + 1][0] == "echelon"
        # after the echelon form only the null basis reduces: no map back
        after = log[at + 2:]
        seen = shapes + [x[1] for x in log if len(x) > 1]
        del log[:]
        null_basis(F101, rows, cols, vals, (m, width))
        assert after and after == log[1:] and all(x[0] == "reduce" for x in after)
        assert (vals != 0).all() and np.abs(vals).max() < 101 and (vals < 0).any()
        cells = rows * width + cols
        assert np.unique(cells).size == cells.size and cols.max() < width and rows.max() < m
        system = (np.unique(rows).size, np.unique(cols).size)
        assert system not in seen and system[::-1] not in seen
        # the echelon form sees a small rest, not the system
        rest = log[0][1]
        assert 8 * rest[0] <= system[0] and 4 * rest[1] <= system[1], (rest, system)
        found.append((*system, width))
    assert found == ([(384, 196, 392)] * 2 if case == "certify" else
                     [(110, 28, 28), (220, 56, 56), (220, 56, 56), (440, 112, 112)])


def _triples(field, rows, n):
    """``(rows, cols, vals, shape)`` of the nonzero entries of the integer
    rows ``rows`` of length ``n``, as ``_null_basis`` takes them."""
    a = np.array(rows, dtype=field._kernel.dtype).reshape(len(rows), n)
    at, to = np.nonzero(a)
    return at, to, a[at, to], a.shape


def _unreduced_rows(field, n, rng, density):
    """Integer rows for ``_null_basis``, entries in (-p, p) and most of them
    +-(p - 1) (any small integers over Q): random rows, zero rows, a row and
    its negative, which cancel, a row with the residues of another written
    as negatives, and a chain of one weight-one row and weight-two rows,
    shuffled."""
    top = field.char - 1 if field.char else 9

    def entry():
        return rng.choice([top, -top, rng.randint(-top, top)]) if rng.random() < density else 0

    rows = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    rows += [[0] * n for _ in range(rng.randint(0, 2))]
    if rows:
        first = rng.choice(rows)
        rows.append([-x for x in first])
        if field.char:
            rows.append([x - field.char if x > 0 else x for x in first])
    chain = rng.sample(range(n), rng.randint(0, min(n, 4)))
    for k, j in enumerate(chain):
        row = [0] * n
        row[j] = rng.choice([top, -top])
        if k:
            row[chain[k - 1]] = rng.choice([1, -top])
        rows.append(row)
    rng.shuffle(rows)
    return rows


@given(st.sampled_from([Field.prime(5), F101, Field.prime(16777213), QQ]), st.integers(1, 7),
       st.sampled_from([0.2, 0.6, 1.0]), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_null_basis_of_unreduced_rows_is_the_kernel_of_their_residues(field, n, density, seed):
    rows = _unreduced_rows(field, n, random.Random(seed), density)
    got = exactlin_module._null_basis(field, *_triples(field, rows, n))
    assert got == Mat(field, len(rows), n, rows).kernel()
    _assert_canonical(got)


@given(st.sampled_from([F101, Field.prime(16777213), QQ]), st.integers(0, 5), st.integers(0, 8),
       st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 10 ** 6))
@example(F101, 0, 4, 0.5, 0)
@example(QQ, 3, 5, 0.0, 0)
@settings(max_examples=120, deadline=None)
def test_null_basis_on_a_column_subset_matches_reference_kernel(field, m, width, density, seed):
    """A random sparse m x ``width`` matrix, entries in (-p, p), handed to
    ``_null_basis`` as the triples of its nonzero entries, which lie on a
    subset of the columns, with the full shape, against the reference
    kernel of the whole matrix: with trailing zero columns, with no row and
    with no nonzero column."""
    rng = random.Random(seed)
    top = field.char - 1 if field.char else 9
    live = width - rng.randint(0, min(3, width))
    rows = [[rng.choice([top, -top, rng.randint(-top, top)])
             if j < live and rng.random() < density else 0 for j in range(width)]
            for _ in range(m)]
    got = exactlin_module._null_basis(field, *_triples(field, rows, width))
    assert got == reference_kernel(Mat(field, m, width, rows))
    _assert_canonical(got)


def _cancelling_triples(field, m, n, chain, rng):
    """``(rows, cols, vals, shape, pinned)``: raw entries of a system of at
    least m rows and n columns, each cell at most twice with values of
    opposite signs, as the Jordan route's A and B entries (over F_p
    residues in [1, p) and their negatives, most of them +-(p - 1); over Q
    small integers): pairs that cancel, pairs that do not and single
    entries at random; with n > ``chain`` >= 1, a unit row and ``chain``
    weight-two rows behind it, which the cascade peels one after another
    (their columns are ``pinned``), a copy of the unit row and a row on two
    chain columns, which the cascade empties; and zero rows."""
    top = field.char - 1 if field.char else 9

    def value():
        return rng.choice([top, top, 1, rng.randint(1, top)])

    entries = []
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.35:
                a = value()
                kind = rng.randrange(4)
                entries += [(i, j, a)] if kind != 1 else [(i, j, -a)]
                if kind == 2:
                    entries.append((i, j, -a))              # cancels
                elif kind == 3:
                    entries.append((i, j, -value()))
    pinned = set()
    if 1 <= chain < n:
        path = rng.sample(range(n), chain + 1)
        extra = [[path[0]], [path[0]], rng.sample(path, 2)]
        extra += [[j0, j1] for j0, j1 in zip(path, path[1:])]
        for k, cols in enumerate(extra):
            entries += [(m + k, j, rng.choice([value(), -value()])) for j in cols]
        m += len(extra)
        pinned = set(path)
    m += rng.randint(0, 2)
    rng.shuffle(entries)
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    vals = np.array(vals, dtype=field._kernel.dtype)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), vals, (m, n),
            pinned)


@given(st.sampled_from([Field.prime(5), F101, Field.prime(16777213), QQ]), st.integers(0, 6),
       st.integers(0, 8), st.integers(0, 5), st.integers(0, 10 ** 6))
@example(F101, 0, 0, 0, 0)
@example(QQ, 3, 0, 0, 0)
@example(Field.prime(16777213), 0, 5, 0, 0)
@example(Field.prime(5), 2, 7, 4, 1)
@settings(max_examples=150, deadline=None)
def test_null_basis_of_summed_triples_matches_reference_kernel(field, m, n, chain, seed):
    """Raw triples summed as the Jordan route sums its A and B entries, then
    handed to ``_null_basis``, against the reference kernel of the dense
    matrix and against the dense front end, which must leave the echelon
    form the same rest; with cells that cancel, weight-one chains at least
    three deep, rows the cascade empties, and systems with no row or no
    column."""
    rows, cols, vals, shape, pinned = _cancelling_triples(field, m, n, chain,
                                                          random.Random(seed))
    cells, vals = exactlin_module._summed(rows * max(n, 1) + cols, vals)
    rows, cols = cells // max(n, 1), cells % max(n, 1)
    assert (vals != 0).all() and np.unique(cells).size == cells.size
    if field.char:
        assert (np.abs(vals) < field.char).all()
    dense = _zeros(field, shape)
    dense[rows, cols] = vals
    with _echelon_shapes() as shapes:
        got = exactlin_module._null_basis(field, rows, cols, vals, shape)
    assert got == reference_kernel(Mat(field, *shape, dense))
    assert got == reference_dense_null_basis(field, dense)
    _assert_canonical(got)
    rest, _, peeled = reference_peel_unit_rows(*reference_on_support(dense))
    assert shapes == ([rest.shape] if rest.shape[0] else [])
    assert pinned <= set(peeled.tolist())


@pytest.mark.parametrize("field", [F101, Field.prime(5), QQ], ids=repr)
def test_nilpotent_hom_basis_on_cancelling_and_empty_conditions(field, monkeypatch):
    # (s + c, s + c) adds no condition: in Jordan coordinates it is J + c,
    # every h_c commutes with it, and each of its A entries meets the B entry
    # that cancels it; (0, 0) gives no entry at all.  Either way no row
    # reaches the null basis, and every h_c remains
    rng = random.Random(f"cancel:{field!r}")
    shapes = []
    null_basis = exactlin_module._null_basis
    # each system as its number of rows and of columns that hold an entry,
    # and its width
    monkeypatch.setattr(exactlin_module, "_null_basis",
                        lambda f, rows, cols, vals, shape: shapes.append(
                            (np.unique(rows).size, np.unique(cols).size, shape[1]))
                        or null_basis(f, rows, cols, vals, shape))
    for sizes in ([3, 2], [2, 2, 1], [4], [1]):
        n = sum(sizes)
        g = _random_invertible(field, n, rng)
        s = g @ jordan_shift(field, sizes) @ g.inverse()
        shifted = s + Mat.identity(field, n).scaled(random_nonzero(field, rng))
        zero = Mat.zeros(field, n, n)
        every = nilpotent_hom_basis(s, s)
        for rest in ([(shifted, shifted)], [(zero, zero)], [(zero, zero), (shifted, shifted)]):
            shapes.clear()
            got = nilpotent_hom_basis(s, s, rest)
            assert (got[0].mats, got[1:]) == (every[0].mats, every[1:])
            # no entry survives, of the system over every h_c
            [(m, on, width)] = shapes
            assert m == on == 0 and width == len(every[0])
        assert mapped_hom_basis(s, s) == reference_hom_pencil(field, n, n,
                                                              [(s, s), (shifted, shifted)])
        # next to a pair that cuts the space down, the cancelled rows are gone
        r = Mat.random(field, n, n, rng)
        shapes.clear()
        alone = nilpotent_hom_basis(s, s, [(r, r)])
        both = nilpotent_hom_basis(s, s, [(shifted, shifted), (r, r)])
        # the same rows and columns over the same width: the cancelled
        # entries leave no cell behind
        alone_system, both_system = shapes
        assert alone_system == both_system
        assert (alone[0].mats, alone[1:]) == (both[0].mats, both[1:])
        assert mapped_hom_basis(s, s, [(shifted, shifted), (r, r)]) == \
            reference_hom_pencil(field, n, n, [(s, s), (shifted, shifted), (r, r)])
        # and within one pair: J + c plus a matrix unit in s's Jordan frame
        p, p_inv, _ = _jordan_frame(s)
        i, j = rng.randrange(n), rng.randrange(n)
        bump = shifted + p @ Mat.unit(field, n, n, i, j) @ p_inv
        shapes.clear()
        got = mapped_hom_basis(s, s, [(bump, bump)])
        assert got and shapes[0][0] <= 2 * n
        assert got == reference_hom_pencil(field, n, n, [(s, s), (bump, bump)])


def test_intertwiner_pattern_is_memoised_and_read_only():
    # one pattern per pair of Jordan types, shared by every call with those
    # types, in a bounded cache; nothing can write it
    pattern = exactlin_module._intertwiner_pattern
    pattern.cache_clear()
    rng = random.Random("pattern-memo")

    def of_type(sizes):
        g = _random_invertible(F101, sum(sizes), rng)
        return g @ jordan_shift(F101, sizes) @ g.inverse()

    s, t = of_type([3, 1]), of_type([2, 2])
    first = nilpotent_hom_basis(s, t)[0].mats
    assert (pattern.cache_info().hits, pattern.cache_info().misses) == (0, 1)
    s2, t2 = of_type([3, 1]), of_type([2, 2])
    r, r2 = Mat.random(F101, 4, 4, rng), Mat.random(F101, 4, 4, rng)
    assert mapped_hom_basis(s2, t2, [(r, r2)]) == \
        reference_hom_pencil(F101, 4, 4, [(s2, t2), (r, r2)])
    assert (pattern.cache_info().hits, pattern.cache_info().misses) == (1, 1)
    idx, rows, cols, c, by_row, by_col = pattern((3, 1), (2, 2))
    assert c == len(first) == 6 and pattern((3, 1), (2, 2))[0] is idx
    # the ones grouped by row (of 4) and by column (of 4), each group in order
    for keys, (order, starts) in ((rows, by_row), (cols, by_col)):
        assert len(starts) == 5 and sorted(order.tolist()) == list(range(len(idx)))
        for k in range(4):
            group = order[starts[k]:starts[k + 1]].tolist()
            assert group == sorted(group) and group == np.flatnonzero(keys == k).tolist()
    for x in (idx, rows, cols, *by_row, *by_col):
        assert x.dtype == np.intp and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1
    assert pattern.cache_info().maxsize is not None


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
    assert type(q.entry(0, 1)) is Fraction
    assert all(type(x) is Fraction for x in q.T.row_list()[1])
    f = Mat.from_rows(F101, [[1, -1], [0, 3]])
    assert f.row_list() == [[1, 100], [0, 3]]
    assert all(type(x) is int for row in f.row_list() for x in row)
    assert type(f.entry(0, 1)) is int


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


def test_rational_matrices_reached_by_different_routes_are_equal():
    # one canonical (numerators, denominator) form per matrix, whatever
    # denominators the route passed through
    rng = random.Random("qq-routes")
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 2 ** 61 - 1]))
                 for _ in range(n)] for _ in range(m)]
        a = Mat.from_rows(QQ, rows)
        third = Mat.from_rows(QQ, [[Fraction(1, 3)] * n] * m)
        same = [a.scaled(Fraction(1, 3)).scaled(3), a.scaled(3 ** 40).scaled(Fraction(1, 3 ** 40)),
                a + third - third, (a.scaled(2 ** 61 - 1) @ Mat.identity(QQ, n)).scaled(
                    Fraction(1, 2 ** 61 - 1)),
                Mat.hcat(QQ, m, [a.submatrix(range(m), [j]) for j in range(n)]),
                Mat.vcat(QQ, n, [a.submatrix([i], range(n)) for i in range(m)]),
                Mat.assemble(QQ, m, n, [(0, 0, a.scaled(Fraction(1, 3))),
                                        (0, 0, a.scaled(Fraction(2, 3)))]),
                Mat.lincomb(QQ, m, n, [Fraction(1, 2), Fraction(1, 2)], [a, a]),
                Mat(QQ, m, n, [[str(x) for x in row] for row in rows])]
        for b in same:
            assert b == a and hash(b) == hash(a)
        # one entry off: not equal, whatever the denominators
        i, j = rng.randrange(m), rng.randrange(n)
        off = [list(row) for row in rows]
        off[i][j] += Fraction(1, 3 ** 40)
        assert Mat.from_rows(QQ, off) != a and a != Mat.from_rows(QQ, off)
    # an hcat of operands over the coprime 2**61 - 1 and 3**40 and over 1
    parts = [Mat.from_rows(QQ, [[Fraction(1, 2 ** 61 - 1)], [0]]),
             Mat.from_rows(QQ, [[Fraction(-2, 3 ** 40)], [Fraction(5, 3)]]),
             Mat.from_rows(QQ, [[7], [0]])]
    cat = Mat.hcat(QQ, 2, parts)
    ref = Mat.from_rows(QQ, [[Fraction(1, 2 ** 61 - 1), Fraction(-2, 3 ** 40), 7],
                             [0, Fraction(5, 3), 0]])
    assert cat == ref and hash(cat) == hash(ref)
    assert cat != Mat.from_rows(QQ, [[Fraction(1, 2 ** 61 - 1), Fraction(-2, 3 ** 40), 7],
                                     [0, Fraction(5, 3), Fraction(1, 3 ** 40)]])


@pytest.mark.parametrize("field", FIELDS)
def test_trace_form_matches_reference(field):
    rng = random.Random(39)
    for _ in range(25):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        lefts = [Mat(field, n, m, _sparse_rows(field, n, m, rng)) for _ in range(rng.randint(1, 4))]
        rights = [Mat(field, m, n, _sparse_rows(field, m, n, rng)) for _ in range(rng.randint(1, 4))]
        got = trace_form(span_of(lefts), span_of(rights))
        assert got.shape == (len(lefts), len(rights))
        assert got.row_list() == reference_trace_pairing(lefts, rights)
    with pytest.raises(ShapeMismatchError):
        trace_form(span_of([Mat.zeros(field, 2, 3)]), span_of([Mat.zeros(field, 2, 3)]))


def _assembled(field, rows, cols, count, rng, allowed, full):
    """``count`` sparse ``rows x cols`` matrices, nonzero only where
    ``allowed(i, j)`` holds, with entries 0, +-1, +-(p - 1) or random (with
    denominators over Q): as a Span from the list when ``full`` (its support
    is every column), else assembled from one block per diagonal piece of a
    random split of the rows and the columns (its support is exact)."""
    big = field.coerce(-1)
    def entry(i, j):
        if not allowed(i, j) or rng.random() < 0.6:
            return field.zero
        x = rng.choice([field.one, -field.one, big, -big, field.random_scalar(rng)])
        return x / rng.choice([1, 2, 35]) if field == QQ else x
    mats = [Mat(field, rows, cols, [[entry(i, j) for j in range(cols)] for i in range(rows)])
            for _ in range(count)]
    if full:
        return Span(field, rows, cols, mats)
    cut_r = sorted(rng.sample(range(1, rows), min(2, rows - 1))) if rows > 1 else []
    cut_c = sorted(rng.sample(range(1, cols), min(2, cols - 1))) if cols > 1 else []
    pieces = list(zip(zip([0] + cut_r, cut_r + [rows]), zip([0] + cut_c, cut_c + [cols])))
    if len(pieces) == 1 or rng.random() < 0.5:
        pieces = [((0, rows), (0, cols))]
    # the assembled matrices keep only the entries inside their blocks
    return Span.assemble(field, rows, cols, count,
                         [(r0, c0, Span(field, r1 - r0, c1 - c0,
                                        [x.submatrix(range(r0, r1), range(c0, c1)) for x in mats]))
                          for (r0, r1), (c0, c1) in pieces])


@given(st.sampled_from([Field.prime(5), F101, Field.prime(16777213), QQ]), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["sparse", "disjoint", "full left", "full right"]), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_trace_form_on_assembled_supports_matches_reference(field, n, m, kl, kr, case, seed):
    """``trace_form`` contracts only where the left support meets the
    transposed right support: drawn over n x m against m x n (square or
    not), empty spans, supports that never meet (the form is zero), and one
    side from a list, at full width.  ``combine`` on an assembled span
    agrees with the Span of its matrices."""
    rng = random.Random(seed)
    lefts = _assembled(field, n, m, kl, rng, lambda i, j: True, case == "full left")
    hit = {(j, i) for x in lefts.mats for i in range(n) for j in range(m)
           if x.entry(i, j) != field.zero}
    allowed = (lambda i, j: (i, j) not in hit) if case == "disjoint" else (lambda i, j: True)
    rights = _assembled(field, m, n, kr, rng, allowed, case == "full right")
    got = trace_form(lefts, rights)
    assert got.shape == (kl, kr)
    assert got.row_list() == reference_trace_pairing(lefts.mats, rights.mats)
    if case == "disjoint":
        assert got.is_zero()
    for span, k, rows, cols in ((lefts, kl, n, m), (rights, kr, m, n)):
        coeffs = Mat(field, k, 2, _rand_rows(field, k, 2, rng))
        assert span.combine(coeffs) == Span(field, rows, cols, span.mats).combine(coeffs)


def test_trace_radical_refuses_a_kernel_with_a_non_nilpotent_element():
    # over F5, tr(I_5 . I_5) = 5 = 0: the trace-form kernel of the span of I_5
    # is the whole span, and I_5 is not nilpotent, so no radical is certified
    f5 = Field.prime(5)
    ident = span_of([Mat.identity(f5, 5)])
    assert trace_form(ident, ident).is_zero()
    assert trace_radical(ident) is None
    # the kernel is certified when it holds only nilpotents: here span(N)
    # in span(I_2, N), and the zero space when the characteristic is 7
    nil = Mat.from_rows(f5, [[0, 1], [0, 0]])
    assert trace_radical(span_of([Mat.identity(f5, 2), nil])) == Mat.column(f5, [0, 1])
    assert trace_radical(span_of([Mat.identity(Field.prime(7), 5)])).cols == 0


def _sparse_rows(field, m, n, rng, density=0.5):
    """Random rows where about ``1 - density`` of the entries are zero."""
    return [[field.random_scalar(rng) if rng.random() < density else field.zero
             for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("p", [101, 7, 16777213])
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
        assert fp.coerce(mat_trace(sq)) == mat_trace(sf)
        e, d = rng.randint(1, 4), rng.randint(1, 4)
        params = [pair(e, d) for _ in range(rng.randint(1, 3))]
        pairs = [(pair(d, d), pair(e, e)) for _ in range(rng.randint(1, 2))]
        agree(intertwiner_system([g for g, _ in params], [(s[0], s2[0]) for s, s2 in pairs]),
              intertwiner_system([g for _, g in params], [(s[1], s2[1]) for s, s2 in pairs]))
        lefts = [pair(e, d) for _ in range(rng.randint(1, 3))]
        rights = [pair(d, e) for _ in range(rng.randint(1, 3))]
        agree(trace_form(span_of([x for x, _ in lefts]), span_of([y for y, _ in rights])),
              trace_form(span_of([x for _, x in lefts]), span_of([y for _, y in rights])))
    if p == 7:
        assert drops   # some reductions mod 7 lost rank, so the bound was exercised


# ---------------------------------------------------------------------------
# prime-field exactness up to the cap, against Python-int references
# ---------------------------------------------------------------------------

#: 2**17 - 1, where delayed reduction without the reduction rule broke, and
#: 16777213, the largest prime below the 2**24 cap
CAP_PRIMES = [131071, 16777213]


def _residue_rows(p, m, n, rng, rank=None):
    """Seeded m x n rows of residues mod p, of rank at most ``rank`` if given."""
    if rank is not None:
        return reference_matmul_fp(_residue_rows(p, m, rank, rng),
                                   _residue_rows(p, rank, n, rng), p)
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("p", CAP_PRIMES)
def test_prime_field_echelon_rank_and_kernel_are_exact_below_the_cap(p):
    fp = Field.prime(p)
    rng = random.Random(f"exact-echelon:{p}")
    sparse = [[x if rng.random() < 0.3 else 0 for x in row]
              for row in _residue_rows(p, 90, 70, rng)]
    # dense, wide, tall, low-rank, sparse, and every entry p - 1 (rank one)
    inputs = [_residue_rows(p, 120, 120, rng), _residue_rows(p, 40, 170, rng),
              _residue_rows(p, 170, 40, rng), _residue_rows(p, 130, 140, rng, rank=12),
              sparse, [[p - 1] * 60 for _ in range(60)]]
    for rows in inputs:
        w, piv = exactlin_module._echelon_fp(np.array(rows, dtype=np.float64), p)
        ref, ref_piv = reference_echelon_fp(rows, p)
        assert piv == ref_piv and w.astype(np.int64).tolist() == ref
        a = Mat.from_rows(fp, rows)
        assert a.rank() == len(ref_piv)
        # the kernel basis that is the identity on the free columns
        red, _ = reference_echelon_fp(rows, p, reduced=True)
        free = [c for c in range(a.cols) if c not in ref_piv]
        ker = [[0] * len(free) for _ in range(a.cols)]
        for j, f in enumerate(free):
            ker[f][j] = 1
            for k, c in enumerate(ref_piv):
                ker[c][j] = -red[k][f] % p
        assert a.kernel().row_list() == ker
    assert len(ref_piv) == 1


@pytest.mark.parametrize("p", CAP_PRIMES)
def test_prime_field_solve_and_inverse_are_exact_below_the_cap(p):
    fp = Field.prime(p)
    rng = random.Random(f"exact-solve:{p}")
    for n in (70, 150):
        rows = _residue_rows(p, n, n, rng)
        red, piv = reference_echelon_fp(
            [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], p, reduced=True)
        assert piv[:n] == list(range(n))
        assert Mat.from_rows(fp, rows).inverse().row_list() == [row[n:] for row in red]
    rows = _residue_rows(p, 100, 110, rng, rank=60)
    a = Mat.from_rows(fp, rows)
    consistent = reference_matmul_fp(rows, _residue_rows(p, 110, 1, rng), p)
    for b in (consistent, _residue_rows(p, 100, 1, rng)):
        red, piv = reference_echelon_fp([r + x for r, x in zip(rows, b)], p, reduced=True)
        x = a.solve(Mat.from_rows(fp, b))
        if piv[-1] == 110:
            assert x is None
        else:
            want = [[0] for _ in range(110)]
            for k, c in enumerate(piv):
                want[c][0] = red[k][110]
            assert x.row_list() == want
    assert x is None      # the random right-hand side is inconsistent


@st.composite
def _pivot_step_inputs(draw):
    """``(p, rows, m, n)``: m x n integer rows with entries in (-p, p), for
    the pivot step of ``_echelon_fp``.  Besides drawn rows: all zero, copies
    of a few rows (the rank falls short of the width, so there are gaps), a
    first row that is zero in the first column (its pivot needs a row swap),
    and a column that is a multiple of an earlier column of its sub-panel
    (that column's pivot zeroes it below, and only a reduction shows it)."""
    p = draw(st.sampled_from([5, 101, 16777213]))
    m = draw(st.integers(0, 24))
    n = draw(st.sampled_from([16, 17]) | st.integers(0, 40))
    entry = st.sampled_from([p - 1, 1 - p]) | st.integers(1 - p, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["drawn", "zero", "copies", "swap", "zeroed"]))
    if shape == "zero":
        rows = [[0] * n for _ in range(m)]
    elif shape == "copies" and m:
        few = draw(st.integers(1, m))
        rows = [list(rows[draw(st.integers(0, few - 1))]) for _ in range(m)]
    elif shape == "swap" and m > 1 and n:
        rows[0][0], rows[-1][0] = 0, p - 1
    elif shape == "zeroed" and n > 1:
        j = draw(st.integers(1, n - 1))
        i = draw(st.integers(j - j % exactlin_module._SUB, j - 1)) if j % exactlin_module._SUB else 0
        k = draw(st.integers(1, p - 1))
        for row in rows:
            row[j] = k * row[i] % p - draw(st.sampled_from([0, p])) * bool(row[i])
    return p, rows, m, n


@given(_pivot_step_inputs(), st.booleans())
# a dense 24 x 40 matrix at the largest prime: its second sub-panel's
# triangular pass starts on entries that the first GEMM left unreduced
@example((16777213, _residue_rows(16777213, 24, 40, random.Random("pivot-step")), 24, 40), False)
@settings(max_examples=200, deadline=None)
def test_prime_field_echelon_matches_the_reference_on_small_shapes(case, stop_at_gap):
    p, rows, m, n = case
    w, piv = exactlin_module._echelon_fp(np.array(rows, dtype=np.float64).reshape(m, n), p,
                                         stop_at_gap)
    ref, ref_piv = reference_echelon_fp(rows, p)
    # the pivots of the leading columns, up to the first column without one
    lead = 0
    while lead < len(ref_piv) and ref_piv[lead] == lead:
        lead += 1
    if stop_at_gap and lead < min(m, n):
        assert w is None and piv == ref_piv[:lead]
    else:
        assert piv == ref_piv
        assert w.shape == (m, n) and w.astype(np.int64).tolist() == ref


def _eliminations(monkeypatch) -> list:
    """Record ``(input, stop_at_gap, result)`` of every ``_echelon_fp`` and
    ``_echelon_qq`` call from now on."""
    calls = []
    fp, qq = exactlin_module._echelon_fp, exactlin_module._echelon_qq

    def spy_fp(a, p, stop_at_gap=False):
        calls.append((np.array(a), stop_at_gap, fp(a, p, stop_at_gap)))
        return calls[-1][2]

    def spy_qq(rows, stop_at_gap=False):
        calls.append((np.array(rows, dtype=object), stop_at_gap, qq(rows, stop_at_gap)))
        return calls[-1][2]

    monkeypatch.setattr(exactlin_module, "_echelon_fp", spy_fp)
    monkeypatch.setattr(exactlin_module, "_echelon_qq", spy_qq)
    return calls


@pytest.mark.parametrize("field", [F101, QQ])
def test_kernel_eliminates_nothing_when_support_and_cascade_leave_nothing(field, monkeypatch):
    calls = _eliminations(monkeypatch)
    perm = Mat.from_rows(field, [[0, 0, 3], [5, 0, 0], [0, 2, 0]])
    diag = Mat.from_rows(field, [[4, 0, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]])
    assert Mat.zeros(field, 0, 3).kernel() == Mat.identity(field, 3)
    assert Mat.zeros(field, 2, 2).kernel() == Mat.identity(field, 2)
    assert perm.kernel() == Mat.zeros(field, 3, 0)
    assert diag.kernel() == Mat.from_rows(field, [[0, 0], [1, 0], [0, 0], [0, 1]])
    assert calls == []
    # a rest with a row is eliminated, once
    assert Mat.from_rows(field, [[1, 1], [2, 2]]).kernel() == Mat.from_rows(field, [[-1], [1]])
    assert len(calls) == 1


@pytest.mark.parametrize("field", [F101, QQ])
def test_inverse_is_one_elimination_memoised_on_the_matrix(field, monkeypatch):
    calls = _eliminations(monkeypatch)
    a = Mat.from_rows(field, [[2, 1, 0], [1, 1, 0], [0, 0, 3]])
    assert a.is_invertible()
    inv = a.inverse()
    assert len(calls) == 1 and calls[0][0].shape == (3, 6)
    assert a.inverse() is inv and a.is_invertible() and len(calls) == 1
    assert a @ inv == Mat.identity(field, 3)
    assert not inv._entries.flags.writeable and not a._entries.flags.writeable
    with pytest.raises(ValueError):
        inv._entries[0, 0] = 0
    # a singular matrix: the [A | I] elimination stops at the first column
    # without a pivot, and the answer is memoised too
    calls.clear()
    s = Mat.from_rows(field, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(ZeroDivisionError):
        s.inverse()
    assert len(calls) == 1
    rows, stop_at_gap, got = calls[0]
    assert rows.shape == (3, 6) and stop_at_gap and got[0] is None and got[-1] == [0]
    assert not s.is_invertible() and len(calls) == 1
    with pytest.raises(ZeroDivisionError):
        s.inverse()
    assert len(calls) == 1


@pytest.mark.parametrize("p", CAP_PRIMES)
def test_prime_field_products_are_exact_below_the_cap(p):
    fp = Field.prime(p)
    rng = random.Random(f"exact-product:{p}")
    # every inner dimension is above the 32 products that one float64 sum
    # of residues holds exactly at p = 16777213
    a, b = _residue_rows(p, 30, 100, rng), _residue_rows(p, 100, 25, rng)
    for x, y in ((a, b), ([[p - 1] * 100] * 30, [[p - 1] * 25] * 100)):
        assert (Mat.from_rows(fp, x) @ Mat.from_rows(fp, y)).row_list() == \
            reference_matmul_fp(x, y, p)
    mats = [_residue_rows(p, 3, 4, rng) for _ in range(40)]
    coeffs = _residue_rows(p, 40, 5, rng)
    combos = Span(fp, 3, 4, [Mat.from_rows(fp, m) for m in mats]).combine(
        Mat.from_rows(fp, coeffs))
    assert [c.reshape(1, 12).row_list()[0] for c in combos] == reference_matmul_fp(
        [list(col) for col in zip(*coeffs)], [sum(m, []) for m in mats], p)
    lefts = [_residue_rows(p, 6, 7, rng) for _ in range(3)]
    rights = [_residue_rows(p, 7, 6, rng) for _ in range(4)]
    form = trace_form(span_of([Mat.from_rows(fp, x) for x in lefts]),
                      span_of([Mat.from_rows(fp, y) for y in rights]))
    assert form.row_list() == [[sum(reference_matmul_fp(x, y, p)[i][i] for i in range(6)) % p
                                for y in rights] for x in lefts]


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
    # the rows over their common denominator, as a matrix stores them
    den = math.lcm(*(x.denominator for row in rows for x in row))
    w, got_den, piv = _echelon_qq([[x.numerator * (den // x.denominator) for x in row]
                                   for row in rows])
    assert ([[Fraction(x, got_den) for x in row] for row in w], piv) == reference_echelon_qq(rows)
    assert type(got_den) is int and got_den > 0
    assert all(type(x) is int for row in w for x in row)
    assert all(w[k][c] == got_den for k, c in enumerate(piv))
    return piv


def _check_matmul_qq(a, b):
    fk = QQ._kernel
    (x, dx), (y, dy) = fk.entries(a), fk.entries(b)
    got = fk.matmul(x, y)
    assert got.shape == (a.shape[0], b.shape[1])
    assert all(type(v) is int for v in got.ravel())
    assert fk.exact(got, dx * dy) == reference_matmul_qq(a, b)


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


# ---------------------------------------------------------------------------
# rational matrices over large denominators against plain-Fraction references
# ---------------------------------------------------------------------------

#: denominators of the entries: a Mersenne prime, a prime power, both at once
#: and small ones, so that operands have coprime and shared denominators
_BIG_DENS = (2 ** 61 - 1, 3 ** 40, (2 ** 61 - 1) * 3 ** 40, 1, 4, 9)


def _big_rows(rng, m, n, zero_rows=1):
    """Seeded m x n rows over the denominators ``_BIG_DENS``, about a third
    zeros, with ``zero_rows`` of them all zero."""
    rows = [[Fraction(0) if rng.random() < 0.35 else
             Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.choice(_BIG_DENS))
             for _ in range(n)] for _ in range(m)]
    for i in rng.sample(range(m), min(zero_rows, m)):
        rows[i] = [Fraction(0)] * n
    return rows


def _fraction_matmul(a, b):
    return reference_matmul_qq(np.array(a, dtype=object).reshape(len(a), len(b)),
                               np.array(b, dtype=object).reshape(len(b), len(b[0]) if b else 0))


def _fraction_kernel(rows, n):
    """The kernel basis that is the identity on the free columns, as
    columns, from ``reference_echelon_qq``."""
    w, piv = reference_echelon_qq(rows)
    free = [c for c in range(n) if c not in piv]
    out = [[Fraction(int(r == f)) for f in free] for r in range(n)]
    for k, c in enumerate(piv):
        out[c] = [-w[k][f] for f in free]
    return out


def _big_invertible(rng, n):
    """A unit lower times a unit upper triangular matrix, both over
    ``_BIG_DENS``: invertible."""
    low, up = (_big_rows(rng, n, n, zero_rows=0) for _ in range(2))
    return Mat.from_rows(QQ, [[x if i > j else int(i == j) for j, x in enumerate(r)]
                              for i, r in enumerate(low)]) @ \
        Mat.from_rows(QQ, [[x if i < j else int(i == j) for j, x in enumerate(r)]
                           for i, r in enumerate(up)])


def _q(rows):
    return Mat.from_rows(QQ, rows)


def _checked(m):
    _assert_canonical(m)
    return m.row_list()


def test_rational_solving_over_large_denominators_matches_fraction_references():
    rng = random.Random("qq-big-solve")
    for m, n in [(4, 4), (5, 3), (3, 6), (6, 6), (1, 5)]:
        rows = _big_rows(rng, m, n)
        a = _q(rows)
        other = _big_rows(rng, n, 3, zero_rows=0)
        assert _checked(a @ _q(other)) == _fraction_matmul(rows, other)
        assert a.pivot_columns() == reference_echelon_qq(rows)[1]
        _check_echelon_qq(rows)
        assert _checked(a.kernel()) == _fraction_kernel(rows, n)
        assert _checked(a.T.column_space().T) == reference_echelon_qq(rows)[0][:a.rank()]
        # a consistent right-hand side: the particular solution with free
        # variables zero is the last column of the reduced [A | b]
        x = _big_rows(rng, n, 1, zero_rows=0)
        rhs = _fraction_matmul(rows, x)
        w, piv = reference_echelon_qq([r + b for r, b in zip(rows, rhs)])
        want = [[Fraction(0)] for _ in range(n)]
        for k, c in enumerate(piv):
            want[c] = [w[k][n]]
        assert _checked(a.solve(_q(rhs))) == want
    for n in (1, 2, 4, 6):
        rows = _big_rows(rng, n, n, zero_rows=0)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        w, piv = reference_echelon_qq([r + e for r, e in zip(rows, ident)])
        if piv[:n] == list(range(n)):
            assert _checked(_q(rows).inverse()) == [r[n:] for r in w]


def test_rational_joins_over_large_denominators_match_fraction_references():
    rng = random.Random("qq-big-joins")
    for _ in range(6):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        # operands over coprime denominators: 2**61 - 1 and 3**40
        xs = [[[Fraction(rng.randint(-9, 9), d) for _ in range(n)] for _ in range(m)]
              for d in (2 ** 61 - 1, 3 ** 40, 1)]
        a, b, c = (_q(x) for x in xs)
        assert _checked(Mat.hcat(QQ, m, [a, b, c])) == [ra + rb + rc for ra, rb, rc in zip(*xs)]
        assert _checked(Mat.vcat(QQ, n, [a, b, c])) == xs[0] + xs[1] + xs[2]
        assert _checked(a + b) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(*xs[:2])]
        # overlapping blocks add
        got = Mat.assemble(QQ, m + 1, n + 1, [(0, 0, a), (1, 1, b), (0, 1, c)])
        want = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
        for (i, j), x in zip([(0, 0), (1, 1), (0, 1)], xs):
            for r in range(m):
                for s in range(n):
                    want[i + r][j + s] += x[r][s]
        assert _checked(got) == want
        # Kronecker blocks with both factors, an identity on either side, and
        # an overlap
        for blocks in ([(0, 0, a, b, 0)], [(0, 0, None, b, 2)], [(0, 0, a, None, 2)],
                       [(0, 0, a, c, 0), (0, 0, b, c, 0), (1, 1, None, a, 2)]):
            shape = _kron_extent(blocks)
            assert _checked(Mat.kron_assemble(QQ, *shape, blocks)) == \
                _ref_kron_assemble(QQ, *shape, blocks)
        # combinations and the trace form
        coeffs = _big_rows(rng, 3, 2, zero_rows=0)
        combos = Span(QQ, m, n, [a, b, c]).combine(_q(coeffs))
        for j, combo in enumerate(combos):
            assert _checked(combo) == [[sum((coeffs[k][j] * xs[k][r][s] for k in range(3)),
                                            Fraction(0)) for s in range(n)] for r in range(m)]
        form = trace_form(span_of([a, b, c]), span_of([a.T, c.T]))
        assert _checked(form) == [[sum((x[r][s] * y[r][s] for r in range(m) for s in range(n)),
                                       Fraction(0)) for y in (xs[0], xs[2])] for x in xs]


def test_rational_minimal_polynomial_and_hom_basis_over_large_denominators():
    rng = random.Random("qq-big-minpoly")
    for n in (1, 2, 3, 4):
        for rows in (_big_rows(rng, n, n, zero_rows=0), _big_rows(rng, n, n, zero_rows=1)):
            mp = _q(rows).minimal_polynomial()
            assert all(type(c) is Fraction for c in mp) and mp[-1] == 1
            # sum c_k t^k == 0 in plain Fraction arithmetic, and no power
            # below the last depends on the lower ones
            powers = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
            for _ in range(len(mp) - 1):
                powers.append(_fraction_matmul(powers[-1], rows))
            total = [[sum((c * p[i][j] for c, p in zip(mp, powers)), Fraction(0))
                      for j in range(n)] for i in range(n)]
            assert total == [[0] * n for _ in range(n)]
            flat = [[x for r in p for x in r] for p in powers[:-1]]
            assert len(reference_echelon_qq(flat)[1]) == len(powers) - 1
    # a nilpotent pair conjugated by matrices over large denominators, cut
    # down by a pair of idempotents conjugated the same way
    nonempty = 0
    for sizes_s, sizes_t in (([2, 1], [2]), ([3], [2, 1]), ([2, 2], [2, 1, 1])):
        d, e = sum(sizes_s), sum(sizes_t)
        ps, pt = _big_invertible(rng, d), _big_invertible(rng, e)
        s = ps @ jordan_shift(QQ, sizes_s) @ ps.inverse()
        t = pt @ jordan_shift(QQ, sizes_t) @ pt.inverse()
        r = ps @ Mat.unit(QQ, d, d, 0, 0) @ ps.inverse()
        r2 = pt @ Mat.unit(QQ, e, e, 0, 0) @ pt.inverse()
        got = mapped_hom_basis(s, t, [(r, r2)])
        sr, tr, rr, r2r = (x.row_list() for x in (s, t, r, r2))
        for g in got:
            gr = _checked(g)
            assert _fraction_matmul(gr, sr) == _fraction_matmul(tr, gr)
            assert _fraction_matmul(gr, rr) == _fraction_matmul(r2r, gr)
        assert got == reference_hom_pencil(QQ, e, d, [(s, t), (r, r2)])
        nonempty += bool(got)
    assert nonempty >= 2
