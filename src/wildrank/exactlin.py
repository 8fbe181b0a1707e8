"""Exact scalar and matrix arithmetic over the rationals and prime fields.

Scalars are plain ``Fraction`` values over the rationals and plain ``int``
residues in ``[0, p)`` over a prime field.  A ``Mat`` stores its entries in
one read-only 2-D numpy array whichever the field: ``float64`` residues over
F_p, ``Fraction`` objects (``dtype=object``) over Q.  Every operation is
written once on that array.  What really differs between the fields lives in
one small private kernel per field, picked once when the ``Field`` is made:

* ``_PrimeKernel``: scalars mod p, reduction ``% p``, ``int`` read-out, the
  blocked echelon form ``_echelon_fp`` and the BLAS product.  Prime-field
  arithmetic reduces mod p only now and then (delayed modular reduction),
  so it is exact only while every intermediate value stays below 2**53.
  ``Field.prime`` refuses p >= 2**53, so every residue is an exact
  ``float64``; no smaller cap that keeps the products exact is proved or
  enforced yet.
* ``_RationalKernel``: ``Fraction`` scalars, making every entry a
  ``Fraction``, the reduced echelon form ``_echelon_qq`` and a product that
  skips zero entries.  Both work on integer rows (each row, or each whole
  operand, cleared of denominators) and build the ``Fraction`` entries of
  the result once, in one normalization at the end.

``Mat.kernel`` eliminates only the support of a matrix, its nonzero rows
and nonzero columns, which leaves its result unchanged: zero rows add
nothing to the row space, a zero column is never a pivot (its kernel
vector is its unit vector), and the kernel basis is the unique one that is
the identity on the free columns.  Hom systems are mostly zeros, so most
of their elimination is skipped.  ``column_space`` stays on the whole matrix: it
reads its basis from the non-reduced echelon form over F_p, whose rows
depend on the row swaps that zero rows take part in.  ``rank`` and
``pivot_columns`` stay on it too: their inputs are small and dense, where
finding the support costs more than it saves.

The storage stays inside this module: other modules build and combine
matrices only through ``Mat`` operations,

* ``assemble`` (a sum of blocks placed at offsets), ``kron_assemble`` (a
  sum of Kronecker products placed at offsets, identity factors placed as
  copies: every linear system in a matrix unknown, by vec(L X R) =
  (L ⊗ R^T) vec(X)), ``hcat``/``vcat`` (many matrices side by side or on
  top of each other), ``lincomb`` (a linear combination), ``unit`` (a
  matrix unit) and row-major ``reshape``;
* ``column_space`` and ``minimal_polynomial``, next to rank, kernel, solve
  and inverse;
* ``nilpotent_hom_basis``, the maps that intertwine a nilpotent pair and
  any further pairs, solved in Jordan coordinates (``jordan_nilpotent``
  gives the Jordan frame, the basis with its inverse and the block sizes),
  ``trace_form``, the traces of all pairwise products of two lists of
  matrices, and ``trace_radical``, the radical of the algebra a ``Span``
  spans when its trace form certifies it;
* ``Span``, one list of matrices stacked once, whose ``combine`` returns
  many linear combinations of them (one per column of a coefficient
  matrix) from one product; ``lincomb`` is its one-column case.

All operations are pure, and the entries of every ``Mat`` are immutable
after construction.  The one thing stored later is a memo: the Jordan
frame of a nilpotent ``Mat``, computed once per ``Mat`` object.
Randomized searches take an explicit seed and are deterministic under it.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

#: widest panel used by the blocked prime-field elimination
_PANEL = 128


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes (a usage error, not inconsistency)."""


class Field:
    """Ground field for exact computation: the rationals or F_p with p >= 5.

    ``char == 0`` means the rationals; otherwise ``char`` is the prime p.
    The toolkit computes over these fields as exact stand-ins for an
    algebraically closed field; closedness failures surface at the module
    level (endomorphism-ring analysis), never silently.
    """

    __slots__ = ("char", "_kernel")

    def __init__(self, char: int = 0):
        # the one place that looks at the characteristic: everything that
        # differs between the fields is in the kernel picked here
        self._kernel = _PrimeKernel(char) if char else _RationalKernel()
        self.char = char

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "Field":
        """F_p; ``ValueError`` unless p is a prime with 5 <= p < 2**53."""
        return cls(p)

    # -- scalar helpers ----------------------------------------------------

    def coerce(self, x) -> Scalar:
        """Coerce an int / Fraction / string like '2/3' into a field scalar."""
        return self._kernel.coerce(x)

    @property
    def zero(self) -> Scalar:
        return self._kernel.zero

    @property
    def one(self) -> Scalar:
        return self._kernel.one

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self._kernel.coerce(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self._kernel.coerce(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self._kernel.coerce(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return self._kernel.coerce(-a)

    def inv(self, a: Scalar) -> Scalar:
        return self._kernel.inv(a)

    def random_scalar(self, rng: random.Random) -> Scalar:
        """Uniform over F_p; small integers in [-9, 9] over the rationals."""
        return self._kernel.random_scalar(rng)

    def random_nonzero(self, rng: random.Random) -> Scalar:
        while True:
            x = self.random_scalar(rng)
            if x != 0:
                return x

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return self._kernel.name


#: the first twelve primes: as Miller-Rabin bases they decide primality of
#: every n < 318665857834031151167461 (Sorenson and Webster, Math. Comp. 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact far beyond 2**64."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# prime-field kernels (numpy, delayed reduction)
# ---------------------------------------------------------------------------

def _echelon_fp(a: np.ndarray, p: int, panel: int = _PANEL):
    """Row echelon form mod p with unit pivots and zeros below each pivot.

    Each column panel is factored inside a contiguous buffer (cache friendly),
    then the trailing block is updated with one triangular pass plus one GEMM.
    Entries may exceed p mid-panel; they stay exact in float64 only while
    they stay below 2**53.  Pivot rows are scaled before they are reduced and
    a GEMM sums a whole panel of products, so the growth is nearer
    ``n * p**3`` than ``panel * p**2``: exact for small p such as 101, not
    for p near 10**6 and above.  No cap on p is enforced yet.
    Returns ``(w, pivot_columns)`` with w fully reduced mod p.
    """
    w = np.array(a, dtype=np.float64)
    m, n = w.shape
    if m == 0 or n == 0:
        return w % p if w.size else w, []
    allpiv: list[int] = []
    row = 0
    ps = 0
    sub = 16
    while ps < n and row < m:
        pe = min(ps + panel, n)
        nb = pe - ps
        # factor the panel in a contiguous buffer
        pb = w[row:, ps:pe].copy()
        pb %= p
        ma = pb.shape[0]
        perm = np.arange(ma)
        pivcols: list[int] = []
        invs: list[float] = []
        r = 0
        # two-level blocking: rank-1 updates stay inside a narrow sub-panel,
        # the rest of the panel is updated with one small GEMM per sub-panel
        for ss in range(0, nb, sub):
            se = min(ss + sub, nb)
            r_sub = r
            sub_piv: list[int] = []
            sub_invs: list[float] = []
            for c in range(ss, se):
                if r >= ma:
                    break
                pb[r:, c] %= p
                col = pb[r:, c]
                nz = int(np.argmax(col != 0))
                if col[nz] == 0:
                    continue
                if nz:
                    i = r + nz
                    pb[[r, i]] = pb[[i, r]]
                    perm[[r, i]] = perm[[i, r]]
                inv = float(pow(int(pb[r, c]), p - 2, p))
                pb[r, c + 1:se] = (pb[r, c + 1:se] * inv) % p
                pb[r, c] = 1.0
                f = pb[r + 1:, c]
                f %= p
                if f.size and f.any():
                    pb[r + 1:, c + 1:se] -= f[:, None] * pb[r, c + 1:se][None, :]
                pivcols.append(c)
                sub_piv.append(c)
                invs.append(inv)
                sub_invs.append(inv)
                r += 1
            k_sub = len(sub_piv)
            if k_sub and se < nb:
                # triangular pass over the sub-panel pivot rows, then GEMM below
                t_sub = pb[r_sub:r, se:]
                for k in range(k_sub):
                    t_sub[k] = (t_sub[k] * sub_invs[k]) % p
                    if k + 1 < k_sub:
                        fk = pb[r_sub + k + 1:r, sub_piv[k]] % p
                        if fk.any():
                            t_sub[k + 1:] -= fk[:, None] * t_sub[k][None, :]
                t_sub %= p
                if r < ma:
                    l_sub = pb[r:, sub_piv] % p
                    if l_sub.any():
                        pb[r:, se:] -= l_sub @ t_sub
        k_piv = len(pivcols)
        if k_piv:
            if not np.array_equal(perm, np.arange(ma)):
                w[row:, pe:] = w[row:, pe:][perm]
            if pe < n:
                t_blk = w[row:row + k_piv, pe:]
                for k in range(k_piv):
                    t_blk[k] = (t_blk[k] * invs[k]) % p
                    if k + 1 < k_piv:
                        fk = pb[k + 1:k_piv, pivcols[k]] % p
                        if fk.any():
                            t_blk[k + 1:] -= fk[:, None] * t_blk[k][None, :]
                t_blk %= p
                if row + k_piv < m:
                    l_blk = pb[k_piv:, pivcols] % p
                    if l_blk.any():
                        w[row + k_piv:, pe:] -= l_blk @ t_blk
            # store the clean echelon panel (zeros below pivots)
            for k, c in enumerate(pivcols):
                pb[k + 1:, c] = 0.0
            pb[:k_piv] %= p
            pb[k_piv:] %= p
            w[row:, ps:pe] = pb
        else:
            w[row:, ps:pe] = pb % p
        allpiv.extend(ps + c for c in pivcols)
        row, ps = row + k_piv, pe
    w[row:, :] %= p
    return w, allpiv


# ---------------------------------------------------------------------------
# rational kernels (integer rows, one normalization at the end)
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _integer_row(xs) -> tuple[int, list[int]]:
    """``(d, ints)`` with ``xs == [k / d for k in ints]`` and d the least
    common multiple of the denominators of the rationals ``xs``."""
    den = math.lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _over(ints: list[int], den: int) -> list[Fraction]:
    """The ``Fraction`` values ``k / den``, sharing one zero."""
    return [Fraction(k, den) if k else _ZERO for k in ints]


def _echelon_qq(rows: list[list[Fraction]]):
    """Reduced echelon over the rationals. Returns (rows, pivot columns).

    Fraction-free Gauss-Jordan: each row is cleared to integers, a row is
    eliminated as ``a * row - b * pivot_row`` and divided by the gcd of its
    entries, so an update pays one gcd per row, not one per entry.  Pivot
    row k becomes a ``Fraction`` row once, over its pivot; the rows past the
    rank are zero.
    The pivot choice (first nonzero entry at or below the current row) is
    that of a plain rational elimination, and a reduced echelon form is
    unique, so both give the same rows and pivots.
    """
    w = [_integer_row(r)[1] for r in rows]
    m = len(w)
    n = len(w[0]) if m else 0
    piv: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if w[i][c]), None)
        if sel is None:
            continue
        w[r], w[sel] = w[sel], w[r]
        prow = w[r]
        a = prow[c]
        for i in range(m):
            row = w[i]
            b = row[c]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                if g > 1:          # an all-zero row has gcd 0 and stays
                    row = [x // g for x in row]
                w[i] = row
        piv.append(c)
        r += 1
    out = [_over(w[k], w[k][c]) for k, c in enumerate(piv)]
    out.extend([_ZERO] * n for _ in range(m - r))
    return out, piv


# ---------------------------------------------------------------------------
# field kernels: what differs between F_p and Q, and nothing else
# ---------------------------------------------------------------------------

class _PrimeKernel:
    """F_p: ``int`` scalars in [0, p), ``float64`` arrays of residues.

    ``coerce`` makes any integer, ``Fraction`` or array entry a residue,
    ``normalize`` reduces an array mod p, ``exact`` reads entries out as
    ``int``, ``echelon`` is the blocked ``_echelon_fp`` (unit pivots,
    zeros below them) and ``matmul`` the BLAS product (reduced afterwards by
    ``normalize``).
    """

    __slots__ = ("p", "name")
    dtype = np.float64
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= 2 ** 53:
            # the residue p - 1 must be an exact float64
            raise ValueError(f"prime field characteristic must be below 2**53, got {p}")
        if p < 5 or not _is_prime(p):
            raise ValueError(f"prime field characteristic must be a prime >= 5, got {p}")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def inv(self, a):
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def exact(self, a: np.ndarray) -> np.ndarray:
        return a.astype(np.int64)

    def echelon(self, a: np.ndarray):
        return _echelon_fp(a, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b


class _RationalKernel:
    """Q: ``Fraction`` scalars and object arrays of ``Fraction`` entries.

    ``coerce`` and ``normalize`` make a scalar or every entry of an array a
    ``Fraction``, ``exact`` returns entries as they are and ``echelon`` is the
    fraction-free reduced echelon form ``_echelon_qq``.  ``matmul`` clears
    each operand to one integer matrix over a common denominator, multiplies
    on ``int`` in a row loop that skips zero entries (a dense object-array
    product multiplies every zero it meets) and divides each entry of the
    result once by the product of the two denominators.
    """

    __slots__ = ()
    name = "Q"
    dtype = object
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def random_scalar(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-9, 9))

    @staticmethod
    def _array(data, shape) -> np.ndarray:
        return np.array(data, dtype=object).reshape(shape)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return self._array([x if type(x) is Fraction else Fraction(x)
                            for x in a.ravel().tolist()], a.shape)

    def exact(self, a: np.ndarray) -> np.ndarray:
        return a

    def echelon(self, a: np.ndarray):
        w, piv = _echelon_qq(a.tolist())
        return self._array(w, a.shape), piv

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        (m, k), cols = a.shape, b.shape[1]
        da, ia = _integer_row(a.ravel().tolist())
        db, ib = _integer_row(b.ravel().tolist())
        den = da * db
        nonzero = [[(j, y) for j, y in enumerate(ib[i * cols:(i + 1) * cols]) if y]
                   for i in range(k)]
        out: list[Fraction] = []
        for i in range(m):
            acc = [0] * cols
            for x, terms in zip(ia[i * k:(i + 1) * k], nonzero):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            out.extend(_over(acc, den))
        return self._array(out, (m, cols))


QQ = Field.rationals()
F101 = Field.prime(101)


# ---------------------------------------------------------------------------
# Mat
# ---------------------------------------------------------------------------

def _zeros(field: Field, rows: int, cols: int) -> np.ndarray:
    """A writable ``rows x cols`` array of the field's zero."""
    arr = np.empty((rows, cols), dtype=field._kernel.dtype)
    arr.fill(field.zero)
    return arr


def _identity(field: Field, n: int) -> np.ndarray:
    """A writable ``n x n`` identity array."""
    arr = _zeros(field, n, n)
    arr.ravel()[::n + 1] = field.one
    return arr


def _nonzero_lines(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the nonzero rows and of the nonzero columns of the matrices
    on the last two axes of ``a``."""
    nz = a.astype(bool)
    return nz.any(axis=-1), nz.any(axis=-2)


def _on_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sub, cols)``: the submatrix of ``a`` on its nonzero rows and nonzero
    columns, and the indices of those columns.  ``sub`` is ``a`` itself,
    not a copy, when ``a`` has no zero row and no zero column."""
    rows, cols = _nonzero_lines(a)
    idx = np.flatnonzero(cols)
    if idx.size == a.shape[1] and rows.all():
        return a, idx
    return a[np.ix_(rows, cols)], idx


def _back_substitute(fk, w: np.ndarray, piv: Sequence[int], rhs: np.ndarray) -> np.ndarray:
    """X with ``w[i, piv] @ X == rhs[i]`` for the first ``len(piv)`` rows of
    an echelon form ``w`` (unit pivots at ``piv``, zeros below them), solved
    from the bottom row up.  Over a reduced echelon form every tail is zero
    and X is ``rhs``."""
    x = np.array(rhs)
    for i in range(len(piv) - 1, -1, -1):
        tail = w[i, piv[i + 1:]]
        if tail.any():
            x[i] = fk.normalize(x[i] - tail @ x[i + 1:])
    return x


class Mat:
    """An immutable exact matrix over a :class:`Field`.

    The entries are one read-only ``rows x cols`` numpy array, ``_entries``:
    ``float64`` residues in ``[0, p)`` over F_p, ``Fraction`` objects over
    Q.  Every operation below is written once on that array; the few steps
    that differ between the fields (normalizing an array, reading entries
    out, the echelon form and the product) go through the field's kernel.
    The entries never change after construction; the one slot written
    later is ``_frame``, the Jordan frame that ``_jordan_frame`` memoises.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_frame")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        fk = field._kernel
        arr = np.asarray(data, dtype=fk.dtype)
        if arr.shape != (rows, cols):
            if arr.size or rows * cols:
                raise ShapeMismatchError(
                    f"data of shape {arr.shape} does not match declared shape ({rows}, {cols})")
            arr = arr.reshape(rows, cols)
        arr = fk.normalize(arr)
        arr.setflags(write=False)
        self._entries = arr
        self._frame = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise ShapeMismatchError("ragged rows")
        coerce = field._kernel.coerce
        return cls(field, m, n, [[coerce(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, _zeros(field, rows, cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, n, n, _identity(field, n))

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        coerce = field._kernel.coerce
        return cls(field, len(entries), 1, [[coerce(x)] for x in entries])

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng: random.Random) -> "Mat":
        return cls(field, rows, cols,
                   [[field.random_scalar(rng) for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def unit(cls, field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        """The matrix unit: one at (i, j), zero elsewhere."""
        return cls.assemble(field, rows, cols, [(i, j, cls.identity(field, 1))])

    @classmethod
    def assemble(cls, field: Field, rows: int, cols: int, blocks) -> "Mat":
        """The ``rows x cols`` sum of the blocks ``(i, j, b)``, each placed with
        its top-left entry at (i, j); overlapping blocks add."""
        out = _zeros(field, rows, cols)
        for i, j, b in blocks:
            if b.field != field:
                raise ShapeMismatchError("field mismatch")
            if i < 0 or j < 0 or i + b.rows > rows or j + b.cols > cols:
                raise ShapeMismatchError(f"block {b.shape} at ({i}, {j}) leaves {rows}x{cols}")
            out[i:i + b.rows, j:j + b.cols] += b._entries
        return cls(field, rows, cols, out)

    @classmethod
    def kron_assemble(cls, field: Field, rows: int, cols: int, blocks) -> "Mat":
        """The ``rows x cols`` sum of the Kronecker products ``x ⊗ y`` of the
        blocks ``(i, j, x, y, n)``, each placed with its top-left entry at
        (i, j); overlapping blocks add.

        Row-major, vec(L X R) = (L ⊗ R^T) vec(X), so every linear system in
        a matrix unknown X is one call.  A None factor stands for the
        ``n x n`` identity (at most one per block; n is read only then) and
        is placed as copies: I_n ⊗ y is n copies of y down the diagonal, and
        x ⊗ I_n puts each entry x[r, c] on the diagonal of block (r, c).
        With both factors given, the outer product is formed at the nonzero
        entries of x only.  A block that overlaps no earlier one is written
        rather than added (over Q, adding a Fraction to zero costs about as
        much as a product).
        """
        out = _zeros(field, rows, cols)
        placed: list[tuple[int, int, int, int]] = []
        for i, j, x, y, n in blocks:
            if any(f is not None and f.field != field for f in (x, y)):
                raise ShapeMismatchError("field mismatch")
            xr, xc = (n, n) if x is None else x.shape
            yr, yc = (n, n) if y is None else y.shape
            h, w = xr * yr, xc * yc
            if i < 0 or j < 0 or i + h > rows or j + w > cols:
                raise ShapeMismatchError(f"block ({h}, {w}) at ({i}, {j}) leaves {rows}x{cols}")
            fresh = all(i + h <= i0 or i1 <= i or j + w <= j0 or j1 <= j
                        for i0, i1, j0, j1 in placed)
            placed.append((i, i + h, j, j + w))
            view = out[i:i + h, j:j + w].reshape(xr, yr, xc, yc, copy=False)
            if x is None or y is None:
                k, whole = np.arange(n), slice(None)
                at, part = (((k, whole, k, whole), y._entries) if x is None
                            else ((whole, k, whole, k), x._entries))
                if fresh:
                    view[at] = part
                else:
                    view[at] += part
            else:
                # the outer product into a 4-d view: np.kron's generic path
                # costs more than the product on the small blocks of witnesses
                a, b = x._entries[:, None, :, None], y._entries[None, :, None, :]
                nz = np.broadcast_to(a != 0, view.shape)
                if fresh:
                    np.multiply(a, b, out=view, where=nz)
                else:
                    np.add(view, np.multiply(a, b, out=None, where=nz), out=view, where=nz)
        return cls(field, rows, cols, out)

    @classmethod
    def hcat(cls, field: Field, rows: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``rows`` rows, side by side."""
        for m in mats:
            if m.field != field or m.rows != rows:
                raise ShapeMismatchError(f"hcat of {m.shape} over {m.field} onto {rows} rows")
        return cls(field, rows, sum(m.cols for m in mats),
                   np.concatenate([m._entries for m in mats], axis=1) if mats
                   else _zeros(field, rows, 0))

    @classmethod
    def vcat(cls, field: Field, cols: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``cols`` columns, stacked top to bottom."""
        for m in mats:
            if m.field != field or m.cols != cols:
                raise ShapeMismatchError(f"vcat of {m.shape} over {m.field} onto {cols} cols")
        return cls(field, sum(m.rows for m in mats), cols,
                   np.concatenate([m._entries for m in mats], axis=0) if mats
                   else _zeros(field, 0, cols))

    @classmethod
    def lincomb(cls, field: Field, rows: int, cols: int, coeffs: Sequence,
                mats: Sequence["Mat"]) -> "Mat":
        """The ``rows x cols`` combination ``sum c_k * M_k`` of paired
        coefficients and matrices: the one-column case of ``Span.combine``."""
        return Span(field, rows, cols, mats).combine(cls.column(field, coeffs))[0]

    # -- accessors ----------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.field._kernel.coerce(self._entries[i, j])

    def row_list(self) -> list[list[Scalar]]:
        return self.field._kernel.exact(self._entries).tolist()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._entries.any()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or other.field != self.field or other.shape != self.shape:
            return False
        return bool((self._entries == other._entries).all())

    def __hash__(self):
        # entries as Python numbers: equal residues and equal fractions hash
        # equal (an object array's bytes would be pointers)
        return hash((self.field, self.rows, self.cols, tuple(self._entries.ravel().tolist())))

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------------

    def _require_same_field(self, other: "Mat"):
        if self.field != other.field:
            raise ShapeMismatchError("field mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._require_same_field(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"add {self.shape} vs {other.shape}")
        return Mat(self.field, self.rows, self.cols, self._entries + other._entries)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(self.field.coerce(-1))

    def __neg__(self) -> "Mat":
        return self.scaled(self.field.coerce(-1))

    def scaled(self, c) -> "Mat":
        return Mat(self.field, self.rows, self.cols, self._entries * self.field.coerce(c))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"matmul {self.shape} @ {other.shape}")
        return Mat(self.field, self.rows, other.cols,
                   self.field._kernel.matmul(self._entries, other._entries))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows, self._entries.T)

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ShapeMismatchError("trace of a non-square matrix")
        return self.field.coerce(self._entries.trace())

    def kron(self, other: "Mat") -> "Mat":
        """The Kronecker product: the one-block case of ``kron_assemble``."""
        return Mat.kron_assemble(self.field, self.rows * other.rows, self.cols * other.cols,
                                 [(0, 0, self, other, 0)])

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries in row-major order, refilled as ``rows x cols``."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"reshape {self.shape} to ({rows}, {cols})")
        return Mat(self.field, rows, cols, self._entries.reshape(rows, cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(self.field, len(row_idx), len(col_idx),
                   self._entries[np.ix_(row_idx, col_idx)] if row_idx and col_idx
                   else _zeros(self.field, len(row_idx), len(col_idx)))

    # -- solving -------------------------------------------------------------

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """The pivot columns of an echelon form: the columns a greedy pass
        keeps, each one independent of all columns before it."""
        return self.field._kernel.echelon(self._entries)[1]

    def kernel(self) -> "Mat":
        """Matrix whose columns form a basis of the right null space: the
        unique basis that is the identity on the free (non-pivot) columns.

        Only the support is eliminated, the nonzero rows and the nonzero
        columns; the result is the same matrix as from the whole one.  Zero
        rows do not change the row space.  A zero column is never a pivot,
        so it is a free column whose kernel vector is its unit vector, and
        the pivots among the other columns are the same with or without it.
        (``column_space`` keeps the whole matrix: see the module docstring.)
        """
        fk = self.field._kernel
        sub, cols = _on_support(self._entries)
        w, sub_piv = fk.echelon(sub)
        is_free = np.ones(self.cols, dtype=bool)
        is_free[cols[sub_piv]] = False
        free = np.flatnonzero(is_free)
        out = _zeros(self.field, self.cols, free.size)
        out[free, np.arange(free.size)] = self.field.one
        sub_free = np.flatnonzero(is_free[cols])
        if sub_piv and sub_free.size:
            # rows: the pivot columns; columns: where the support's free
            # columns sit among all free columns
            out[np.ix_(cols[sub_piv], np.searchsorted(free, cols[sub_free]))] = fk.normalize(
                -_back_substitute(fk, w, sub_piv, w[:len(sub_piv), sub_free]))
        return Mat(self.field, self.cols, free.size, out)

    def column_space(self) -> "Mat":
        """A basis of the column space, as the columns of the result."""
        if self.cols == 0:
            return Mat.zeros(self.field, self.rows, 0)
        w, piv = self.field._kernel.echelon(self._entries.T)
        return Mat(self.field, self.rows, len(piv), w[:len(piv)].T)

    def solve(self, b: "Mat"):
        """Particular solution of self @ x = b (b a column), or None."""
        if b.rows != self.rows or b.cols != 1:
            raise ShapeMismatchError(f"rhs shape {b.shape} does not match {self.rows} rows")
        return self.solve_matrix(b)

    def solve_matrix(self, b: "Mat"):
        """Particular solution X of self @ X = B with free variables zero, or
        None when some column is inconsistent; one elimination for all columns."""
        if b.rows != self.rows:
            raise ShapeMismatchError("solve_matrix row mismatch")
        self._require_same_field(b)
        n = self.cols
        if b.cols == 0:
            return Mat.zeros(self.field, n, 0)
        fk = self.field._kernel
        w, piv = fk.echelon(np.concatenate([self._entries, b._entries], axis=1))
        if piv and piv[-1] >= n:
            return None
        x = _zeros(self.field, n, b.cols)
        x[piv] = _back_substitute(fk, w, piv, w[:len(piv), n:])
        x = Mat(self.field, n, b.cols, x)
        # the residual guards the elimination: a nonzero one means no solution
        return x if self @ x == b else None

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise ShapeMismatchError("inverse of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        fk = self.field._kernel
        w, piv = fk.echelon(np.concatenate([self._entries, _identity(self.field, n)], axis=1))
        if len(piv) < n or piv[n - 1] != n - 1:
            raise ZeroDivisionError("matrix is singular")
        return Mat(self.field, n, n, _back_substitute(fk, w, piv[:n], w[:n, n:]))

    def minimal_polynomial(self) -> list:
        """Exact minimal polynomial of a square matrix, ascending coefficients.

        Incremental echelon over the flattened Krylov sequence I, t, t^2, ...;
        the tracked expression gives the monic dependence when it appears.
        """
        if not self.is_square():
            raise ShapeMismatchError("minimal polynomial of a non-square matrix")
        field, fk = self.field, self.field._kernel
        n = self.rows
        if n == 0:
            return [field.one]
        # each Krylov row carries its expression in the powers after the
        # n*n entries, so one row operation reduces both; reduced rows are
        # kept as (pivot, nonzero columns, values) and touch only those
        width = n * n
        powers = _identity(field, n + 1)
        reduced: list[tuple[int, np.ndarray, np.ndarray]] = []
        cur = Mat.identity(field, n)
        for k in range(n + 1):
            row = np.concatenate([cur._entries.ravel(), powers[k]])
            for piv, cols, vals in reduced:
                f = row[piv]
                if f:
                    row[cols] = fk.normalize(row[cols] - f * vals)
            nz = np.flatnonzero(row[:width])
            if not nz.size:
                return fk.exact(row[width:width + k + 1]).tolist()
            cols = np.flatnonzero(row)
            inv = fk.inv(fk.coerce(row[nz[0]]))
            reduced.append((int(nz[0]), cols, fk.normalize(row[cols] * inv)))
            cur = cur @ self
        raise RuntimeError("minimal polynomial search exceeded the dimension")


def trace_form(lefts: Sequence[Mat], rights: Sequence[Mat]) -> Mat:
    """The matrix with entry (i, j) equal to ``tr(lefts[i] @ rights[j])``.

    One product of the row-major flattened ``lefts`` with the flattened
    transposes of ``rights``, since tr(AB) = vec(A) . vec(B^T).  ``lefts``
    and ``rights`` are nonempty; every left is n x m and every right m x n.
    """
    field = lefts[0].field
    n, m = lefts[0].shape
    for x in lefts:
        if x.field != field or x.shape != (n, m):
            raise ShapeMismatchError(f"trace form of {x.shape} among ({n}, {m}) lefts")
    for y in rights:
        if y.field != field or y.shape != (m, n):
            raise ShapeMismatchError(f"trace form of {y.shape} against ({n}, {m}) lefts")
    flat_left = np.stack([x._entries.ravel() for x in lefts])
    flat_right = np.stack([y._entries.T.ravel() for y in rights], axis=1)
    return Mat(field, len(lefts), len(rights), field._kernel.matmul(flat_left, flat_right))


class Span:
    """Linear combinations of one list of ``rows x cols`` matrices.

    The matrices are flattened once, row-major, into the rows of a stack.
    ``combine`` then builds any number of combinations with one kernel
    product: the transposed coefficient matrix times the stack.  The
    product's inner dimension is the number of matrices, k, so over F_p
    each entry sums k products of residues before its one reduction: exact
    while ``k * (p - 1)**2 < 2**53``, which no cap on p enforces yet.
    ``Mat.lincomb`` is the one-column case.
    """

    __slots__ = ("field", "rows", "cols", "mats", "_stack")

    def __init__(self, field: Field, rows: int, cols: int, mats: Sequence[Mat]):
        for m in mats:
            if m.field != field or m.shape != (rows, cols):
                raise ShapeMismatchError(f"combination of {m.shape} into {rows}x{cols}")
        self.field, self.rows, self.cols = field, rows, cols
        self.mats = list(mats)
        self._stack = (np.stack([m._entries.reshape(rows * cols) for m in mats]) if mats
                       else _zeros(field, 0, rows * cols))

    def combine(self, coeffs: Mat) -> list[Mat]:
        """The combinations ``sum_k coeffs[k, j] * mats[k]``, one per column j
        of the ``len(mats) x c`` coefficient matrix."""
        if coeffs.field != self.field or coeffs.rows != len(self.mats):
            raise ShapeMismatchError(
                f"coefficients {coeffs.shape} over {coeffs.field} for {len(self.mats)} matrices")
        flat = self.field._kernel.matmul(coeffs._entries.T, self._stack)
        return [Mat(self.field, self.rows, self.cols, row.reshape(self.rows, self.cols))
                for row in flat]


# ---------------------------------------------------------------------------
# nilpotent Jordan structure
# ---------------------------------------------------------------------------

def nilpotency_index(s: Mat) -> Optional[int]:
    """Least m with s**m = 0, or None when s is not nilpotent."""
    if not s.is_square():
        raise ShapeMismatchError("nilpotency is defined for square matrices")
    n = s.rows
    if n == 0 or s.is_zero():
        return 0 if n == 0 else 1
    power = s
    m = 1
    while m <= n:
        if power.is_zero():
            return m
        power = power @ s
        m += 1
    return None


def trace_radical(span: Span, ker: Optional[Mat] = None) -> Optional[Mat]:
    """The radical of the unital matrix algebra A spanned by ``span.mats``,
    as coefficient columns, or None when the trace form cannot certify it.

    The kernel I of (a, b) -> tr(ab) on A is a two-sided ideal, since
    tr((ab)c) = tr(a(bc)), and it holds rad A, whose products are
    nilpotent and so traceless.  When every combination the kernel columns
    give is nilpotent, I/rad A is an ideal of the semisimple A/rad A spanned
    by nilpotents; each has reduced trace 0 and the reduced trace vanishes
    on no nonzero semisimple algebra, so I = rad A.  This holds in every
    characteristic; where I also holds a non-nilpotent element (as 1 does
    when the characteristic divides the size of the matrices) the answer
    is None.  ``Mat.kernel`` returns the one basis that is the identity on
    the free columns, so equal spaces give equal results.  ``span.mats`` is
    nonempty.  ``ker``, when given, is that kernel, computed already.
    """
    if ker is None:
        ker = trace_form(span.mats, span.mats).kernel()
    if any(nilpotency_index(x) is None for x in span.combine(ker)):
        return None
    return ker


def jordan_nilpotent(s: Mat) -> tuple[Mat, Mat, tuple[int, ...]]:
    """Jordan frame of a nilpotent matrix: ``(P, P_inv, sizes)``.

    ``s @ P == P @ J`` where J is block diagonal with nilpotent Jordan
    blocks of the given sizes (ones on the superdiagonal).  Each chain is
    stored as columns ``s^(a-1) v, ..., s v, v``.  ``P_inv`` comes from the
    one elimination that also certifies that P is invertible.
    ``_jordan_frame`` memoises the frame on ``s``.
    """
    n = s.rows
    if n == 0:
        return Mat.identity(s.field, 0), Mat.identity(s.field, 0), ()
    field = s.field
    # kernel filtration
    kernels = []
    power = Mat.identity(field, n)
    while True:
        power = power @ s if kernels else s
        ker = power.kernel()
        kernels.append(ker)
        if ker.cols == n:
            break
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
    m = len(kernels)

    chains: list[list[Mat]] = []
    for i in range(m, 0, -1):
        ki = kernels[i - 1]
        # chains of length i start at the columns of ker s^i that are
        # independent of ker s^(i-1) and of the longer chains passing level i
        base = [kernels[i - 2]] if i >= 2 else []
        base.extend(chain[len(chain) - i] for chain in chains if len(chain) > i)
        nb = sum(b.cols for b in base)
        if nb >= ki.cols:
            continue
        if nb == 0:
            heads = range(ki.cols)         # a kernel basis is independent
        else:
            piv = Mat.hcat(field, n, base + [ki]).pivot_columns()
            heads = [p - nb for p in piv if p >= nb]
        for j in heads:
            chain = [ki.submatrix(range(n), [j])]
            for _ in range(i - 1):
                chain.append(s @ chain[-1])
            chains.append(chain)
    chains.sort(key=len, reverse=True)
    cols: list[Mat] = []
    for chain in chains:
        cols.extend(reversed(chain))
    basis = Mat.hcat(field, n, cols)
    try:
        inverse = basis.inverse()
    except (ShapeMismatchError, ZeroDivisionError):
        raise ValueError("Jordan basis construction failed") from None
    return basis, inverse, tuple(len(chain) for chain in chains)


def _jordan_frame(s: Mat) -> tuple[Mat, Mat, tuple[int, ...]]:
    """The Jordan frame of ``jordan_nilpotent``, computed once per ``Mat``
    object and kept in its ``_frame`` slot."""
    if s._frame is None:
        s._frame = jordan_nilpotent(s)
    return s._frame


def nilpotent_hom_basis(s: Mat, s_target: Mat,
                        rest: Sequence[tuple[Mat, Mat]] = ()) -> list[Mat]:
    """Basis of ``{g : g @ s == s_target @ g}`` for nilpotent s, s_target,
    cut down by ``g @ r == r2 @ g`` for every remaining pair ``(r, r2)``.

    In the Jordan frames s = P_s J_s P_s^-1 and s_target = P_t J_t P_t^-1,
    g = P_t h P_s^-1 intertwines s and s_target exactly when h intertwines
    J_s and J_t, and those h have a closed-form basis of 0/1 matrices h_c:
    a map J_a -> J_b has min(a, b) independent shifted-diagonal
    intertwiners.  The h_c are placed by index into one array.

    Each remaining pair is conjugated once, to (P_s^-1 r P_s, P_t^-1 r2 P_t),
    and its conditions on the h_c are read off by index: row i of h_c r is
    the row of r that h_c sends to i, column j of r2 h_c the column of r2
    that h_c takes from j.  Since X -> P_t X P_s^-1 is a linear bijection,
    the kernel of these conditions is that of the conditions on the
    P_t h_c P_s^-1, and ``Mat.kernel`` returns the one basis of it that is
    the identity on the free columns: the result is the same matrices as
    when every h_c is mapped back first.  The kernel's combinations of the
    h_c come from one product, and only they are mapped back, with one
    product on each side for all of them; with no remaining pair every h_c
    is mapped back, in order.  Over F_p the combination product sums c
    products of residues, c the number of h_c, so it is exact while
    ``c * (p - 1)**2 < 2**53`` (as for ``Span``); no cap on p enforces it.
    """
    field = s.field
    fk = field._kernel
    p_src, p_src_inv, sizes_src = _jordan_frame(s)
    p_tgt, p_tgt_inv, sizes_tgt = _jordan_frame(s_target)
    e, d = s_target.rows, s.rows
    # the ones of h_c: the last k vectors of a source chain go to the first
    # k of a target chain, for k = 1 .. min(a, b)
    idx: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    c = 0
    off_t = 0
    for b in sizes_tgt:
        off_s = 0
        for a in sizes_src:
            for k in range(1, min(a, b) + 1):
                idx.extend([c] * k)
                rows.extend(range(off_t, off_t + k))
                cols.extend(range(off_s + a - k, off_s + a))
                c += 1
            off_s += a
        off_t += b
    if not c:
        return []
    h = _zeros(field, c * e, d).reshape(c, e, d)
    h[idx, rows, cols] = field.one
    if rest:
        blocks = []
        for r, r2 in rest:
            rj = (p_src_inv @ r @ p_src)._entries
            r2j = (p_tgt_inv @ r2 @ p_tgt)._entries
            # h_c rj - r2j h_c, each term placed by index
            block = _zeros(field, c * e, d).reshape(c, e, d)
            block[idx, rows, :] = rj[cols, :]
            block[idx, :, cols] -= r2j[:, rows].T
            blocks.append(block.reshape(c, e * d).T)
        ker = Mat(field, len(rest) * e * d, c, np.concatenate(blocks, axis=0)).kernel()
        if not ker.cols:
            return []
        h = fk.normalize(fk.matmul(ker._entries.T, h.reshape(c, e * d))).reshape(-1, e, d)
    k = h.shape[0]
    # P_t [h_1 | ... | h_k], then its blocks stacked, times P_s^-1
    left = fk.normalize(fk.matmul(p_tgt._entries, h.transpose(1, 0, 2).reshape(e, k * d)))
    out = fk.matmul(left.reshape(e, k, d).transpose(1, 0, 2).reshape(k * e, d),
                    p_src_inv._entries)
    return [Mat(field, e, d, g) for g in out.reshape(k, e, d)]


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def find_invertible_in_span(basis: Sequence[Mat], trials: int, seed) -> Optional[tuple[list, Mat]]:
    """Search the span of square matrices for an invertible combination.

    Deterministic under the seed.  Tries each basis element, then the sum,
    then seeded random combinations.  A basis element with a zero row or a
    zero column is singular, so it is passed over without an elimination.
    ``None`` after ``trials`` random draws is inconclusive, not a proof that
    no invertible element exists.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    basis = list(basis)
    if not basis:
        return None
    field = basis[0].field
    n = basis[0].rows
    for m in basis:
        if m.shape != (n, n) or m.field != field:
            raise ShapeMismatchError("span basis must be square matrices of equal size")
    if n == 0:
        return [field.zero] * len(basis), basis[0]
    k = len(basis)
    span = Span(field, n, n, basis)
    # an element with a zero row or a zero column is singular: no elimination
    rows, cols = _nonzero_lines(span._stack.reshape(k, n, n))
    full = rows.all(axis=1) & cols.all(axis=1)
    # a unit coefficient vector combines to its basis element: no product
    for i, m in enumerate(basis):
        if full[i] and m.is_invertible():
            return [field.one if j == i else field.zero for j in range(k)], m
    rng = random.Random(f"span:{seed}")
    draws = ([field.random_scalar(rng) for _ in range(k)] for _ in range(trials))
    for coeffs in itertools.chain([[field.one] * k] if k > 1 else [], draws):
        combo = span.combine(Mat.column(field, coeffs))[0]
        if combo.is_invertible():
            return [field.coerce(c) for c in coeffs], combo
    return None
