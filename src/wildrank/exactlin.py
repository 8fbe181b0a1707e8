"""Exact scalar and matrix arithmetic over the rationals and prime fields.

Scalars are plain ``Fraction`` values over the rationals and plain ``int``
residues in ``[0, p)`` over a prime field.  A ``Mat`` stores its entries as
one read-only 2-D numpy array over one positive denominator, whichever the
field: ``float64`` residues over 1 over F_p, Python ``int`` numerators
(``dtype=object``) over the lcm of the entries' denominators over Q.  That
form is canonical, so ``==`` and ``hash`` read it as it is.  Every operation
is written once on that pair.  What really differs between the fields lives
in one small private kernel per field, picked once when the ``Field`` is
made:

* ``_PrimeKernel``: scalars mod p, one reduction of arrays, ``_residues``
  (int64 ``% p``, exact below 2**53), ``int`` read-out, the blocked echelon
  form ``_echelon_fp`` and the BLAS product; every denominator is 1, so
  ``_common`` and ``_lowest``, written once for both fields to bring
  matrices to a common denominator and into lowest terms, return them as
  they are.  Prime-field arithmetic reduces mod p only now and then
  (delayed modular reduction), so it is exact only while every
  intermediate value stays below 2**53.
  One rule keeps it there: every operand is a residue in [0, p) when it is
  scaled or multiplied, and a sum of products is reduced before it could
  reach 2**53.  ``_echelon_fp`` proves that this holds for every p < 2**24,
  and ``Field.prime`` refuses p >= 2**24.  Polynomials over F_p are
  factored by Cantor and Zassenhaus's algorithm.
* ``_RationalKernel``: ``Fraction`` scalars, integer matrices over one
  denominator (as FLINT's ``fmpq_mat`` keeps them), the fraction-free
  reduced echelon form ``_echelon_qq`` and a product that skips zero
  entries, both on the numerators as they are stored.  Matrices that are
  joined (concatenated, assembled, added, combined) are first brought to
  their common denominator, and a result is put in lowest terms by one gcd.
  A ``Fraction`` is built only for a scalar and when an entry is read out.
  Polynomials over Q are factored over Z: mod a prime, Hensel-lifted, and
  recombined.

Polynomials are ascending coefficient lists.  The dense-polynomial helpers
(``_poly_*``: product, division, powers, gcds, squarefree parts) are
written once for every coefficient ring; ``factor_polynomial`` hands a
monic polynomial to the field's kernel and sorts what comes back.

``Mat.kernel`` and the Jordan route share one null-basis function,
``_null_basis``, with one input form: a system's nonzero entries as
(row, column, value) index arrays and its shape (``np.nonzero`` of a
matrix's stored entries; the Jordan route's integer conditions as built,
unreduced).  It reads the support and runs the weight-one cascade on those
arrays with ``np.bincount``, and allocates only the dense rest that the
cascade leaves for the echelon form, so no array of the whole system's
shape is made.  The result is unchanged: zero rows add nothing to the row
space, a zero column is never a pivot (its kernel vector is its unit
vector), each column of a row of weight one is a pivot with zero kernel
entries, and the kernel basis is the unique one that is the identity on
the free columns.  Hom systems are mostly zeros and rows of weight one or
two, so most of their elimination is skipped.  ``column_space`` stays on
the whole matrix: it reads its basis from the non-reduced echelon form
over F_p, whose rows depend on the row swaps that zero rows take part in.  ``rank`` and
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
  and inverse, and ``factor_polynomial``;
* ``nilpotent_hom_basis``, the maps that intertwine a nilpotent pair and
  any further pairs, solved and returned in Jordan coordinates as one
  ``Span``, with the two frames (``jordan_nilpotent`` gives the Jordan
  frame, the basis with its inverse and the block sizes),
  ``trace_form``, the traces of all pairwise products of the matrices of
  two ``Span``s, ``trace_radical``, the radical of the algebra a ``Span``
  spans when its trace form certifies it, and ``all_nilpotent``, whether
  every combination of a ``Span`` is nilpotent, and ``Mat.is_nilpotent``,
  both through ``_nilpotent_stack``, one pass of repeated squaring over a
  whole stack;
* ``Span``, many matrices of one shape as one read-only stack, whose
  ``combine`` returns many linear combinations of them (one per column of
  a coefficient matrix) from one product; ``lincomb`` is its one-column
  case.  A Span made from a stack (a Hom basis: ``nilpotent_hom_basis``,
  ``Span.of_columns`` of a kernel) builds its matrices only when
  ``mats`` is read.  ``Span.assemble`` places the stacks of several Spans
  into one stack, or shares the stack of one that fills the whole matrix,
  and records its support, the stack columns that hold a nonzero, outside
  which ``combine`` and ``trace_form`` do no work.

All operations are pure, and the entries of every ``Mat`` are immutable
after construction.  The things stored later are three memos, computed
once per ``Mat`` object: its hash, the Jordan frame of a nilpotent ``Mat``
and the inverse of a square one (or the mark that it is singular), which
``is_invertible`` and ``inverse`` share.
One memo belongs to no ``Mat``: ``_intertwiner_pattern`` keeps read-only
index arrays for at most 32 pairs of Jordan types.  Randomized searches
take an explicit seed and are deterministic under it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["Field", "Mat", "ShapeMismatchError", "Span", "factor_polynomial",
           "find_invertible_in_span", "nilpotent_hom_basis", "trace_form", "trace_radical"]

Scalar = Union[int, Fraction]

#: width of the sub-panels of ``_echelon_fp``
_SUB = 16


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
        """F_p; ``ValueError`` unless p is a prime with 5 <= p < 2**24, the
        cap below which ``_echelon_fp`` and ``_PrimeKernel.matmul`` are exact."""
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

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self._kernel.coerce(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self._kernel.coerce(a * b)

    def inv(self, a) -> Scalar:
        """The inverse of a nonzero scalar, given in any form ``coerce`` reads."""
        return self._kernel.inv(a)

    def random_scalar(self, rng: random.Random) -> Scalar:
        """Uniform over F_p; small integers in [-9, 9] over the rationals."""
        return self._kernel.random_scalar(rng)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    @property
    def spec(self) -> str:
        """The field as a spec file's ``field`` line names it: ``Q`` or ``Fp <p>``."""
        return self._kernel.spec

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

def _residues(a: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The residues in [0, p) of the integer-valued array ``a``, as a fresh
    float64 array, or written into the float64 array ``out`` (``a`` itself
    for a product no one else holds, which then needs no second fresh
    array): the one reduction mod p of every F_p array.

    Exact for integer values below 2**53 in absolute value, the envelope
    ``_echelon_fp`` proves for every value the F_p code forms, and for the
    Python ints of an object array that ``_PrimeKernel.asarray`` made: such
    a value converts to int64 exactly, int64 ``%`` by p > 0 is exact and
    never negative, and a residue below p < 2**24 converts back exactly,
    with no negative zero.  From a few dozen entries on it is also cheaper
    than ``%`` on float64, which takes numpy's divmod path (fmod and a
    floor division) per entry: 18 against 48 microseconds on a 56 x 56
    array, on one core of a 2-core Xeon VM.
    """
    r = a.astype(np.int64)
    r %= p
    if out is None:
        return r.astype(np.float64)
    out[...] = r
    return out


def _echelon_fp(a: np.ndarray, p: int, stop_at_gap: bool = False):
    """Row echelon form mod p with unit pivots and zeros below each pivot.

    Returns ``(w, pivot_columns)`` with w fully reduced mod p.  With
    ``stop_at_gap``, returns ``(None, pivots so far)`` at the first column
    that has no pivot: enough to tell whether every column has one.

    One reduced copy of ``a`` is eliminated in sub-panels of ``_SUB``
    columns.  Inside a sub-panel each pivot takes rank-1 updates of the
    sub-panel's columns below it.  The columns right of the sub-panel then
    get one triangular pass over its pivot rows and one GEMM, ``rows below
    -= L @ T``, of inner dimension at most ``_SUB``.  A pivot step is one
    ``flatnonzero`` of its column, which finds the pivot and tells whether
    any row below needs the rank-1 update, and a scaling of the pivot row
    in place.

    Exactness.  Every operand is a residue in [0, p) when it is scaled or
    multiplied.  A sub-panel is reduced when it is entered, unless no GEMM
    has touched its columns since the last reduction (``bound`` is still
    p - 1), and T likewise before its triangular pass.  After that a column
    is reduced before its pivot search, and a row before it is scaled, only
    once a rank-1 update of the same sub-panel (or of the same triangular
    pass) has run (``dirty``): what no update has touched since the
    reduction is still reduced.  The multipliers L are residues of reduced
    columns, which the updates never write.  So
    each product is at most (p - 1)**2, and an entry that starts reduced and
    takes at most ``_SUB`` = 16 products (in a sub-panel, in the triangular
    pass or in one GEMM) stays below (p - 1) + 16 (p - 1)**2 in absolute
    value.  Right of the sub-panel, entries take one GEMM per sub-panel
    unreduced; ``bound``, a Python int, is the most their absolute value
    can be, and they are reduced when the next GEMM could take it to 2**53.
    Below the cap ``Field.prime`` enforces, p < 2**24, a reduced block plus
    one GEMM stays below 2**24 + 16 * 2**48 < 2**53, so that reduction is
    always enough.  Every value, partial sums of the GEMM included (its
    terms are integers of one sign), is then an integer below 2**53 in
    absolute value, exact in float64 whatever order BLAS sums in, and each
    ``%`` of such a value is exact.

    The working copy is made by ``_residues``; the reductions of sub-panel
    views below stay float64 ``%=`` in place, since routing them through
    int64 as well measured no gain on the benchmark's witness28 or certify
    workloads.
    """
    w = _residues(a, p)
    m, n = w.shape
    step = (p - 1) ** 2
    bound = p - 1
    piv: list[int] = []
    r = 0
    for ss in range(0, n, _SUB):
        if r >= m:
            break
        se = min(ss + _SUB, n)
        r0 = r
        sub: list[int] = []
        invs: list[int] = []
        if bound > p - 1:
            w[r:, ss:se] %= p
        dirty = False
        for c in range(ss, se):
            if r >= m:
                break
            col = w[r:, c]
            if dirty:
                col %= p
            nz = np.flatnonzero(col)
            if not nz.size:
                if stop_at_gap:
                    return None, piv + sub
                continue
            k = int(nz[0])
            if k:
                w[[r, r + k]] = w[[r + k, r]]
            inv = pow(int(w[r, c]), p - 2, p)
            invs.append(inv)
            row = w[r, c + 1:se]
            if dirty:
                row %= p
            row *= inv
            row %= p
            w[r, c] = 1.0
            if nz.size > 1:
                w[r + 1:, c + 1:se] -= w[r + 1:, c, None] * row
                dirty = True
            sub.append(c)
            r += 1
        if sub and se < n:
            t = w[r0:r, se:]
            if bound > p - 1:
                t %= p
            dirty = False
            for k, inv in enumerate(invs):
                row = t[k]
                if dirty:
                    row %= p
                row *= inv
                row %= p
                l = w[r0 + k + 1:r, sub[k], None]
                if l.any():
                    t[k + 1:] -= l * row
                    dirty = True
            l = w[r:, sub]
            if l.any():
                grow = len(sub) * step
                if bound + grow >= 2 ** 53:
                    w[r:, se:] %= p
                    bound = p - 1
                w[r:, se:] -= l @ t
                bound += grow
        for k, c in enumerate(sub):
            w[r0 + k + 1:, c] = 0.0
        piv += sub
    return w, piv


# ---------------------------------------------------------------------------
# rational kernels (integer rows over one denominator)
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _integer_row(xs) -> tuple[int, list[int]]:
    """``(d, ints)`` with ``xs == [k / d for k in ints]`` and d the least
    common multiple of the denominators of the rationals ``xs``: the one
    conversion from ``Fraction`` scalars to the stored form."""
    den = math.lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _over(ints: list[int], den: int) -> list[Fraction]:
    """The ``Fraction`` values ``k / den``, sharing one zero: the one
    conversion from the stored form back to scalars."""
    return [Fraction(k, den) if k else _ZERO for k in ints]


def _echelon_qq(rows: list[list[int]], stop_at_gap: bool = False):
    """Reduced echelon form over the rationals of the integer rows ``rows``.

    Returns ``(w, den, pivot columns)``: the integer rows ``w`` over the
    positive ``den`` are the reduced echelon form, so every pivot entry is
    ``den`` and the rows past the rank are zero.  With ``stop_at_gap``,
    returns ``(None, 1, pivots so far)`` at the first column that has no
    pivot.  A common denominator of the input does not change its row
    space, so ``rows`` are the numerators of a matrix as they are stored.

    Fraction-free Gauss-Jordan: each row is divided by the gcd of its
    entries, a row is eliminated as ``a * row - b * pivot_row`` and divided
    by the gcd of its entries again, so an update pays one gcd per row, not
    one per entry.  At the end pivot row k, whose pivot is a_k, is scaled by
    den / a_k, with den the lcm of the pivots.
    The pivot choice (first nonzero entry at or below the current row) is
    that of a plain rational elimination, and a reduced echelon form is
    unique, so both give the same rows and pivots.
    """
    w = []
    for row in rows:
        g = math.gcd(*row)
        w.append([x // g for x in row] if g > 1 else row)
    m = len(w)
    n = len(w[0]) if m else 0
    piv: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if w[i][c]), None)
        if sel is None:
            if stop_at_gap:
                return None, 1, piv
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
    # lcm takes absolute values, so den // a_k makes a negative pivot den too
    den = math.lcm(*(w[k][c] for k, c in enumerate(piv)))
    out = [[x * (den // w[k][c]) for x in w[k]] for k, c in enumerate(piv)]
    out.extend([0] * n for _ in range(m - r))
    return out, den, piv


# ---------------------------------------------------------------------------
# field kernels: what differs between F_p and Q, and nothing else
# ---------------------------------------------------------------------------

class _PrimeKernel:
    """F_p: ``int`` scalars in [0, p), ``float64`` arrays of residues, and
    the denominator of every matrix is 1.

    ``coerce`` makes any integer, ``Fraction``, float or string such as
    ``"2/3"`` a residue (a non-integer through ``Fraction``), and ``inv``
    inverts any such input.  ``normalize`` reduces an array mod p through
    ``_residues``, a float64 array and an object array from ``asarray``
    alike, and ``reduce`` reduces a fresh product in its own array;
    ``entries`` stores an array of residues from ``coerce`` as it
    is and reduces a float64 array from ``asarray``, over the denominator
    1.  ``asarray`` reads the data of ``Mat(...)`` for it (integers of any
    size and fractions exactly), ``exact`` reads entries out as ``int``,
    ``echelon`` is the blocked ``_echelon_fp`` (unit pivots, zeros below
    them) and ``matmul`` the BLAS product of two arrays of residues, or of
    two stacks of them slice by slice (reduced afterwards by
    ``normalize``).  The product sums at most
    ``chunk`` = floor((2**53 - p) / (p - 1)**2) products before it reduces with
    ``_residues``, slicing the contraction axis (the last of ``a``, the one
    before the last of ``b``), so a reduced partial sum plus one chunk stays below
    2**53: ``chunk`` is 32 at p = 16777213, the largest prime below the
    2**24 cap, and about 9 * 10**11 at p = 101, where no product is split.
    """

    __slots__ = ("p", "name", "spec", "chunk")
    dtype = np.float64
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= 2 ** 24:
            # the exactness cap proved in ``_echelon_fp``
            raise ValueError(f"prime field characteristic must be below 2**24, got {p}")
        if p < 5 or not _is_prime(p):
            raise ValueError(f"prime field characteristic must be a prime >= 5, got {p}")
        self.p = p
        self.name, self.spec = f"F{p}", f"Fp {p}"
        self.chunk = (2 ** 53 - p) // (p - 1) ** 2

    def coerce(self, x) -> int:
        if type(x) is int:      # the common case, ahead of the checks; a bool goes on
            return x % self.p
        if isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer()):
            return int(x) % self.p
        if not isinstance(x, Fraction):
            x = Fraction(x)     # a string such as "2/3", a float exactly
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def inv(self, a) -> int:
        a = self.coerce(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return _residues(a, self.p)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return _residues(a, self.p, a)

    primitive = normalize

    def entries(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        # an object array holds residues from ``coerce`` or
        # ``random_scalar`` already; a float64 one is ``asarray``'s data
        return (self.normalize(a) if a.dtype == np.float64 else a.astype(np.float64)), 1

    def asarray(self, data) -> np.ndarray:
        """``data`` as an array for ``normalize``.  A float64 array is taken
        as it is when it holds integer values below 2**53 in absolute
        value, the envelope in which ``_residues`` is exact, and refused
        with ``ValueError`` when it holds a nan or an infinity.  Anything
        else (nested lists, other arrays, float64 values off the envelope)
        goes entry by entry through ``coerce``, so that an integer beyond
        2**53 or a fraction is reduced exactly before it becomes float64,
        which would round the integer and keep the fraction."""
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            if not np.isfinite(data).all():
                raise ValueError("matrix entries must be finite")
            if (np.abs(data) < 2.0 ** 53).all() and (np.trunc(data) == data).all():
                return data
        arr = np.asarray(data, dtype=object)
        return np.frompyfunc(self.coerce, 1, 1)(arr) if arr.ndim == 2 else arr

    def exact(self, a, den: int):
        return np.asarray(a).astype(np.int64).tolist()

    def echelon(self, a: np.ndarray, stop_at_gap: bool = False):
        w, piv = _echelon_fp(a, self.p, stop_at_gap)
        return w, 1, piv

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k, p = self.chunk, self.p
        if a.shape[-1] <= k:
            return a @ b
        out = _residues(a[..., :k] @ b[..., :k, :], p)
        for s in range(k, a.shape[-1], k):
            out += a[..., s:s + k] @ b[..., s:s + k, :]
            out = _residues(out, p)
        return out

    def factor(self, f: list) -> list[tuple[list, int]]:
        """The monic irreducible factors of the monic ``f`` (degree >= 1),
        with their multiplicities, in no particular order.

        Squarefree parts first (``_poly_squarefree``); what is left has zero
        derivative, so it is a p-th power, and its p-th root (the
        coefficients of x^0, x^p, x^2p, ..., as a^p = a on F_p) goes round
        again with p times the multiplicity.  Each squarefree part is split
        by degree (``_distinct_degree``) and each of those products into its
        factors (``_equal_degree``), Cantor and Zassenhaus, Math. Comp. 36
        (1981); the splitting draws come from a fixed seed.
        """
        rng = random.Random(0)
        out, mult = [], 1
        while len(f) > 1:
            parts, f = _poly_squarefree(self, f)
            for part, i in parts:
                for d, block in self._distinct_degree(part):
                    out += [(g, i * mult) for g in self._equal_degree(block, d, rng)]
            f, mult = f[::self.p], mult * self.p
        return out

    def _distinct_degree(self, f: list) -> list[tuple[int, list]]:
        """``(d, product of the factors of degree d)`` of the squarefree
        monic ``f``, one pair per d that occurs: the factors of degree d
        divide x^(p^d) - x, and none of smaller degree is left by then."""
        out, x, h, d = [], [0, 1], [0, 1], 0
        while 2 * (d + 1) < len(f):
            d += 1
            h = _poly_powmod(self, h, self.p, f)
            g = _poly_gcd(self, f, _poly_sub(self, h, x))
            if len(g) > 1:
                out.append((d, g))
                f = _poly_divmod(self, f, g)[0]
                h = _poly_divmod(self, h, f)[1]
        if len(f) > 1:
            out.append((len(f) - 1, f))
        return out

    def _equal_degree(self, f: list, d: int, rng: random.Random) -> list[list]:
        """The monic irreducible factors of ``f``, a squarefree product of
        monic irreducibles of degree ``d``: for a random a of degree below
        deg f, gcd(f, a^((p^d - 1)/2) - 1) splits f with probability about
        1/2 when p is odd."""
        if len(f) - 1 == d:
            return [f]
        e = (self.p ** d - 1) // 2
        while True:
            a = _poly_trim([rng.randrange(self.p) for _ in range(len(f) - 1)])
            g = _poly_gcd(self, f, _poly_sub(self, _poly_powmod(self, a, e, f), [1]))
            if 1 < len(g) < len(f):
                return (self._equal_degree(g, d, rng)
                        + self._equal_degree(_poly_divmod(self, f, g)[0], d, rng))


class _RationalKernel:
    """Q: ``Fraction`` scalars, and a matrix stored as an object array of
    Python ``int`` numerators over one positive ``int`` denominator.

    The stored form is canonical: the denominator is the lcm of the
    denominators of the entries, so it shares no factor with all the
    numerators, and the zero matrix has denominator 1.  ``coerce`` makes a
    scalar a ``Fraction``; ``asarray`` reads the data of ``Mat(...)``
    through it and ``entries`` clears an array of ``Fraction`` scalars to
    that form (``_integer_row``), the one conversion in.  ``exact`` builds
    the ``Fraction`` entries at read-out (``_over``), the one conversion
    out.  Between the two, every operation works on the numerators (the
    module's ``_common`` brings matrices to their common denominator and
    ``_lowest`` divides a result by the gcd of its denominator and
    numerators), and ``normalize`` and ``reduce``, the entrywise reduction,
    have nothing to do on ``int``; ``primitive`` divides a vector by the gcd of its entries.  ``echelon``
    is the fraction-free reduced echelon form ``_echelon_qq`` and
    ``matmul`` multiplies numerators in a row loop that skips zero entries
    (a dense object-array product multiplies every zero it meets), slice
    by slice for two stacks.
    """

    __slots__ = ()
    name = spec = "Q"
    dtype = object
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def inv(self, a) -> Fraction:
        a = self.coerce(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def random_scalar(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-9, 9))

    @staticmethod
    def _array(data, shape) -> np.ndarray:
        return np.array(data, dtype=object).reshape(shape)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a

    reduce = normalize

    def primitive(self, a: np.ndarray) -> np.ndarray:
        g = math.gcd(*a.tolist())
        return a // g if g > 1 else a

    def entries(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        den, ints = _integer_row(a.ravel().tolist())
        return self._array(ints, a.shape), den

    def asarray(self, data) -> np.ndarray:
        arr = np.asarray(data, dtype=object)
        return np.frompyfunc(self.coerce, 1, 1)(arr) if arr.ndim == 2 else arr

    def exact(self, a, den: int):
        return self._array(_over(np.ravel(a).tolist(), den), np.shape(a)).tolist()

    def echelon(self, a: np.ndarray, stop_at_gap: bool = False):
        w, den, piv = _echelon_qq(a.tolist(), stop_at_gap)
        return (w if w is None else self._array(w, a.shape)), den, piv

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim == 3:
            # two stacks: one product per pair of slices
            out = np.empty(a.shape[:2] + b.shape[2:], dtype=object)
            for i, (x, y) in enumerate(zip(a, b)):
                out[i] = self.matmul(x, y)
            return out
        cols = b.shape[1]
        nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
        out = []
        for row in a.tolist():
            acc = [0] * cols
            for x, terms in zip(row, nonzero):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            out.append(acc)
        return self._array(out, (a.shape[0], cols))

    def factor(self, f: list) -> list[tuple[list, int]]:
        """The monic irreducible factors of the monic ``f`` (degree >= 1),
        with their multiplicities, in no particular order: each squarefree
        part (``_poly_squarefree``; nothing is left over in characteristic
        0) is cleared of denominators and factored over Z by
        ``_factor_integer``."""
        out = []
        for part, mult in _poly_squarefree(self, f)[0]:
            ints = _integer_row(part)[1]
            content = math.gcd(*ints)
            out += [(_poly_monic(self, [self.coerce(c) for c in g]), mult)
                    for g in self._factor_integer([c // content for c in ints])]
        return out

    def _factor_integer(self, f: list[int]) -> list[list[int]]:
        """The irreducible factors over Z of the primitive squarefree ``f``
        with positive leading coefficient (Zassenhaus, J. Number Theory 1,
        1969; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15).

        The first prime q >= 5 that keeps the degree and the squarefreeness
        of f mod q gives the monic factors of f mod q (``_PrimeKernel``).
        For a factor g h of what is left of f, lc(h) g has every coefficient
        within 2^deg f * ||f||_2 (Mignotte's bound), so the factors are
        lifted mod a power m of q above twice that bound (``_hensel_lift``),
        and lc(f) times the product of each subset of them, in symmetric
        residues mod m, is tried as a divisor of f, smallest subsets first.
        """
        n = len(f) - 1
        if n == 1:
            return [f]
        for q in filter(_is_prime, range(5, 2 ** 24)):
            fq = _PrimeKernel(q)
            g = _poly_trim([fq.coerce(c) for c in f])
            if len(g) == n + 1 and len(_poly_gcd(fq, g, _poly_diff(fq, g))) == 1:
                break
        else:
            raise ArithmeticError("no prime below 2**24 keeps the polynomial squarefree")
        modular = [h for h, _ in fq.factor(_poly_monic(fq, g))]
        if len(modular) == 1:
            return [f]
        bound = 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1)
        m = q
        while m <= 2 * bound:
            m *= m
        ring = _IntegersMod(m)
        lifted = self._hensel_lift(f, modular, fq, m)
        out, size = [], 1
        while 2 * size <= len(lifted):
            for subset in itertools.combinations(range(len(lifted)), size):
                g = [f[-1]]
                for i in subset:
                    g = _poly_mul(ring, g, lifted[i])
                g = [c - m if 2 * c > m else c for c in g]
                content = math.gcd(*g)
                g = [c // content for c in g]
                if g[0] and f[0] % g[0]:
                    continue
                quotient, rest = _poly_divmod(self, f, g)
                if not rest:
                    # g is primitive, so the quotient is integral (Gauss)
                    out.append(g)
                    f = [c.numerator for c in quotient]
                    lifted = [h for i, h in enumerate(lifted) if i not in subset]
                    break
            else:
                size += 1
        return out + [f]

    def _hensel_lift(self, f: list[int], factors: list[list], fq: _PrimeKernel,
                     m: int) -> list[list[int]]:
        """Monic lifts mod ``m`` = q^(2^k) of the monic, pairwise coprime
        ``factors`` of f / lc(f) mod q (``fq`` is F_q): f mod q is split as
        lc(f) times the product of the first half of them against the
        product of the rest, that split is lifted by ``_hensel_step`` until
        the modulus reaches m, and each side is split again."""
        if len(factors) == 1:
            return [_poly_monic(_IntegersMod(m), f)]
        k = len(factors) // 2
        g, h = [fq.coerce(f[-1])], [fq.one]
        for x in factors[:k]:
            g = _poly_mul(fq, g, x)
        for x in factors[k:]:
            h = _poly_mul(fq, h, x)
        _, s, t = _poly_gcdex(fq, g, h)
        mod = fq.p
        while mod < m:
            g, h, s, t = _hensel_step(f, g, h, s, t, mod)
            mod *= mod
        return self._hensel_lift(g, factors[:k], fq, m) + self._hensel_lift(h, factors[k:], fq, m)


# ---------------------------------------------------------------------------
# Mat
# ---------------------------------------------------------------------------

def _zeros(field: Field, shape: tuple[int, ...]) -> np.ndarray:
    """A writable array of stored zeros of any ``shape`` (``int`` zeros in
    an object array over Q)."""
    return np.zeros(shape, dtype=field._kernel.dtype)


def _identity(field: Field, n: int) -> np.ndarray:
    """A writable ``n x n`` identity array, over the denominator 1."""
    arr = _zeros(field, (n, n))
    arr.ravel()[::n + 1] = 1
    return arr


def _ratio(fk, c) -> tuple[int, int]:
    """The scalar ``c`` of the kernel ``fk`` as its numerator and denominator
    (a residue mod p, a Python ``int``, is its own numerator over 1)."""
    c = fk.coerce(c)
    return c.numerator, c.denominator


def _lowest(a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """The matrix ``a / den`` in lowest terms: both divided by the gcd of
    ``den`` and the entries.  Every F_p denominator is 1, where it returns
    its input."""
    if den == 1:
        return a, 1
    g = math.gcd(den, *a.ravel().tolist())
    return (a // g, den // g) if g > 1 else (a, den)


def _common(arrays: list, dens: list) -> tuple[list, int]:
    """The arrays over the lcm of their denominators ``dens``, and that lcm.
    Every F_p denominator is 1, where the arrays come back as they are."""
    den = math.lcm(*dens)
    if den == 1:
        return arrays, 1
    return [a if d == den else a * (den // d) for a, d in zip(arrays, dens)], den


def _joined(mats: Sequence["Mat"]) -> tuple[list, int]:
    """The stored entries of ``mats`` over their common denominator, and that
    denominator."""
    return _common([m._entries for m in mats], [m._den for m in mats])


def _nonzero_lines(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the nonzero rows and of the nonzero columns of the matrices
    on the last two axes of ``a``."""
    nz = a.astype(bool)
    return nz.any(axis=-1), nz.any(axis=-2)


def _null_basis(field: Field, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                shape: tuple[int, int]) -> "Mat":
    """The null basis of ``Mat.kernel`` for the ``shape[0] x shape[1]``
    system whose nonzero entries are ``vals`` at the cells ``(rows, cols)``,
    given as ``intp`` index arrays, each cell at most once: over F_p
    integers in (-p, p), nonzero mod p; over Q ``int``s, the numerators of
    rows that may each be scaled by a nonzero rational, which changes no
    kernel.  ``Mat.kernel`` hands it ``np.nonzero`` of its stored entries,
    and ``nilpotent_hom_basis`` its conditions as built, unreduced.

    Every row and column with no entry is left out of the elimination, and
    the result is the same matrix as from the whole one.  Zero rows do not
    change the row space.  A zero column is never a pivot, so it is a free
    column whose kernel vector is its unit vector, and the pivots among the
    other columns are the same with or without it.
    (``column_space`` keeps the whole matrix: see the module docstring.)

    Rows of weight one are then taken off with their columns, again and
    again, on the index arrays: ``np.bincount`` of the rows gives each row's
    weight, and an entry on a peeled column takes one off its row.  A row
    whose one nonzero entry is at column j puts e_j in the row space R, so
    j is a pivot and every kernel vector is 0 at j.  With F the peeled
    columns and U the rows left, R = span(e_F) + R_U, where R_U is spanned
    by the rows of U off the columns F; the pivots are F and those of R_U,
    so the free columns, and the basis that is the identity on them, are the
    same.  The cascade does no arithmetic, and only what it leaves, the
    entries off F on the rows of weight two or more, is written into a
    dense array for the echelon form, on its own rows and columns in their
    order.  The echelon form is over its own denominator, so the identity
    part is written as that denominator.  When the cascade leaves no entry,
    every column not peeled is free and no echelon form is needed: each
    free column's kernel vector is its unit vector, over the denominator 1.

    Entries in (-p, p) need no reduction: the cascade reads only where the
    entries are, and such an entry is nonzero exactly when it is nonzero
    mod p; ``_echelon_fp`` starts with ``_residues``, exact below 2**53.  A
    multiple of p would pass for a nonzero entry, and the cascade could
    take a row that is zero mod p for a unit row.
    """
    fk = field._kernel
    m, width = shape
    weight = np.bincount(rows, minlength=m)
    peeled = np.zeros(width, dtype=bool)
    unit = weight == 1
    while unit.any():
        peeled[cols[unit[rows]]] = True
        gone = peeled[cols]
        weight -= np.bincount(rows[gone], minlength=m)
        kept = ~gone
        rows, cols, vals = rows[kept], cols[kept], vals[kept]
        unit = weight == 1
    is_free = ~peeled
    if rows.size:
        on = np.zeros(width, dtype=bool)
        on[cols] = True
        rest_cols = np.flatnonzero(on)
        count = int(np.count_nonzero(weight))
        rest = _zeros(field, (count, rest_cols.size))
        # each entry's row and column in the rest (the same when none is left out)
        rest[rows if count == m else np.cumsum(weight > 0)[rows] - 1,
             cols if rest_cols.size == width else np.searchsorted(rest_cols, cols)] = vals
        w, den, rest_piv = fk.echelon(rest)
        piv = rest_cols[rest_piv]
        is_free[piv] = False
    else:
        den, rest_piv = 1, []
    free = np.flatnonzero(is_free)
    out = _zeros(field, (width, free.size))
    out[free, np.arange(free.size)] = den
    if rest_piv:
        rest_free = np.flatnonzero(is_free[rest_cols])
        if rest_free.size:
            # rows: the pivot columns; columns: where the rest's free
            # columns sit among all free columns
            out[np.ix_(piv, np.searchsorted(free, rest_cols[rest_free]))] = fk.normalize(
                -_back_substitute(fk, w, rest_piv, w[:len(rest_piv), rest_free]))
    return Mat._of(field, *_lowest(out, den))


def _claim(placed: list, i0: int, i1: int, j0: int, j1: int) -> bool:
    """Whether rows ``i0:i1`` by columns ``j0:j1`` overlap no block in
    ``placed``; the block is added to ``placed`` either way."""
    fresh = all(i1 <= a0 or a1 <= i0 or j1 <= b0 or b1 <= j0 for a0, a1, b0, b1 in placed)
    placed.append((i0, i1, j0, j1))
    return fresh


def _back_substitute(fk, w: np.ndarray, piv: Sequence[int], rhs: np.ndarray) -> np.ndarray:
    """X with ``w[i, piv] @ X == rhs[i]`` for the first ``len(piv)`` rows of
    an echelon form ``w`` (unit pivots at ``piv``, zeros below them), solved
    from the bottom row up.  Over a reduced echelon form every tail is zero
    and X is ``rhs``."""
    x = np.array(rhs)
    for i in range(len(piv) - 1, -1, -1):
        tail = w[i:i + 1, piv[i + 1:]]
        if tail.any():
            x[i] = fk.normalize(x[i] - fk.matmul(tail, x[i + 1:])[0])
    return x


class Mat:
    """An immutable exact matrix over a :class:`Field`.

    A matrix is stored as one read-only ``rows x cols`` numpy array,
    ``_entries``, over one positive ``int`` denominator, ``_den``: over F_p
    ``float64`` residues in ``[0, p)`` over 1, over Q Python ``int``
    numerators (``dtype=object``) over the lcm of the denominators of the
    entries.  The form is canonical, so equal matrices have equal arrays and
    denominators, and ``==`` and ``hash`` read them as they are.  Every
    operation below is written once on that pair; the few steps that differ
    between the fields (reading entries in and out, reducing an array, the
    echelon form and the product) go through the field's kernel; bringing
    denominators together (``_common``) and into lowest terms
    (``_lowest``) is written once, since every F_p denominator is 1.  A
    ``Fraction`` is made only when an entry is read out (``entry``,
    ``row_list``).  The entries
    never change after construction; the slots written later are
    ``_hash``, the hash that ``__hash__`` memoises, ``_frame``, the
    Jordan frame that ``_jordan_frame`` memoises, and ``_inverse``, the
    inverse (``False`` when singular) that ``_inverted`` memoises for
    ``is_invertible`` and ``inverse``.

    There are two constructors.  ``Mat(field, rows, cols, data)``, the
    public one, checks the shape and reads every entry into a fresh array
    in canonical form (over F_p through ``_residues``, exact for integers of
    any size and fractions in lists, and for float64 arrays of integer
    values below 2**53; other float64 values go through ``coerce``, and a
    nan or an infinity is refused), then makes it read-only.  The private
    ``Mat._of(field, arr, den)`` takes ``arr`` and ``den`` as they are, with
    no normalization, no copy and no shape check, and only makes ``arr``
    read-only.  It is used only where the pair is canonical by construction
    (copies, views and concatenations of other ``Mat``s over their common
    denominator, zeros and identities, results of the kernel's
    ``entries``, and results put in lowest terms by ``_lowest`` after an
    entrywise ``normalize``) and where the caller keeps no writable alias of
    ``arr``.  Unreduced integer entries are never wrapped: the ones that
    need a kernel, the Jordan route's conditions, go to ``_null_basis`` as
    index triples, as ``kernel`` hands it its stored entries.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_den", "_hash", "_frame", "_inverse")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        fk = field._kernel
        arr = fk.asarray(data)
        if arr.shape != (rows, cols):
            if arr.size or rows * cols:
                raise ShapeMismatchError(
                    f"data of shape {arr.shape} does not match declared shape ({rows}, {cols})")
            arr = arr.reshape(rows, cols)
        arr, self._den = fk.entries(arr)
        arr.setflags(write=False)
        self._entries = arr
        self._hash = None
        self._frame = None
        self._inverse = None

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
    def _of(cls, field: Field, arr: np.ndarray, den: int) -> "Mat":
        """The ``Mat`` on the 2-D array ``arr`` over ``den`` as they are, made
        read-only: for a canonical pair with no writable alias kept (see the
        class docstring)."""
        m = object.__new__(cls)
        m.field = field
        m.rows, m.cols = arr.shape
        arr.setflags(write=False)
        m._entries = arr
        m._den = den
        m._hash = None
        m._frame = None
        m._inverse = None
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls._of(field, _zeros(field, (rows, cols)), 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls._of(field, _identity(field, n), 1)

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        fk = field._kernel
        return cls._of(field, *fk.entries(np.array([fk.coerce(x) for x in entries],
                                                   dtype=object).reshape(len(entries), 1)))

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng: random.Random) -> "Mat":
        scalars = np.array([field.random_scalar(rng) for _ in range(rows * cols)], dtype=object)
        return cls._of(field, *field._kernel.entries(scalars.reshape(rows, cols)))

    @classmethod
    def unit(cls, field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        """The matrix unit: one at (i, j), zero elsewhere."""
        return cls.assemble(field, rows, cols, [(i, j, cls.identity(field, 1))])

    @classmethod
    def assemble(cls, field: Field, rows: int, cols: int, blocks) -> "Mat":
        """The ``rows x cols`` sum of the blocks ``(i, j, b)``, each placed with
        its top-left entry at (i, j); overlapping blocks add.  The blocks are
        brought to their common denominator first.  A block that overlaps no
        earlier one is written rather than added, and a sum with an overlap
        is reduced where it is formed, so over F_p no entry ever exceeds
        2 (p - 1); the whole is put in lowest terms once."""
        fk = field._kernel
        spans, parts, dens = [], [], []
        for i, j, b in blocks:
            if b.field != field:
                raise ShapeMismatchError("field mismatch")
            if i < 0 or j < 0 or i + b.rows > rows or j + b.cols > cols:
                raise ShapeMismatchError(f"block {b.shape} at ({i}, {j}) leaves {rows}x{cols}")
            spans.append((i, i + b.rows, j, j + b.cols))
            parts.append(b._entries)
            dens.append(b._den)
        parts, den = _common(parts, dens)
        out = _zeros(field, (rows, cols))
        placed: list[tuple[int, int, int, int]] = []
        for (i0, i1, j0, j1), part in zip(spans, parts):
            view = out[i0:i1, j0:j1]
            if _claim(placed, i0, i1, j0, j1):
                view[...] = part
            else:
                view[...] = fk.normalize(view + part)
        return cls._of(field, *_lowest(out, den))

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
        entries of x only.  The denominator of a block is the product of its
        factors' denominators; the blocks are brought to their common
        denominator by scaling the first factor given.  A block that
        overlaps no earlier one is written rather than added.  A product
        block, and a sum with an overlap, is reduced where it is formed, so
        every entry is reduced when the block is done and over F_p no entry
        ever exceeds (p - 1)**2 + p - 1; reducing block by block keeps the
        int64 temporary of the reduction to one block, not the whole output.
        The whole is put in lowest terms once.
        """
        fk = field._kernel
        shaped, firsts, dens = [], [], []
        for i, j, x, y, n in blocks:
            if any(f is not None and f.field != field for f in (x, y)):
                raise ShapeMismatchError("field mismatch")
            xr, xc = (n, n) if x is None else x.shape
            yr, yc = (n, n) if y is None else y.shape
            if i < 0 or j < 0 or i + xr * yr > rows or j + xc * yc > cols:
                raise ShapeMismatchError(
                    f"block ({xr * yr}, {xc * yc}) at ({i}, {j}) leaves {rows}x{cols}")
            shaped.append((i, j, x, y, n, xr, xc, yr, yc))
            first = y if x is None else x
            firsts.append(first._entries)
            dens.append(first._den if x is None or y is None else x._den * y._den)
        firsts, den = _common(firsts, dens)
        out = _zeros(field, (rows, cols))
        placed: list[tuple[int, int, int, int]] = []
        for (i, j, x, y, n, xr, xc, yr, yc), first in zip(shaped, firsts):
            fresh = _claim(placed, i, i + xr * yr, j, j + xc * yc)
            view = out[i:i + xr * yr, j:j + xc * yc].reshape(xr, yr, xc, yc, copy=False)
            if x is None or y is None:
                k, whole = np.arange(n), slice(None)
                at = (k, whole, k, whole) if x is None else (whole, k, whole, k)
                if fresh:
                    view[at] = first
                    continue
                view[at] += first
            else:
                # the outer product into a 4-d view: np.kron's generic path
                # costs more than the product on the small blocks of witnesses
                a, b = first[:, None, :, None], y._entries[None, :, None, :]
                nz = np.broadcast_to(a != 0, view.shape)
                if fresh:
                    np.multiply(a, b, out=view, where=nz)
                else:
                    np.add(view, np.multiply(a, b, out=None, where=nz), out=view, where=nz)
            # a product, or a sum with an overlap: reduced where it is formed
            view[...] = fk.normalize(view)
        return cls._of(field, *_lowest(out, den))

    @classmethod
    def hcat(cls, field: Field, rows: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``rows`` rows, side by side."""
        for m in mats:
            if m.field != field or m.rows != rows:
                raise ShapeMismatchError(f"hcat of {m.shape} over {m.field} onto {rows} rows")
        if not mats:
            return cls.zeros(field, rows, 0)
        parts, den = _joined(mats)
        return cls._of(field, np.concatenate(parts, axis=1), den)

    @classmethod
    def vcat(cls, field: Field, cols: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``cols`` columns, stacked top to bottom."""
        for m in mats:
            if m.field != field or m.cols != cols:
                raise ShapeMismatchError(f"vcat of {m.shape} over {m.field} onto {cols} cols")
        if not mats:
            return cls.zeros(field, 0, cols)
        parts, den = _joined(mats)
        return cls._of(field, np.concatenate(parts, axis=0), den)

    @classmethod
    def lincomb(cls, field: Field, rows: int, cols: int, coeffs: Sequence,
                mats: Sequence["Mat"]) -> "Mat":
        """The ``rows x cols`` combination ``sum c_k * M_k`` of paired
        coefficients and matrices: the one-column case of ``Span.combine``."""
        return Span(field, rows, cols, mats).combine(cls.column(field, coeffs))[0]

    # -- accessors ----------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.field._kernel.exact(self._entries[i, j], self._den)

    def row_list(self) -> list[list[Scalar]]:
        return self.field._kernel.exact(self._entries, self._den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._entries.any()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_nilpotent(self) -> bool:
        """Whether the square matrix is nilpotent: the stacked test of
        ``all_nilpotent`` on a stack of one, with no ``Span``."""
        if not self.is_square():
            raise ShapeMismatchError("nilpotency is defined for square matrices")
        return _nilpotent_stack(self.field._kernel, self._entries[None])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or other.field != self.field or other.shape != self.shape:
            return False
        return other._den == self._den and bool((self._entries == other._entries).all())

    def __hash__(self):
        # the canonical form as Python numbers: equal matrices hash equal (an
        # object array's bytes would be pointers); computed once, since a
        # 28 x 28 matrix over F_p takes about 19 us
        if self._hash is None:
            self._hash = hash((self.field, self.rows, self.cols, self._den,
                               tuple(self._entries.ravel().tolist())))
        return self._hash

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
        fk = self.field._kernel
        (a, b), den = _joined([self, other])
        return Mat._of(self.field, *_lowest(fk.normalize(a + b), den))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(self.field.coerce(-1))

    def __neg__(self) -> "Mat":
        return self.scaled(self.field.coerce(-1))

    def scaled(self, c) -> "Mat":
        fk = self.field._kernel
        num, den = _ratio(fk, c)
        return Mat._of(self.field, *_lowest(fk.normalize(self._entries * num), self._den * den))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"matmul {self.shape} @ {other.shape}")
        fk = self.field._kernel
        product = fk.reduce(fk.matmul(self._entries, other._entries))
        return Mat._of(self.field, *_lowest(product, self._den * other._den))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self._entries.T, self._den)

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def kron(self, other: "Mat") -> "Mat":
        """The Kronecker product: the one-block case of ``kron_assemble``."""
        return Mat.kron_assemble(self.field, self.rows * other.rows, self.cols * other.cols,
                                 [(0, 0, self, other, 0)])

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries in row-major order, refilled as ``rows x cols``."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"reshape {self.shape} to ({rows}, {cols})")
        return Mat._of(self.field, self._entries.reshape(rows, cols), self._den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        if not (row_idx and col_idx):
            return Mat.zeros(self.field, len(row_idx), len(col_idx))
        return Mat._of(self.field, *_lowest(
            self._entries[np.ix_(row_idx, col_idx)], self._den))

    # -- solving -------------------------------------------------------------

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """The pivot columns of an echelon form: the columns a greedy pass
        keeps, each one independent of all columns before it."""
        return self.field._kernel.echelon(self._entries)[2]

    def kernel(self) -> "Mat":
        """Matrix whose columns form a basis of the right null space: the
        unique basis that is the identity on the free (non-pivot) columns:
        ``_null_basis`` of the nonzero stored entries (residues in [0, p)
        over F_p, over Q the numerators, the matrix times its denominator)
        as ``np.nonzero`` finds them, row by row.  Only the rest that the
        weight-one cascade leaves is copied into a dense array.
        """
        rows, cols = np.nonzero(self._entries)
        return _null_basis(self.field, rows, cols, self._entries[rows, cols], self.shape)

    def column_space(self) -> "Mat":
        """A basis of the column space, as the columns of the result."""
        if self.cols == 0:
            return Mat.zeros(self.field, self.rows, 0)
        fk = self.field._kernel
        w, den, piv = fk.echelon(self._entries.T)
        return Mat._of(self.field, *_lowest(w[:len(piv)].T.copy(), den))

    def solve(self, b: "Mat"):
        """Particular solution of self @ x = b (b a column), or None."""
        if b.rows != self.rows or b.cols != 1:
            raise ShapeMismatchError(f"rhs shape {b.shape} does not match {self.rows} rows")
        return self.solve_matrix(b)

    def solve_matrix(self, b: "Mat"):
        """Particular solution X of self @ X = B with free variables zero, or
        None when some column is inconsistent; one elimination for all
        columns, on both sides over their common denominator."""
        if b.rows != self.rows:
            raise ShapeMismatchError("solve_matrix row mismatch")
        self._require_same_field(b)
        n = self.cols
        if b.cols == 0:
            return Mat.zeros(self.field, n, 0)
        fk = self.field._kernel
        w, den, piv = fk.echelon(np.concatenate(_joined([self, b])[0], axis=1))
        if piv and piv[-1] >= n:
            return None
        x = _zeros(self.field, (n, b.cols))
        x[piv] = _back_substitute(fk, w, piv, w[:len(piv), n:])
        x = Mat._of(self.field, *_lowest(x, den))
        # the residual guards the elimination: a nonzero one means no solution
        return x if self @ x == b else None

    def is_invertible(self) -> bool:
        """Whether the matrix is square and has an inverse (``_inverted``)."""
        return self.is_square() and self._inverted() is not None

    def inverse(self) -> "Mat":
        """The inverse of a square matrix (``_inverted``); a singular one
        raises ``ZeroDivisionError``."""
        if not self.is_square():
            raise ShapeMismatchError("inverse of a non-square matrix")
        inv = self._inverted()
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return inv

    def _inverted(self) -> Optional["Mat"]:
        """The inverse of this square matrix, or None when it is singular,
        computed once per ``Mat`` object and kept in its ``_inverse`` slot
        (``False`` for a singular one).

        One elimination of [A | I] that stops at the first gap: A is
        invertible exactly when each of its n columns has a pivot, and then
        the n pivots use up every row before the elimination reaches I.  So
        a singular matrix costs an elimination up to its first gap, and an
        invertible one a single elimination whatever asks first, whether
        it is invertible or what its inverse is."""
        n = self.rows
        if n == 0:
            return self
        if self._inverse is None:
            fk = self.field._kernel
            w, den, piv = fk.echelon(np.concatenate(
                _joined([self, Mat.identity(self.field, n)])[0], axis=1), stop_at_gap=True)
            self._inverse = w is not None and Mat._of(
                self.field, *_lowest(_back_substitute(fk, w, piv, w[:n, n:]), den))
        return self._inverse or None

    def minimal_polynomial(self) -> list:
        """Exact minimal polynomial of a square matrix, ascending coefficients.

        Incremental fraction-free echelon over the flattened Krylov sequence
        I, t, t^2, ...; the tracked expression gives the dependence when it
        appears, made monic at the end.
        """
        if not self.is_square():
            raise ShapeMismatchError("minimal polynomial of a non-square matrix")
        field, fk = self.field, self.field._kernel
        n = self.rows
        if n == 0:
            return [field.one]
        # each Krylov row carries its expression in the powers after the
        # n*n entries, so one row operation reduces both: t^k is stored as
        # numerators over a denominator, so the expression is that
        # denominator times x^k.  A row is reduced by a reduced row with
        # pivot value a as a * row - f * reduced row, and then kept small
        # (``primitive``); reduced rows are kept as (pivot, pivot value,
        # nonzero columns, values) and subtract only on those columns
        width = n * n
        reduced: list[tuple[int, object, np.ndarray, np.ndarray]] = []
        cur = Mat.identity(field, n)
        for k in range(n + 1):
            row = np.concatenate([cur._entries.ravel(), _zeros(field, (n + 1,))])
            row[width + k] = cur._den
            for piv, a, cols, vals in reduced:
                f = row[piv]
                if f:
                    row = row * a
                    row[cols] -= f * vals
                    row = fk.primitive(row)
            nz = np.flatnonzero(row[:width])
            if not nz.size:
                coeffs = fk.exact(row[width:width + k + 1], 1)
                inv = field.inv(coeffs[-1])
                return [field.mul(c, inv) for c in coeffs]
            cols = np.flatnonzero(row)
            reduced.append((int(nz[0]), row[nz[0]], cols, row[cols]))
            cur = cur @ self
        raise RuntimeError("minimal polynomial search exceeded the dimension")


# ---------------------------------------------------------------------------
# polynomials: ascending coefficient lists, [] for zero
# ---------------------------------------------------------------------------
#
# One set of dense-polynomial helpers for every coefficient ring.  ``field``
# is anything with ``coerce``, ``inv``, ``zero`` and ``one``: a ``Field``,
# one of its kernels or ``_IntegersMod``; sums and products of coefficients
# are formed with ``+`` and ``*`` and brought back by one ``coerce`` per
# coefficient, so nothing here looks at which ring it is.  Inputs carry no
# zero leading coefficient, and neither do the results.

def _poly_trim(f: list) -> list:
    """``f`` without its zero leading coefficients."""
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def _poly_add(field, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _poly_trim([field.coerce(x + y) for x, y in zip(a, b)]
                      + [field.coerce(x) for x in a[len(b):]])


def _poly_sub(field, a: list, b: list) -> list:
    return _poly_add(field, a, [-y for y in b])


def _poly_mul(field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _poly_trim([field.coerce(c) for c in out])


def _poly_divmod(field, a: list, b: list) -> tuple[list, list]:
    """``(q, r)`` with a = q b + r and deg r < deg b, for b nonzero (over
    ``_IntegersMod``, b monic)."""
    a, n = list(a), len(b) - 1
    inv = field.inv(b[-1])
    q = [field.zero] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = field.coerce(a[k + n] * inv)
        if c:
            for i in range(n):
                a[k + i] -= c * b[i]
    return q, _poly_trim([field.coerce(x) for x in a[:n]])


def _poly_monic(field, f: list) -> list:
    if f[-1] == field.one:
        return f
    inv = field.inv(f[-1])
    return [field.coerce(inv * c) for c in f]


def _poly_pow(field, a: list, k: int) -> list:
    out = [field.one]
    for _ in range(k):
        out = _poly_mul(field, out, a)
    return out


def _poly_powmod(field, a: list, k: int, m: list) -> list:
    """a^k mod m, by repeated squaring."""
    out, a = [field.one], _poly_divmod(field, a, m)[1]
    while k:
        if k & 1:
            out = _poly_divmod(field, _poly_mul(field, out, a), m)[1]
        k >>= 1
        if k:
            a = _poly_divmod(field, _poly_mul(field, a, a), m)[1]
    return out


def _poly_diff(field, f: list) -> list:
    return _poly_trim([field.coerce(i * c) for i, c in enumerate(f)][1:])


def _poly_gcd(field, a: list, b: list) -> list:
    """The monic gcd of a and b, a nonzero, by Euclid's algorithm with each
    remainder made monic, which keeps coefficients over Q small."""
    while b:
        b = _poly_monic(field, b)
        a, b = b, _poly_divmod(field, a, b)[1]
    return _poly_monic(field, a)


def _poly_gcdex(field, a: list, b: list) -> tuple[list, list, list]:
    """``(g, u, v)`` with u a + v b = g, the monic gcd of the nonzero a and
    b, by the monic Euclidean algorithm (von zur Gathen and Gerhard,
    Algorithm 3.14): deg u < deg b - deg g and deg v < deg a - deg g."""
    def monic(r, u, v):
        inv = field.inv(r[-1])
        return tuple([field.coerce(inv * c) for c in p] for p in (r, u, v))

    (r0, u0, v0), (r1, u1, v1) = monic(a, [field.one], []), monic(b, [], [field.one])
    while True:
        q, r = _poly_divmod(field, r0, r1)
        if not r:
            return r1, u1, v1
        (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), monic(
            r, _poly_sub(field, u0, _poly_mul(field, q, u1)),
            _poly_sub(field, v0, _poly_mul(field, q, v1)))


def _poly_squarefree(field, f: list) -> tuple[list[tuple[list, int]], list]:
    """Musser's squarefree decomposition of the monic f of degree >= 1:
    ``([(h, i), ...], rest)`` with f = rest * prod h^i, the h monic,
    squarefree, pairwise coprime and of degree >= 1, and ``rest`` monic with
    zero derivative: [1] in characteristic 0, a p-th power in
    characteristic p."""
    g = _poly_gcd(field, f, _poly_diff(field, f))
    if len(g) == 1:
        return [(f, 1)], g
    h = _poly_divmod(field, f, g)[0]
    out, i = [], 1
    while len(h) > 1:
        common = _poly_gcd(field, g, h)
        part = _poly_divmod(field, h, common)[0]
        if len(part) > 1:
            out.append((part, i))
        g, h, i = _poly_divmod(field, g, common)[0], common, i + 1
    return out, g


class _IntegersMod:
    """Z/m, the coefficient ring of the Hensel lift: residues in [0, m)."""

    __slots__ = ("m",)
    zero = 0
    one = 1

    def __init__(self, m: int):
        self.m = m

    def coerce(self, x: int) -> int:
        return x % self.m

    def inv(self, a: int) -> int:
        return pow(a, -1, self.m)


def _hensel_step(f: list[int], g: list, h: list, s: list, t: list, m: int):
    """From f = g h and s g + t h = 1 mod m, h monic, deg s < deg h and
    deg t < deg g, the same four mod m^2 (von zur Gathen and Gerhard,
    Algorithm 15.10)."""
    ring = _IntegersMod(m * m)
    e = _poly_sub(ring, f, _poly_mul(ring, g, h))
    q, r = _poly_divmod(ring, _poly_mul(ring, s, e), h)
    g = _poly_add(ring, g, _poly_add(ring, _poly_mul(ring, t, e), _poly_mul(ring, q, g)))
    h = _poly_add(ring, h, r)
    b = _poly_sub(ring, _poly_add(ring, _poly_mul(ring, s, g), _poly_mul(ring, t, h)), [1])
    c, d = _poly_divmod(ring, _poly_mul(ring, s, b), h)
    s = _poly_sub(ring, s, d)
    t = _poly_sub(ring, t, _poly_add(ring, _poly_mul(ring, t, b), _poly_mul(ring, c, g)))
    return g, h, s, t


def factor_polynomial(field: Field, coeffs: Sequence) -> list[tuple[list, int]]:
    """The factorization over ``field`` of the polynomial with ascending
    coefficients ``coeffs``: ``[(monic irreducible factor, multiplicity)]``
    sorted by (length, coefficient text), which makes it unique; [] for a
    constant.  The field's kernel factors (``factor``)."""
    f = _poly_trim([field.coerce(c) for c in coeffs])
    if len(f) < 2:
        return []
    out = field._kernel.factor(_poly_monic(field, f))
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out


class Span:
    """Linear combinations of one list of ``rows x cols`` matrices.

    The matrices are the rows of one stack, each flattened row-major, over
    one common denominator.  ``Span(field, rows, cols, mats)`` stacks a
    list once; ``Span._of`` takes a stack as it is, as ``nilpotent_hom_basis``
    and ``Span.of_columns`` make a Hom basis, with no matrix built;
    ``assemble`` places the matrices of many Spans by index into one stack.
    A stack is read-only, and ``mats``, the matrices in lowest terms, views
    of the stack over F_p, where every denominator is 1, is built on its
    first read for a Span made from a stack.  The support is a sorted index
    array of stack columns outside which every matrix is zero: all of them,
    with no scan, except for ``assemble``, which reads off the columns that
    hold a nonzero.  ``combine`` then builds any number of combinations with
    one kernel product: the transposed coefficient matrix times the support
    columns of the stack, placed into a zeroed stack (the whole stack, with
    no copy, when the support is every column).  The product's inner
    dimension is the number of matrices, k; over F_p the kernel product
    reduces after every ``chunk`` of them (see ``_PrimeKernel``), so the
    result is exact for every k.  The product is reduced once, and each
    combination is a view of it, put in lowest terms on its own.
    ``trace_form`` reads two stacks as they are, on their supports.
    ``Mat.lincomb`` is the one-column case.
    """

    __slots__ = ("field", "rows", "cols", "_mats", "_stack", "_den", "_support")

    def __init__(self, field: Field, rows: int, cols: int, mats: Sequence[Mat]):
        for m in mats:
            if m.field != field or m.shape != (rows, cols):
                raise ShapeMismatchError(f"combination of {m.shape} into {rows}x{cols}")
        self.field, self.rows, self.cols = field, rows, cols
        self._mats = list(mats)
        parts, self._den = _joined(mats)
        self._stack = (np.stack([a.reshape(rows * cols) for a in parts]) if mats
                       else _zeros(field, (0, rows * cols)))
        self._support = np.arange(rows * cols)

    @classmethod
    def _of(cls, field: Field, rows: int, cols: int, stack: np.ndarray, den: int,
            support: Optional[np.ndarray] = None) -> "Span":
        """The Span whose matrices are the rows of the (k, rows * cols) array
        ``stack`` of numerators over ``den``, taken as they are and made
        read-only, with the given support (every column when None): for a
        stack of which the caller keeps no writable alias.  Its ``mats``
        are built on first read."""
        span = object.__new__(cls)
        stack.setflags(write=False)
        span.field, span.rows, span.cols, span._stack, span._den = field, rows, cols, stack, den
        span._support = np.arange(rows * cols) if support is None else support
        span._mats = None
        return span

    @classmethod
    def of_columns(cls, mat: Mat, shapes: Sequence[tuple[int, int]]) -> list["Span"]:
        """One Span per shape (e, d) of ``shapes``, for the rows of ``mat``
        cut top to bottom into consecutive blocks of e * d rows: matrix j of
        a block's Span is column j of the block refilled row-major as e x d.
        The entries are transposed once, and each Span's stack is a view of
        that copy."""
        if sum(e * d for e, d in shapes) != mat.rows:
            raise ShapeMismatchError(f"blocks {list(shapes)} do not cut {mat.rows} rows")
        flat = np.ascontiguousarray(mat._entries.T)
        out, off = [], 0
        for e, d in shapes:
            out.append(cls._of(mat.field, e, d, flat[:, off:off + e * d], mat._den))
            off += e * d
        return out

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def mats(self) -> list[Mat]:
        """The matrices, each in lowest terms; built once, on first read."""
        if self._mats is None:
            self._mats = [Mat._of(self.field, *_lowest(x.reshape(self.rows, self.cols), self._den))
                          for x in self._stack]
        return self._mats

    @classmethod
    def assemble(cls, field: Field, rows: int, cols: int, count: int, blocks) -> "Span":
        """The Span of ``count`` ``rows x cols`` matrices, matrix i the sum of
        the blocks ``(r, c, span)`` of ``blocks``, each placing matrix i of
        its ``span`` of ``count`` matrices with its top-left entry at (r, c);
        blocks do not overlap.  One block that fills the whole matrix gives
        its stack as it is, shared with no copy.  Otherwise every block is
        brought to one common denominator and placed, for all matrices at
        once, into one zeroed (count, rows, cols) stack.  Either way the
        support is the columns of the stack that hold a nonzero, read off
        once, and no matrix is built until ``mats`` is read."""
        blocks = list(blocks)
        placed: list[tuple[int, int, int, int]] = []
        for r, c, span in blocks:
            if span.field != field or len(span) != count:
                raise ShapeMismatchError(f"{len(span)} blocks over {span.field} at ({r}, {c}) "
                                         f"for {count} matrices")
            place = (r, r + span.rows, c, c + span.cols)
            if r < 0 or c < 0 or place[1] > rows or place[3] > cols or not _claim(placed, *place):
                raise ShapeMismatchError(f"block {span.rows}x{span.cols} at ({r}, {c}) leaves "
                                         f"{rows}x{cols} or overlaps another")
        if placed == [(0, rows, 0, cols)]:
            stack, den = blocks[0][2]._stack, blocks[0][2]._den
        else:
            parts, den = _common([span._stack for _, _, span in blocks],
                                 [span._den for _, _, span in blocks])
            out = _zeros(field, (count, rows, cols))
            for (r, c, span), part in zip(blocks, parts):
                h, w = span.rows, span.cols
                out[:, r:r + h, c:c + w] = part.reshape(count, h, w)
            stack = out.reshape(count, rows * cols)
        return cls._of(field, rows, cols, stack, den, stack.any(axis=0).nonzero()[0])

    def combine(self, coeffs: Mat) -> list[Mat]:
        """The combinations ``sum_k coeffs[k, j] * mats[k]``, one per column j
        of the ``len(mats) x c`` coefficient matrix."""
        flat, den = self._flat(coeffs)
        return [Mat._of(self.field, *_lowest(row.reshape(self.rows, self.cols), den))
                for row in flat]

    def _flat(self, coeffs: Mat) -> tuple[np.ndarray, int]:
        """The combinations of ``combine`` as the rows of one reduced array
        of numerators, and their common denominator."""
        if coeffs.field != self.field or coeffs.rows != len(self):
            raise ShapeMismatchError(
                f"coefficients {coeffs.shape} over {coeffs.field} for {len(self)} matrices")
        fk, stack, support = self.field._kernel, self._stack, self._support
        den = coeffs._den * self._den
        if len(support) == stack.shape[1]:
            return fk.reduce(fk.matmul(coeffs._entries.T, stack)), den
        out = _zeros(self.field, (coeffs.cols, stack.shape[1]))
        out[:, support] = fk.reduce(fk.matmul(coeffs._entries.T, stack.take(support, axis=1)))
        return out, den


def trace_form(lefts: Span, rights: Span) -> Mat:
    """The matrix with entry (i, j) equal to ``tr(lefts.mats[i] @
    rights.mats[j])``, for n x m ``lefts`` and m x n ``rights``.

    Since tr(AB) = sum over (a, b) of A[a, b] B[b, a], entry (a, b) of a
    left matrix, column a*m + b of its stack (row-major flattened), meets
    column b*n + a of the right stack.  Only the positions where both
    supports hold that pair can contribute, so the form is one product of
    the left stack's columns at those positions with the right stack's
    matching columns, both gathered by index, with no transposed copy.
    The stacks are read over their denominators.
    """
    field, n, m = lefts.field, lefts.rows, lefts.cols
    if rights.field != field or (rights.rows, rights.cols) != (m, n):
        raise ShapeMismatchError(f"trace form of {rights.rows}x{rights.cols} over {rights.field} "
                                 f"against {n}x{m} over {field}")
    fk, support = field._kernel, lefts._support
    right = np.zeros(m * n, dtype=bool)
    right[rights._support] = True
    # the right column b*n + a that meets each left support column a*m + b
    turn = np.arange(m * n).reshape(m, n).T.ravel().take(support)
    meet = right.take(turn)
    return Mat._of(field, *_lowest(
        fk.reduce(fk.matmul(lefts._stack.take(support[meet], axis=1),
                            rights._stack.take(turn[meet], axis=1).T)),
        lefts._den * rights._den))


# ---------------------------------------------------------------------------
# nilpotent Jordan structure
# ---------------------------------------------------------------------------

def all_nilpotent(span: Span, coeffs: Optional[Mat] = None) -> bool:
    """Whether every combination ``sum_k coeffs[k, j] * span.mats[k]``, one
    per column j of ``coeffs``, is nilpotent, or with ``coeffs`` None every
    one of ``span.mats``; the span's matrices are square.

    The combinations are the numerators of one kernel product over the
    span's stack (``Span._flat``), and the matrices themselves are the
    numerators of the stack: a nonzero multiple of a matrix is nilpotent
    exactly when the matrix is.  ``_nilpotent_stack`` tests them all in one
    pass.
    """
    if span.rows != span.cols:
        raise ShapeMismatchError("nilpotency is defined for square matrices")
    flat = span._stack if coeffs is None else span._flat(coeffs)[0]
    return _nilpotent_stack(span.field._kernel, flat.reshape(len(flat), span.rows, span.rows))


def _nilpotent_stack(fk, stack: np.ndarray) -> bool:
    """Whether every slice of the (k, n, n) ``stack`` of numerators of the
    kernel ``fk`` is nilpotent: the one nilpotency test, for ``all_nilpotent``
    and ``Mat.is_nilpotent`` alike.

    An n x n matrix x is nilpotent exactly when x^n = 0, its characteristic
    polynomial then being t^n, so exactly when x^(2^j) = 0 for the least j
    with 2^j >= n.  The whole stack is squared at once, one batched kernel
    product per step, at most ceil(log2 n) times, and reduced.  Before
    each product the stack's inner indices are read, those b that are a
    nonzero row of some slice and a nonzero column of some slice: a term
    x[i, b] x[b, j] of x^2 is nonzero only when b is both.  When there is
    none, every square is zero and the stack is nilpotent, with no
    product (the radical stacks of a certify round are of this kind).  A
    square is reduced before its support is read, so an entry that only
    its reduction makes zero counts as zero.  The stack is nilpotent
    exactly when what is left once 2^j >= n is zero; a 1 x 1 slice is
    nilpotent exactly when it is zero, with no product.
    """
    power, n = 1, stack.shape[-1]
    while power < n and len(stack):
        nz = stack != 0
        if not (nz.any(axis=(0, 2)) & nz.any(axis=(0, 1))).any():
            return True
        stack = fk.reduce(fk.matmul(stack, stack))
        power *= 2
    return not stack.any()


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
    is None.  The combinations are tested in one stacked pass
    (``all_nilpotent``), never built as matrices one by one.  ``Mat.kernel``
    returns the one basis that is the identity on the free columns, so
    equal spaces give equal results.  ``span.mats`` is nonempty.  ``ker``,
    when given, is that kernel, computed already.
    """
    if ker is None:
        ker = trace_form(span, span).kernel()
    return ker if all_nilpotent(span, ker) else None


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


@functools.lru_cache(maxsize=32)
def _intertwiner_pattern(sizes_src: tuple[int, ...], sizes_tgt: tuple[int, ...]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int,
                                    tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``(idx, rows, cols, c, by_row, by_col)``: the ones of the 0/1
    intertwiners h_c of the Jordan types ``sizes_src`` -> ``sizes_tgt``, one
    (c, i, j) triple per one, as read-only ``intp`` arrays, the number c of
    intertwiners, and the ones grouped by their row and by their column
    (``_groups``).  The last k vectors of a source chain of length a go to
    the first k of a target chain of length b, for k = 1 .. min(a, b).
    Memoised per pair of types: the arrays are shared, so nothing may write
    them."""
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
    out = tuple(np.array(x, dtype=np.intp) for x in (idx, rows, cols))
    groups = (_groups(out[1], sum(sizes_tgt)), _groups(out[2], sum(sizes_src)))
    for x in itertools.chain(out, *groups):
        x.setflags(write=False)
    return (*out, c, *groups)


def _groups(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)`` for the keys in ``range(size)``: the positions
    ``order[starts[k]:starts[k + 1]]`` are those that hold the key k, in
    increasing order."""
    starts = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=size), out=starts[1:])
    return np.argsort(keys, kind="stable"), starts


def _join(keys: np.ndarray, groups: tuple[np.ndarray, np.ndarray]
          ) -> tuple[np.ndarray, np.ndarray]:
    """``(at, pos)``: every pair of a position ``at`` in ``keys`` and a
    position ``pos`` in the grouped array that holds the same key, grouped
    by ``at``."""
    order, starts = groups
    lo = starts[keys]
    count = starts[keys + 1] - lo
    ends = np.cumsum(count)
    skip = np.repeat(lo - ends + count, count)
    return np.repeat(np.arange(keys.size), count), order[np.arange(skip.size) + skip]


def _summed(cells: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``vals`` at the flat ``cells``, where a cell occurs at
    most twice, with the two values of a cell added and the cells whose
    values cancel dropped, in increasing order of cells: one entry per cell,
    each nonzero.  Two values of opposite signs in (-p, p), as the Jordan
    route's A and B entries are over F_p, add up to a value in (-p, p)."""
    order = np.argsort(cells, kind="stable")
    cells, vals = cells[order], vals[order]
    twin = cells[1:] == cells[:-1]
    vals[:-1][twin] += vals[1:][twin]
    keep = vals != 0
    keep[1:][twin] = False
    return cells[keep], vals[keep]


def nilpotent_hom_basis(s: Mat, s_target: Mat, rest: Sequence[tuple[Mat, Mat]] = ()
                        ) -> tuple[Span, Mat, Mat]:
    """Basis of ``{g : g @ s == s_target @ g}`` for nilpotent s, s_target,
    cut down by ``g @ r == r2 @ g`` for every remaining pair ``(r, r2)``, in
    Jordan coordinates: ``(hs, P_t, P_s^-1)``, where ``hs`` is a ``Span``
    and every g of the space is P_t h P_s^-1 for one h in it.  Every matrix
    is over one field, s and s_target are square, and each r has the shape
    of s and each r2 that of s_target; anything else raises
    ``ShapeMismatchError``.

    In the Jordan frames s = P_s J_s P_s^-1 and s_target = P_t J_t P_t^-1,
    g = P_t h P_s^-1 intertwines s and s_target exactly when h intertwines
    J_s and J_t, and those h have a closed-form basis of 0/1 matrices h_c:
    a map J_a -> J_b has min(a, b) independent shifted-diagonal
    intertwiners.  Only their ones are listed, as (c, i, j) index triples
    (``_intertwiner_pattern``, memoised per pair of Jordan types).

    Each remaining pair is conjugated once, to (r', r2') = (P_s^-1 r P_s,
    P_t^-1 r2 P_t), and its conditions on the h_c are the entries (i, j) of
    h_c r' - r2' h_c, one row per (pair, i, j) and one column per c.  A one
    of h_c at (i, j') gives two terms: r'[j', j] in row (i, j) for every j
    (A), and -r2'[i', i] in row (i', j') for every i' (B).  For one c, each
    row i and each column j' holds at most one one, so within a term each
    (row, c) occurs once.  The conditions are built as index triples, never
    as an array: the nonzeros of each conjugated matrix (12 to 38 of the
    784 entries of a 28 x 28 one on the benchmark's workloads) are joined
    by index with the ones of the pattern grouped by column (A) and by row
    (B), and each cell, which holds at most one A and one B entry, gets
    their sum (``_summed``); a cell whose two entries cancel is dropped, so
    every triple is nonzero, and the rows left are the nonzero rows of the
    whole system.  Each pair's two matrices are over their common
    denominator, which scales its rows and so leaves the kernel as it is.
    Over F_p an A entry is a residue in [0, p) and a B entry the negative of
    one, so a sum lies in (-p, p) and is zero mod p only when it is zero:
    ``_null_basis`` takes the conditions exact and unreduced.  Since
    X -> P_t X P_s^-1 is a linear bijection, the kernel of these conditions
    is that of the conditions on the P_t h_c P_s^-1, and ``_null_basis``
    returns the one basis of it that is the identity on the free columns:
    mapped back, the hs are the basis that solving in the original
    coordinates gives.

    The h_c have pairwise disjoint supports (each is its own shifted
    diagonal of its own block), so each h, a kernel column or with no
    remaining pair an h_c itself, is its coefficients placed by index, with
    no product and no reduction, into one (k, e, d) stack over the kernel's
    denominator, returned as a read-only ``Span`` whose matrices are built
    only when ``mats`` is read.  The frames are returned, not applied:
    the frame of a matrix is a function of its entries (``jordan_nilpotent``
    is deterministic), so a module whose pencil is framed as a source and
    as a target gets P and P^-1 of one frame, and the traces, products and
    polynomials of its endomorphisms read the same in Jordan coordinates
    (see ``rep.HomSpace``).
    """
    field = s.field
    if any(x.field != field for x in itertools.chain([s_target], *rest)):
        raise ShapeMismatchError("nilpotent_hom_basis over more than one field")
    e, d = s_target.rows, s.rows
    if not (s.is_square() and s_target.is_square()) or any(
            r.shape != (d, d) or r2.shape != (e, e) for r, r2 in rest):
        raise ShapeMismatchError(f"pencil pairs do not fit a {s.shape} and a "
                                 f"{s_target.shape} square matrix")
    p_src, p_src_inv, sizes_src = _jordan_frame(s)
    p_tgt, p_tgt_inv, sizes_tgt = _jordan_frame(s_target)
    idx, rows, cols, c, by_row, by_col = _intertwiner_pattern(sizes_src, sizes_tgt)
    if c and rest:
        cells, vals = [], []
        for t, (r, r2) in enumerate(rest):
            (rj, r2j), _ = _joined([p_src_inv @ r @ p_src, p_tgt_inv @ r2 @ p_tgt])
            jp, j = np.nonzero(rj)              # A: r'[j', j], at the ones in column j'
            at, one = _join(jp, by_col)
            cells.append(((t * e + rows[one]) * d + j[at]) * c + idx[one])
            vals.append(rj[jp, j][at])
            i2, i = np.nonzero(r2j)             # B: -r2'[i', i], at the ones in row i
            at, one = _join(i, by_row)
            cells.append(((t * e + i2[at]) * d + cols[one]) * c + idx[one])
            vals.append(-r2j[i2, i][at])
        cells, vals = _summed(np.concatenate(cells), np.concatenate(vals))
        ker = _null_basis(field, cells // c, cells % c, vals, (len(rest) * e * d, c))
        k, h_den = ker.cols, ker._den
        h = _zeros(field, (k, e, d))
        h[:, rows, cols] = ker._entries[idx].T
    else:
        k, h_den = c, 1
        h = _zeros(field, (k, e, d))
        h[idx, rows, cols] = 1
    return Span._of(field, e, d, h.reshape(k, e * d), h_den), p_tgt, p_src_inv


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def find_invertible_in_span(span: Span, trials: int, seed) -> Optional[tuple[list, Mat]]:
    """Search a ``Span`` of square matrices for an invertible combination.

    Deterministic under the seed.  Tries each matrix, then the sum, then
    seeded random combinations, all drawn from the span's one stack.  A
    matrix with a zero row or a zero column is singular, so it is passed
    over without an elimination.  ``None`` after ``trials`` random draws is
    inconclusive, not a proof that no invertible element exists.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if span.rows != span.cols:
        raise ShapeMismatchError(f"span of {span.rows}x{span.cols} matrices is not square")
    field, n, k = span.field, span.rows, len(span)
    if not k:
        return None
    if n == 0:
        return [field.zero] * k, span.mats[0]
    # an element with a zero row or a zero column is singular: no elimination
    rows, cols = _nonzero_lines(span._stack.reshape(k, n, n))
    full = rows.all(axis=1) & cols.all(axis=1)
    # a unit coefficient vector combines to its matrix: no product
    for i, m in enumerate(span.mats):
        if full[i] and m.is_invertible():
            return [field.one if j == i else field.zero for j in range(k)], m
    rng = random.Random(f"span:{seed}")
    draws = ([field.random_scalar(rng) for _ in range(k)] for _ in range(trials))
    for coeffs in itertools.chain([[field.one] * k] if k > 1 else [], draws):
        combo = span.combine(Mat.column(field, coeffs))[0]
        if combo.is_invertible():
            return [field.coerce(c) for c in coeffs], combo
    return None
