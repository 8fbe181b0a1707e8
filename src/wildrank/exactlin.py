"""Exact scalar and matrix arithmetic over the rationals and prime fields.

Scalars are plain ``Fraction`` values over the rationals and plain ``int``
residues in ``[0, p)`` over a prime field.  ``Mat`` wraps either a list of
``Fraction`` rows or a numpy ``float64`` array of residues; all prime-field
arithmetic is exact because every intermediate value is kept below 2**53
(delayed modular reduction).  The storage choice stays inside this module:
other modules build and combine matrices only through ``Mat`` operations,

* ``assemble`` (a sum of blocks placed at offsets), ``hcat``/``vcat`` (many
  matrices side by side or on top of each other), ``lincomb`` (a linear
  combination), ``unit`` (a matrix unit) and row-major ``reshape``;
* ``column_space`` and ``minimal_polynomial``, next to rank, kernel, solve
  and inverse;
* ``intertwiner_system``, the linear conditions for a combination of
  matrices to intertwine given pairs.

All operations are pure and all values are immutable after construction.
Randomized searches take an explicit seed and are deterministic under it.
"""

from __future__ import annotations

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

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0:
            if char < 5 or not _is_prime(char):
                raise ValueError(f"prime field characteristic must be a prime >= 5, got {char}")
        self.char = char

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    # -- scalar helpers ----------------------------------------------------

    def coerce(self, x) -> Scalar:
        """Coerce an int / Fraction / string like '2/3' into a field scalar."""
        if self.char:
            if isinstance(x, Fraction):
                if x.denominator % self.char == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.char}")
                return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
            return int(x) % self.char
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    @property
    def zero(self) -> Scalar:
        return 0 if self.char else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.char else Fraction(1)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.char if self.char else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.char if self.char else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.char if self.char else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.char if self.char else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.char:
            a = a % self.char
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def random_scalar(self, rng: random.Random) -> Scalar:
        """Uniform over F_p; small integers in [-9, 9] over the rationals."""
        if self.char:
            return rng.randrange(self.char)
        return Fraction(rng.randint(-9, 9))

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
        return "Q" if self.char == 0 else f"F{self.char}"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


QQ = Field.rationals()
F101 = Field.prime(101)


# ---------------------------------------------------------------------------
# prime-field kernels (numpy, delayed reduction)
# ---------------------------------------------------------------------------

def _echelon_fp(a: np.ndarray, p: int, panel: int = _PANEL):
    """Row echelon form mod p with unit pivots and zeros below each pivot.

    Each column panel is factored inside a contiguous buffer (cache friendly),
    then the trailing block is updated with one triangular pass plus one GEMM.
    Entries may exceed p mid-panel but stay exact in float64: growth per panel
    is bounded by ``panel * p**2`` which is far below 2**53.
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


def _kernel_fp(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space mod p, as columns of an (n, k) array."""
    m, n = a.shape
    w, piv = _echelon_fp(a, p)
    free = [c for c in range(n) if c not in set(piv)]
    k = len(free)
    out = np.zeros((n, k))
    if k == 0:
        return out
    r = len(piv)
    # back substitution on the echelon form, vectorized over all free columns
    rhs = w[:r, free].copy()             # r x k
    sol = np.zeros((r, k))
    for i in range(r - 1, -1, -1):
        acc = rhs[i].copy()
        tail = w[i, piv[i + 1:r]]
        if tail.size and tail.any():
            acc -= tail @ sol[i + 1:r]
        sol[i] = acc % p
    for idx, c in enumerate(free):
        out[c, idx] = 1.0
    if r:
        out[piv[:r], :] = (-sol) % p
    return out


def _solve_many_fp(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Solve a X = b columnwise with a single elimination; None when any
    column is inconsistent.  Free variables are set to zero."""
    m, n = a.shape
    k = b.shape[1]
    aug = np.concatenate([a, b], axis=1)
    w, piv = _echelon_fp(aug, p)
    if piv and piv[-1] >= n:
        return None
    x = np.zeros((n, k))
    r = len(piv)
    for i in range(r - 1, -1, -1):
        acc = w[i, n:].copy()
        tail = w[i, piv[i + 1:r]]
        if tail.size and tail.any():
            acc -= tail @ x[piv[i + 1:r], :]
        x[piv[i]] = acc % p
    # rows above pivots may still be inconsistent when rank < m: check residual
    resid = (a @ x - b) % p
    if resid.any():
        return None
    return x


# ---------------------------------------------------------------------------
# rational kernels (Fraction rows)
# ---------------------------------------------------------------------------

def _echelon_qq(rows: list[list[Fraction]]):
    """Reduced echelon over the rationals. Returns (rows, pivot columns)."""
    w = [list(r) for r in rows]
    m = len(w)
    n = len(w[0]) if m else 0
    piv: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if w[i][c] != 0), None)
        if sel is None:
            continue
        w[r], w[sel] = w[sel], w[r]
        inv = Fraction(1) / w[r][c]
        w[r] = [x * inv for x in w[r]]
        for i in range(m):
            if i != r and w[i][c] != 0:
                f = w[i][c]
                w[i] = [x - f * y for x, y in zip(w[i], w[r])]
        piv.append(c)
        r += 1
    return w, piv


# ---------------------------------------------------------------------------
# Mat
# ---------------------------------------------------------------------------

class Mat:
    """An immutable exact matrix over a :class:`Field`.

    Prime-field entries live in a float64 numpy array of residues in
    ``[0, p)``; rational entries in a tuple of ``Fraction`` row tuples.
    """

    __slots__ = ("field", "rows", "cols", "_arr", "_rows")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        if field.char:
            arr = np.asarray(data, dtype=np.float64).reshape(rows, cols) % field.char
            arr.setflags(write=False)
            self._arr = arr
            self._rows = None
        else:
            self._arr = None
            self._rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                               for row in data)
            if len(self._rows) != rows or any(len(r) != cols for r in self._rows):
                raise ShapeMismatchError("row data does not match declared shape")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise ShapeMismatchError("ragged rows")
        coerced = [[field.coerce(x) for x in row] for row in rows]
        return cls(field, m, n, coerced)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        if field.char:
            return cls(field, rows, cols, np.zeros((rows, cols)))
        return cls(field, rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        if field.char:
            return cls(field, n, n, np.eye(n))
        return cls(field, n, n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        return cls.from_rows(field, [[x] for x in entries])

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng: random.Random) -> "Mat":
        data = [[field.random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
        return cls(field, rows, cols, data if not field.char else
                   np.array(data, dtype=np.float64).reshape(rows, cols))

    @classmethod
    def unit(cls, field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        """The matrix unit: one at (i, j), zero elsewhere."""
        return cls.assemble(field, rows, cols, [(i, j, cls.identity(field, 1))])

    @classmethod
    def assemble(cls, field: Field, rows: int, cols: int, blocks) -> "Mat":
        """The ``rows x cols`` sum of the blocks ``(i, j, b)``, each placed with
        its top-left entry at (i, j); overlapping blocks add."""
        blocks = list(blocks)
        for i, j, b in blocks:
            if b.field != field:
                raise ShapeMismatchError("field mismatch")
            if i < 0 or j < 0 or i + b.rows > rows or j + b.cols > cols:
                raise ShapeMismatchError(f"block {b.shape} at ({i}, {j}) leaves {rows}x{cols}")
        if field.char:
            out = np.zeros((rows, cols))
            for i, j, b in blocks:
                out[i:i + b.rows, j:j + b.cols] += b._arr
            return cls(field, rows, cols, out)
        data = [[0] * cols for _ in range(rows)]
        for i, j, b in blocks:
            for dst, src in zip(data[i:i + b.rows], b._rows):
                for k, x in enumerate(src, j):
                    if x:
                        dst[k] += x
        return cls(field, rows, cols, data)

    @classmethod
    def hcat(cls, field: Field, rows: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``rows`` rows, side by side."""
        for m in mats:
            if m.field != field or m.rows != rows:
                raise ShapeMismatchError(f"hstack of {m.shape} over {m.field} onto {rows} rows")
        cols = sum(m.cols for m in mats)
        if field.char:
            return cls(field, rows, cols, np.concatenate([m._arr for m in mats], axis=1)
                       if mats else np.zeros((rows, 0)))
        return cls(field, rows, cols, [[x for m in mats for x in m._rows[i]] for i in range(rows)])

    @classmethod
    def vcat(cls, field: Field, cols: int, mats: Sequence["Mat"]) -> "Mat":
        """The matrices, each with ``cols`` columns, stacked top to bottom."""
        for m in mats:
            if m.field != field or m.cols != cols:
                raise ShapeMismatchError(f"vstack of {m.shape} over {m.field} onto {cols} cols")
        rows = sum(m.rows for m in mats)
        if field.char:
            return cls(field, rows, cols, np.concatenate([m._arr for m in mats], axis=0)
                       if mats else np.zeros((0, cols)))
        return cls(field, rows, cols, [r for m in mats for r in m._rows])

    @classmethod
    def lincomb(cls, field: Field, rows: int, cols: int, coeffs: Sequence,
                mats: Sequence["Mat"]) -> "Mat":
        """The ``rows x cols`` combination ``sum c_k * M_k`` of paired
        coefficients and matrices."""
        terms = [(field.coerce(c), m) for c, m in zip(coeffs, mats)]
        for _, m in terms:
            if m.field != field or m.shape != (rows, cols):
                raise ShapeMismatchError(f"combination of {m.shape} into {rows}x{cols}")
        if field.char:
            out = np.zeros((rows, cols))
            for c, m in terms:
                if c:
                    out += c * m._arr
                    out %= field.char
            return cls(field, rows, cols, out)
        data = [[0] * cols for _ in range(rows)]
        for c, m in terms:
            if c:
                for dst, src in zip(data, m._rows):
                    for k, x in enumerate(src):
                        if x:
                            dst[k] += c * x
        return cls(field, rows, cols, data)

    # -- accessors ----------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        if self._arr is not None:
            return int(self._arr[i, j])
        return self._rows[i][j]

    def row_list(self) -> list[list[Scalar]]:
        if self._arr is not None:
            return [[int(x) for x in row] for row in self._arr]
        return [list(r) for r in self._rows]

    def column_entries(self, j: int) -> list[Scalar]:
        return [self.entry(i, j) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        if self._arr is not None:
            return not self._arr.any()
        return all(x == 0 for row in self._rows for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or other.field != self.field or other.shape != self.shape:
            return False
        if self._arr is not None:
            return bool((self._arr == other._arr).all())
        return self._rows == other._rows

    def __hash__(self):
        if self._arr is not None:
            return hash((self.field, self.rows, self.cols, self._arr.tobytes()))
        return hash((self.field, self._rows))

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
        if self._arr is not None:
            return Mat(self.field, self.rows, self.cols, self._arr + other._arr)
        return Mat(self.field, self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(self.field.coerce(-1))

    def __neg__(self) -> "Mat":
        return self.scaled(self.field.coerce(-1))

    def scaled(self, c) -> "Mat":
        c = self.field.coerce(c)
        if self._arr is not None:
            return Mat(self.field, self.rows, self.cols, self._arr * float(c))
        return Mat(self.field, self.rows, self.cols, [[c * x for x in row] for row in self._rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"matmul {self.shape} @ {other.shape}")
        if self._arr is not None:
            return Mat(self.field, self.rows, other.cols, self._arr @ other._arr)
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            ri = self._rows[i]
            for k in range(self.cols):
                a = ri[k]
                if a == 0:
                    continue
                rk = other._rows[k]
                oi = out[i]
                for j in range(other.cols):
                    if rk[j] != 0:
                        oi[j] += a * rk[j]
        return Mat(self.field, self.rows, other.cols, out)

    def transpose(self) -> "Mat":
        if self._arr is not None:
            return Mat(self.field, self.cols, self.rows, self._arr.T)
        return Mat(self.field, self.cols, self.rows,
                   [[self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)])

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ShapeMismatchError("trace of a non-square matrix")
        if self._arr is not None:
            return int(self._arr.trace()) % self.field.char
        total = Fraction(0)
        for i in range(self.rows):
            total += self._rows[i][i]
        return total

    def kron(self, other: "Mat") -> "Mat":
        self._require_same_field(other)
        if self._arr is not None:
            # the outer product, reshaped: np.kron's generic path costs more
            # than the product itself on the small blocks of witness actions
            return Mat(self.field, self.rows * other.rows, self.cols * other.cols,
                       (self._arr[:, None, :, None] * other._arr[None, :, None, :])
                       .reshape(self.rows * other.rows, self.cols * other.cols))
        zero = [Fraction(0)] * other.cols
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for a in self._rows[i]:
                    row.extend([a * x for x in other._rows[k]] if a else zero)
                out.append(row)
        return Mat(self.field, self.rows * other.rows, self.cols * other.cols, out)

    def hstack(self, other: "Mat") -> "Mat":
        return Mat.hcat(self.field, self.rows, [self, other])

    def vstack(self, other: "Mat") -> "Mat":
        return Mat.vcat(self.field, self.cols, [self, other])

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries in row-major order, refilled as ``rows x cols``."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"reshape {self.shape} to ({rows}, {cols})")
        if self._arr is not None:
            return Mat(self.field, rows, cols, self._arr.reshape(rows, cols))
        flat = [x for row in self._rows for x in row]
        return Mat(self.field, rows, cols, [flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        if self._arr is not None:
            return Mat(self.field, len(row_idx), len(col_idx),
                       self._arr[np.ix_(row_idx, col_idx)] if row_idx and col_idx
                       else np.zeros((len(row_idx), len(col_idx))))
        return Mat(self.field, len(row_idx), len(col_idx),
                   [[self._rows[i][j] for j in col_idx] for i in row_idx])

    # -- solving -------------------------------------------------------------

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """The pivot columns of an echelon form: the columns a greedy pass
        keeps, each one independent of all columns before it."""
        if self._arr is not None:
            return _echelon_fp(self._arr, self.field.char)[1]
        if self.rows == 0 or self.cols == 0:
            return []
        return _echelon_qq(self.row_list())[1]

    def kernel(self) -> "Mat":
        """Matrix whose columns form a basis of the right null space."""
        if self._arr is not None:
            ker = _kernel_fp(self._arr, self.field.char)
            return Mat(self.field, self.cols, ker.shape[1], ker)
        if self.rows == 0 or self.cols == 0:
            return Mat.identity(self.field, self.cols)
        w, piv = _echelon_qq(self.row_list())
        pivset = set(piv)
        free = [c for c in range(self.cols) if c not in pivset]
        cols = []
        for c in free:
            v = [Fraction(0)] * self.cols
            v[c] = Fraction(1)
            for r, pc in enumerate(piv):
                v[pc] = -w[r][c]
            cols.append(v)
        return Mat(self.field, self.cols, len(cols),
                   [[cols[j][i] for j in range(len(cols))] for i in range(self.cols)])

    def column_space(self) -> "Mat":
        """A basis of the column space, as the columns of the result."""
        if self.cols == 0:
            return Mat.zeros(self.field, self.rows, 0)
        if self._arr is not None:
            w, piv = _echelon_fp(self._arr.T, self.field.char)
            return Mat(self.field, self.rows, len(piv), w[:len(piv)].T)
        w, piv = _echelon_qq(self.T.row_list())
        return Mat(self.field, self.rows, len(piv),
                   [[w[k][i] for k in range(len(piv))] for i in range(self.rows)])

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
        if self._arr is not None:
            if b.cols == 0:
                return Mat.zeros(self.field, self.cols, 0)
            x = _solve_many_fp(self._arr, b._arr, self.field.char)
            if x is None:
                return None
            return Mat(self.field, self.cols, b.cols, x)
        n = self.cols
        w, piv = _echelon_qq([r + s for r, s in zip(self._rows, b._rows)])
        if piv and piv[-1] >= n:
            return None
        x = [[0] * b.cols for _ in range(n)]
        for r, pc in enumerate(piv):
            x[pc] = w[r][n:]
        return Mat(self.field, n, b.cols, x)

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise ShapeMismatchError("inverse of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        if self._arr is not None:
            p = self.field.char
            aug = np.concatenate([self._arr, np.eye(n)], axis=1)
            w, piv = _echelon_fp(aug, p)
            if len(piv) < n or piv[n - 1] != n - 1:
                raise ZeroDivisionError("matrix is singular")
            # back-eliminate above pivots
            for i in range(n - 1, -1, -1):
                f = w[:i, i].copy()
                if f.any():
                    w[:i, n:] = (w[:i, n:] - f[:, None] * w[i, n:][None, :]) % p
            return Mat(self.field, n, n, w[:, n:])
        aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
               for i, r in enumerate(self._rows)]
        w, piv = _echelon_qq(aug)
        if len([c for c in piv if c < n]) < n:
            raise ZeroDivisionError("matrix is singular")
        return Mat(self.field, n, n, [row[n:] for row in w[:n]])

    def minimal_polynomial(self) -> list:
        """Exact minimal polynomial of a square matrix, ascending coefficients.

        Incremental echelon over the flattened Krylov sequence I, t, t^2, ...;
        the tracked expression gives the monic dependence when it appears.
        """
        if not self.is_square():
            raise ShapeMismatchError("minimal polynomial of a non-square matrix")
        field = self.field
        n = self.rows
        if n == 0:
            return [field.one]
        cur = Mat.identity(field, n)
        if self._arr is not None:
            p = field.char
            reduced: list[tuple[int, np.ndarray, np.ndarray]] = []
            k = 0
            while True:
                vec = cur._arr.reshape(-1).copy()
                expr = np.zeros(k + 1)
                expr[k] = 1.0
                for piv, row, rexpr in reduced:
                    f = vec[piv]
                    if f:
                        vec = (vec - f * row) % p
                        expr[:len(rexpr)] = (expr[:len(rexpr)] - f * rexpr) % p
                nz = np.nonzero(vec)[0]
                if len(nz) == 0:
                    return [field.coerce(int(c)) for c in expr]
                piv = int(nz[0])
                inv = pow(int(vec[piv]), p - 2, p)
                vec = (vec * inv) % p
                expr = (expr * inv) % p
                reduced.append((piv, vec, expr))
                cur = cur @ self
                k += 1
                if k > n:
                    raise RuntimeError("minimal polynomial search exceeded the dimension")
        reduced_q: list[tuple[int, list, list]] = []
        k = 0
        while True:
            vec = [x for row in cur._rows for x in row]
            expr = [Fraction(0)] * k + [Fraction(1)]
            for piv, row, rexpr in reduced_q:
                f = vec[piv]
                if f != 0:
                    vec = [x - f * y for x, y in zip(vec, row)]
                    for i in range(len(rexpr)):
                        expr[i] -= f * rexpr[i]
            piv = next((i for i, x in enumerate(vec) if x != 0), None)
            if piv is None:
                return expr
            inv = Fraction(1) / vec[piv]
            vec = [x * inv for x in vec]
            expr = [x * inv for x in expr]
            reduced_q.append((piv, vec, expr))
            cur = cur @ self
            k += 1
            if k > n:
                raise RuntimeError("minimal polynomial search exceeded the dimension")


def intertwiner_system(params: Sequence[Mat], pairs: Sequence[tuple[Mat, Mat]]) -> Mat:
    """Linear conditions on x for ``g = sum x_c * g_c`` to intertwine every pair.

    Column c stacks, pair by pair, the row-major entries of
    ``g_c @ s - s2 @ g_c`` for the pairs ``(s, s2)``, so the kernel of the
    result holds the coefficients of every g with ``g @ s == s2 @ g``.
    ``params`` and ``pairs`` are nonempty.
    """
    field = params[0].field
    e, d = params[0].shape
    nrows = len(pairs) * e * d
    if field.char:
        g = np.stack([m._arr for m in params])            # (c, e, d)
        blocks = [((g @ s._arr - s2._arr @ g) % field.char).reshape(len(params), e * d).T
                  for s, s2 in pairs]
        return Mat(field, nrows, len(params), np.concatenate(blocks, axis=0))
    cols = [[x for s, s2 in pairs for row in (g @ s - s2 @ g)._rows for x in row]
            for g in params]
    return Mat(field, nrows, len(params), [list(r) for r in zip(*cols)])


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


def jordan_nilpotent(s: Mat) -> tuple[Mat, list[int]]:
    """Jordan basis of a nilpotent matrix.

    Returns ``(P, sizes)`` with ``s @ P == P @ J`` where J is block diagonal
    with nilpotent Jordan blocks of the given sizes (ones on the
    superdiagonal).  Each chain is stored as columns
    ``s^(a-1) v, ..., s v, v``.
    """
    n = s.rows
    if n == 0:
        return Mat.identity(s.field, 0), []
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
    sizes: list[int] = []
    for chain in chains:
        sizes.append(len(chain))
        cols.extend(reversed(chain))
    basis = Mat.hcat(field, n, cols)
    if not basis.is_invertible():
        raise ValueError("Jordan basis construction failed")
    return basis, sizes


def _jordan_shift(field: Field, sizes: Sequence[int]) -> Mat:
    n = sum(sizes)
    rows = [[field.zero] * n for _ in range(n)]
    off = 0
    for a in sizes:
        for k in range(1, a):
            rows[off + k - 1][off + k] = field.one
        off += a
    return Mat(field, n, n, rows)


def nilpotent_hom_basis(s: Mat, s_target: Mat) -> list[Mat]:
    """Basis of ``{g : g @ s == s_target @ g}`` for nilpotent s, s_target.

    Uses the closed-form intertwiner bases between Jordan blocks: a map
    J_a -> J_b has min(a, b) independent shifted-diagonal intertwiners.
    """
    field = s.field
    p_src, sizes_src = jordan_nilpotent(s)
    p_tgt, sizes_tgt = jordan_nilpotent(s_target)
    p_src_inv = p_src.inverse()
    n_src = s.rows
    n_tgt = s_target.rows
    out: list[Mat] = []
    off_t = 0
    for b in sizes_tgt:
        off_s = 0
        for a in sizes_src:
            for sdx in range(1, min(a, b) + 1):
                rows = [[field.zero] * n_src for _ in range(n_tgt)]
                for k in range(max(1, a - sdx + 1), a + 1):
                    rows[off_t + sdx - a + k - 1][off_s + k - 1] = field.one
                h = Mat(field, n_tgt, n_src, rows)
                out.append(p_tgt @ h @ p_src_inv)
            off_s += a
        off_t += b
    return out


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def find_invertible_in_span(basis: Sequence[Mat], trials: int, seed) -> Optional[tuple[list, Mat]]:
    """Search the span of square matrices for an invertible combination.

    Deterministic under the seed.  Tries each basis element, then the sum,
    then seeded random combinations.  ``None`` after ``trials`` random draws
    is inconclusive, not a proof that no invertible element exists.
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

    def check(coeffs):
        combo = Mat.lincomb(field, n, n, coeffs, basis)
        if combo.is_invertible():
            return [field.coerce(c) for c in coeffs], combo
        return None

    for i in range(len(basis)):
        got = check([field.one if j == i else field.zero for j in range(len(basis))])
        if got:
            return got
    if len(basis) > 1:
        got = check([field.one] * len(basis))
        if got:
            return got
    rng = random.Random(f"span:{seed}")
    for _ in range(trials):
        got = check([field.random_scalar(rng) for _ in basis])
        if got:
            return got
    return None
