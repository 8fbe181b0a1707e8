"""Witness bimodules for wildness, with tracked free ranks.

A witness is a bimodule over (target algebra, source algebra), free of
finite rank over the source, stored through the left action of the target's
basis on the free generators.  Tensoring against a source module gives the
associated exact functor; its preservation properties (indecomposability,
isomorphism classes, Hom dimensions when fullness is claimed) are checked
by bounded randomized verification, never assumed.

Built-ins: the rank-2 embedding of two-matrix modules into three-arrow
Kronecker representations, the rank-7 fully faithful functor in the other
direction, and their rank-28 composite whose images consist of sincere
modules.  Certificate arithmetic tracks upper bounds on the minimal witness
rank of an algebra under composition, factor algebras, and Morita
multiplication.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Union

from .exactlin import Field, Mat, ShapeMismatchError
from .quiver import (AlgebraElement, AlgebraTable, BoundQuiver, Path, Quiver,
                     build_algebra_table, loop_quiver)
from .rep import (Representation, are_isomorphic, hom_space,
                  in_sincere_subcategory, is_indecomposable, InconclusiveError)

DEFAULT_DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """A noncommutative polynomial exceeded the configured degree cap."""


# ---------------------------------------------------------------------------
# free algebra on two letters
# ---------------------------------------------------------------------------

class FreeAlgebra:
    """Marker for the free associative algebra on letters x, y over a field."""

    __slots__ = ("field",)

    def __init__(self, field: Field):
        self.field = field

    def __eq__(self, other):
        return isinstance(other, FreeAlgebra) and other.field == self.field

    def __hash__(self):
        return hash(("FreeAlgebra", self.field))

    def __repr__(self):
        return f"k<x,y> over {self.field}"


def free_carrier(field: Field) -> BoundQuiver:
    """Two-loop quiver carrying finite-dimensional two-matrix modules."""
    return BoundQuiver(loop_quiver(2), [], nilbound=3)


class NCPoly:
    """Noncommutative polynomial in x, y with a total-degree cap."""

    __slots__ = ("field", "terms", "cap")

    def __init__(self, field: Field, terms: dict[tuple[str, ...], object],
                 cap: int = DEFAULT_DEGREE_CAP):
        self.field = field
        self.cap = cap
        clean = {}
        for word, coef in terms.items():
            c = field.coerce(coef)
            if c == 0:
                continue
            if any(letter not in ("x", "y") for letter in word):
                raise ValueError(f"word {word} uses letters outside x, y")
            if len(word) > cap:
                raise DegreeCapError(f"degree {len(word)} exceeds cap {cap}")
            clean[tuple(word)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, cap: int = DEFAULT_DEGREE_CAP) -> "NCPoly":
        return cls(field, {}, cap)

    @classmethod
    def one(cls, field: Field, cap: int = DEFAULT_DEGREE_CAP) -> "NCPoly":
        return cls(field, {(): 1}, cap)

    @classmethod
    def letter(cls, field: Field, name: str, cap: int = DEFAULT_DEGREE_CAP) -> "NCPoly":
        return cls(field, {(name,): 1}, cap)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        f = self.field
        for w, c in other.terms.items():
            out[w] = f.add(out.get(w, f.zero), c)
        return NCPoly(f, out, max(self.cap, other.cap))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scaled(-1)

    def scaled(self, c) -> "NCPoly":
        f = self.field
        c = f.coerce(c)
        return NCPoly(f, {w: f.mul(c, v) for w, v in self.terms.items()}, self.cap)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        f = self.field
        out: dict[tuple[str, ...], object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = f.add(out.get(w, f.zero), f.mul(c1, c2))
        return NCPoly(f, out, max(self.cap, other.cap))

    def substitute(self, x: Mat, y: Mat) -> Mat:
        """Evaluate at square matrices; the empty word becomes the identity."""
        n = x.rows
        words = []
        for word in self.terms:
            acc = Mat.identity(self.field, n)
            for letter in word:
                acc = acc @ (x if letter == "x" else y)
            words.append(acc)
        return Mat.lincomb(self.field, n, n, self.terms.values(), words)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items()):
            word = "*".join(w) if w else "1"
            parts.append(f"{c}*{word}")
        return " + ".join(parts)


@dataclass(frozen=True)
class FreeAlgModule:
    """A module over the two-letter free algebra: a pair of square matrices."""

    x: Mat
    y: Mat

    def __post_init__(self):
        if not self.x.is_square() or self.x.shape != self.y.shape:
            raise ShapeMismatchError("x and y must be square of equal size")

    @property
    def dim(self) -> int:
        return self.x.rows

    @property
    def field(self) -> Field:
        return self.x.field

    def as_representation(self) -> Representation:
        bq = free_carrier(self.field)
        return Representation(bq, self.field, {"v": self.dim},
                              {"x": self.x, "y": self.y}, check=False)

    def direct_sum(self, other: "FreeAlgModule") -> "FreeAlgModule":
        def blk(a, b):
            return Mat.assemble(a.field, a.rows + b.rows, a.cols + b.cols,
                                [(0, 0, a), (a.rows, a.cols, b)])
        return FreeAlgModule(blk(self.x, other.x), blk(self.y, other.y))

    @classmethod
    def zero(cls, field: Field) -> "FreeAlgModule":
        return cls(Mat.zeros(field, 0, 0), Mat.zeros(field, 0, 0))

    @classmethod
    def random(cls, field: Field, max_dim: int, rng: random.Random) -> "FreeAlgModule":
        t = rng.randint(1, max_dim)
        return cls(Mat.random(field, t, t, rng), Mat.random(field, t, t, rng))


def free_hom_dim(v: FreeAlgModule, w: FreeAlgModule) -> int:
    return hom_space(v.as_representation(), w.as_representation()).dim


# ---------------------------------------------------------------------------
# entry-matrix helpers (matrices over NCPoly or AlgebraElement)
# ---------------------------------------------------------------------------

class _Ring:
    """Adapter giving a uniform zero/one over entry rings."""

    def __init__(self, source):
        self.source = source

    def zero(self):
        if isinstance(self.source, FreeAlgebra):
            return NCPoly.zero(self.source.field)
        return self.source.zero()

    def one(self):
        if isinstance(self.source, FreeAlgebra):
            return NCPoly.one(self.source.field)
        return self.source.one()

    def scalar(self, c):
        return self.one().scaled(c)


def _em_shape(m) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def _em_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _em_scaled(a, c):
    return [[x.scaled(c) for x in row] for row in a]


def _em_mul(a, b, ring: _Ring):
    n, k = _em_shape(a)
    k2, m = _em_shape(b)
    if k != k2:
        raise ShapeMismatchError("entry-matrix product shape mismatch")
    out = [[ring.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for l in range(k):
            x = a[i][l]
            if x.is_zero():
                continue
            for j in range(m):
                y = b[l][j]
                if not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def _em_eq(a, b) -> bool:
    for r1, r2 in zip(a, b):
        for x, y in zip(r1, r2):
            if not (x - y).is_zero():
                return False
    return True


def _em_identity(ring: _Ring, n: int):
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def _em_zero(ring: _Ring, n: int, m: int):
    return [[ring.zero() for _ in range(m)] for _ in range(n)]


# ---------------------------------------------------------------------------
# witness bimodules
# ---------------------------------------------------------------------------

SourceOrTarget = Union[AlgebraTable, FreeAlgebra]


class WitnessBimodule:
    """A (target, source)-bimodule, free of the given rank over the source.

    ``action`` maps each target basis index (or each free letter when the
    target is the free algebra) to a rank x rank matrix with entries in the
    source: noncommutative polynomials when the source is free, algebra
    elements when the source is an algebra table.  Respecting the target's
    multiplication table is checked on construction.
    """

    def __init__(self, target: SourceOrTarget, source: SourceOrTarget,
                 rank: int, action: dict, full: bool = False, validate: bool = True):
        self.target = target
        self.source = source
        self.rank = int(rank)
        self.action = action
        self.full = bool(full)
        self.ring = _Ring(source)
        self.unital = True
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if validate:
            self._validate()

    @property
    def field(self) -> Field:
        return self.target.field

    def _validate(self):
        ring = self.ring
        r = self.rank
        if isinstance(self.target, FreeAlgebra):
            for letter in ("x", "y"):
                if letter not in self.action:
                    raise ValueError(f"missing action of {letter}")
                if _em_shape(self.action[letter]) != (r, r):
                    raise ShapeMismatchError("action matrix shape mismatch")
            return
        table = self.target
        for i in range(table.dimension):
            if i not in self.action:
                raise ValueError(f"missing action of basis element {table.basis[i]}")
            if _em_shape(self.action[i]) != (r, r):
                raise ShapeMismatchError("action matrix shape mismatch")
        # the identity must act as an idempotent projection; when it acts as
        # the identity the bimodule is unital, otherwise the tensor functor
        # passes to the unital part (the free-generator bookkeeping keeps the
        # declared rank either way)
        ident = _em_zero(ring, r, r)
        for v in table.bound_quiver.quiver.vertices:
            idx = table.basis_index(Path(v, v, ()))
            ident = _em_add(ident, self.action[idx])
        if _em_eq(ident, _em_identity(ring, r)):
            self.unital = True
        elif _em_eq(_em_mul(ident, ident, ring), ident):
            self.unital = False
        else:
            raise ValueError("identity does not act as an idempotent")
        # multiplicativity on all basis pairs
        for i in range(table.dimension):
            ai = self.action[i]
            for j in range(table.dimension):
                prod = _em_mul(ai, self.action[j], ring)
                expected = _em_zero(ring, r, r)
                for k, c in table.product_entry(i, j).items():
                    expected = _em_add(expected, _em_scaled(self.action[k], c))
                if not _em_eq(prod, expected):
                    raise ValueError(
                        f"action does not respect the product "
                        f"{table.basis[i]} * {table.basis[j]}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_generator_actions(cls, table: AlgebraTable, source: SourceOrTarget,
                               rank: int, vertex_actions: dict, arrow_actions: dict,
                               full: bool = False) -> "WitnessBimodule":
        """Extend actions of idempotents and arrows to the whole basis."""
        ring = _Ring(source)
        action: dict = {}
        for i, path in enumerate(table.basis):
            if not path.arrows:
                action[i] = vertex_actions[path.source]
            elif len(path.arrows) == 1:
                action[i] = arrow_actions[path.arrows[0]]
            else:
                acc = arrow_actions[path.arrows[0]]
                for name in path.arrows[1:]:
                    acc = _em_mul(acc, arrow_actions[name], ring)
                action[i] = acc
        return cls(table, source, rank, action, full=full)

    # -- evaluation -------------------------------------------------------------

    def _entry_matrix_on(self, em, module) -> Mat:
        """Evaluate an entry matrix at a source module, as one big block matrix."""
        field = self.field
        if isinstance(self.source, FreeAlgebra):
            n = module.dim
            sub = lambda e: e.substitute(module.x, module.y)
        else:
            n = module.total_dim
            sub = lambda e: module.element_action(e)
        r = self.rank
        return Mat.assemble(field, r * n, r * n,
                            [(i * n, j * n, sub(em[i][j]))
                             for i in range(r) for j in range(r) if not em[i][j].is_zero()])

    def source_dim(self, module) -> int:
        return module.dim if isinstance(self.source, FreeAlgebra) else module.total_dim


def eval_tensor(w: WitnessBimodule, module) -> Union[Representation, FreeAlgModule]:
    rep, _ = eval_tensor_with_frame(w, module)
    return rep


def eval_tensor_with_frame(w: WitnessBimodule, module):
    """Apply the tensor functor; also return the coordinate frame.

    The output lives on ``rank * dim(module)`` coordinates ordered by free
    generator; for an algebra-table target these are re-sorted by vertex.
    The frame maps output coordinates to (generator-major) raw coordinates.
    """
    field = w.field
    n = w.source_dim(module)
    total = w.rank * n
    if isinstance(w.target, FreeAlgebra):
        x = w._entry_matrix_on(w.action["x"], module)
        y = w._entry_matrix_on(w.action["y"], module)
        return FreeAlgModule(x, y), list(range(total))

    table = w.target
    q = table.bound_quiver.quiver
    # idempotent projections split the unital part of the raw coordinates by
    # vertex; coordinates killed by the identity are dropped (non-unital case)
    proj = {}
    for v in q.vertices:
        idx = table.basis_index(Path(v, v, ()))
        proj[v] = w._entry_matrix_on(w.action[idx], module)
    assignment = _diagonal_assignment(proj, q.vertices, total)
    if assignment is not None:
        order = [k for v in q.vertices for k in assignment[v]]
        dims = {v: len(assignment[v]) for v in q.vertices}
        mats = {}
        for a in q.arrows:
            idx = table.basis_index(Path(a.source, a.target, (a.name,)))
            big = w._entry_matrix_on(w.action[idx], module)
            mats[a.name] = big.submatrix(assignment[a.target], assignment[a.source])
        rep = Representation(table.bound_quiver, field, dims, mats, check=False)
        return rep, order
    # general position: change basis to the column spaces of the projections
    cols = {v: proj[v].column_space() for v in q.vertices}
    frame = Mat.hcat(field, total, [cols[v] for v in q.vertices])
    if frame.rank() != frame.cols:
        raise ValueError("idempotent projections do not decompose the output space")
    dims = {v: cols[v].cols for v in q.vertices}
    mats = {}
    for a in q.arrows:
        idx = table.basis_index(Path(a.source, a.target, (a.name,)))
        big = w._entry_matrix_on(w.action[idx], module)
        rhs = big @ cols[a.source]
        x = cols[a.target].solve_matrix(rhs)
        if x is None:
            raise ValueError("arrow action does not respect the vertex splitting")
        mats[a.name] = x
    rep = Representation(table.bound_quiver, field, dims, mats, check=False)
    return rep, frame


def _diagonal_assignment(proj, vertices, total):
    """Coordinate split when all projections are exact 0/1 diagonals.

    Coordinates owned by no vertex are outside the unital part and dropped.
    """
    assign = {v: [] for v in vertices}
    owner = [None] * total
    for v in vertices:
        m = proj[v]
        ones = [k for k in range(total) if m.entry(k, k) == 1]
        unit = Mat.identity(m.field, 1)
        if m != Mat.assemble(m.field, total, total, [(k, k, unit) for k in ones]):
            return None
        for k in ones:
            if owner[k] is not None:
                return None
            owner[k] = v
            assign[v].append(k)
    return assign


def eval_tensor_morphism(w: WitnessBimodule, f: Mat) -> Mat:
    """The functor on morphisms: the rank-fold block-diagonal of f, in raw
    (generator-major) coordinates."""
    r = w.rank
    return Mat.assemble(w.field, r * f.rows, r * f.cols,
                        [(k * f.rows, k * f.cols, f) for k in range(r)])


# ---------------------------------------------------------------------------
# built-in witnesses
# ---------------------------------------------------------------------------

def _k3_shape(table: AlgebraTable):
    """Recognize a three-arrow Kronecker algebra; returns (src, tgt, arrows)."""
    q = table.bound_quiver.quiver
    if len(q.vertices) != 2 or len(q.arrows) != 3 or table.bound_quiver.relations:
        raise ValueError("expected a three-arrow Kronecker bound quiver")
    srcs = {a.source for a in q.arrows}
    tgts = {a.target for a in q.arrows}
    if len(srcs) != 1 or len(tgts) != 1 or srcs == tgts:
        raise ValueError("expected three parallel arrows between two vertices")
    arrows = sorted(a.name for a in q.arrows)
    return next(iter(srcs)), next(iter(tgts)), arrows


def default_k3_table(field: Field) -> AlgebraTable:
    from .quiver import k3_bound_quiver
    return build_algebra_table(k3_bound_quiver(), field)


def builtin_G(table: Optional[AlgebraTable] = None, field: Field = None) -> WitnessBimodule:
    """Rank-2 full embedding of two-matrix modules into three-arrow
    Kronecker representations: V goes to (V, V; 1, x, y)."""
    if table is None:
        table = default_k3_table(field if field is not None else Field.prime(101))
    f = table.field
    src, tgt, (a1, a2, a3) = _k3_shape(table)
    free = FreeAlgebra(f)
    one = NCPoly.one(f)
    zero = NCPoly.zero(f)
    x = NCPoly.letter(f, "x")
    y = NCPoly.letter(f, "y")
    vertex_actions = {
        src: [[one, zero], [zero, zero]],
        tgt: [[zero, zero], [zero, one]],
    }
    arrow_actions = {
        a1: [[zero, zero], [one, zero]],
        a2: [[zero, zero], [x, zero]],
        a3: [[zero, zero], [y, zero]],
    }
    return WitnessBimodule.from_generator_actions(table, free, 2,
                                                  vertex_actions, arrow_actions,
                                                  full=True)


def builtin_F(table: Optional[AlgebraTable] = None, field: Field = None) -> WitnessBimodule:
    """Rank-7 fully faithful functor from three-arrow Kronecker
    representations to two-matrix modules.

    On (V1, V2; a, b, c) the image is (V1 + V2)^7 with x the block upper
    shift (x^7 = 0) and y carrying, below the subdiagonal of identities,
    the projections to V1 and V2 and the three arrow maps."""
    if table is None:
        table = default_k3_table(field if field is not None else Field.prime(101))
    f = table.field
    src, tgt, (a1, a2, a3) = _k3_shape(table)
    e_src = table.idempotent(src)
    e_tgt = table.idempotent(tgt)
    one = table.one()
    zero = table.zero()
    arr = {name: table.arrow_element(name) for name in (a1, a2, a3)}
    x = [[zero for _ in range(7)] for _ in range(7)]
    for i in range(6):
        x[i][i + 1] = one
    y = [[zero for _ in range(7)] for _ in range(7)]
    for i in range(6):
        y[i + 1][i] = one
    lower = [e_src, e_tgt, arr[a1], arr[a2], arr[a3]]
    for i, elt in enumerate(lower):
        y[i + 2][i] = elt
    return WitnessBimodule(FreeAlgebra(f), table, 7, {"x": x, "y": y}, full=True)


def compose_witness(outer: WitnessBimodule, inner: WitnessBimodule) -> WitnessBimodule:
    """Composite tensor functor; ranks multiply, claims conjoin."""
    if isinstance(outer.source, FreeAlgebra):
        if not isinstance(inner.target, FreeAlgebra) or inner.target != outer.source:
            raise ShapeMismatchError("middle algebras do not match")
        substitute = _substitute_poly_entry
    else:
        if not isinstance(inner.target, AlgebraTable):
            raise ShapeMismatchError("middle algebras do not match")
        if (inner.target.bound_quiver != outer.source.bound_quiver
                or inner.target.field != outer.source.field):
            raise ShapeMismatchError("middle algebras do not match")
        substitute = _substitute_table_entry
    ring = inner.ring
    r1, r2 = inner.rank, outer.rank
    rank = r2 * r1

    def blow_up(em):
        blocks = [[substitute(em[i][j], inner) for j in range(r2)] for i in range(r2)]
        out = _em_zero(ring, rank, rank)
        for i in range(r2):
            for j in range(r2):
                blk = blocks[i][j]
                for a in range(r1):
                    for b in range(r1):
                        out[i * r1 + a][j * r1 + b] = blk[a][b]
        return out

    action = {}
    if isinstance(outer.target, FreeAlgebra):
        for letter in ("x", "y"):
            action[letter] = blow_up(outer.action[letter])
    else:
        for i in range(outer.target.dimension):
            action[i] = blow_up(outer.action[i])
    return WitnessBimodule(outer.target, inner.source, rank, action,
                           full=outer.full and inner.full)


def _substitute_poly_entry(poly: NCPoly, inner: WitnessBimodule):
    """Evaluate a polynomial entry at the inner witness's letter actions."""
    ring = inner.ring
    r = inner.rank
    out = _em_zero(ring, r, r)
    for word, coef in poly.terms.items():
        acc = _em_identity(ring, r)
        for letter in word:
            acc = _em_mul(acc, inner.action[letter], ring)
        out = _em_add(out, _em_scaled(acc, coef))
    return out


def _substitute_table_entry(elt: AlgebraElement, inner: WitnessBimodule):
    ring = inner.ring
    r = inner.rank
    out = _em_zero(ring, r, r)
    for i, c in enumerate(elt.coeffs):
        if c != 0:
            out = _em_add(out, _em_scaled(inner.action[i], c))
    return out


def sincere_witness_for_K3(table: Optional[AlgebraTable] = None,
                           field: Field = None) -> WitnessBimodule:
    """Rank-28 witness into three-arrow Kronecker representations whose
    images land in the sincere subcategory (2 * 7 * 2)."""
    if table is None:
        table = default_k3_table(field if field is not None else Field.prime(101))
    g = builtin_G(table)
    f = builtin_F(table)
    return compose_witness(g, compose_witness(f, g))


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

@dataclass
class CheckCounts:
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0

    def record(self, ok: Optional[bool]):
        if ok is None:
            self.inconclusive += 1
        elif ok:
            self.passed += 1
        else:
            self.failed += 1

    def as_text(self) -> str:
        return f"pass {self.passed} fail {self.failed} inconclusive {self.inconclusive}"


@dataclass
class WitnessReport:
    """Outcome of bounded randomized verification of a witness bimodule.

    This is statistical evidence over seeded samples, not a proof: the
    checks certify behaviour on the sampled modules only.
    """

    samples: int
    max_dim: int
    seed: object
    field: str
    pair_count: int
    indecomposability: CheckCounts
    iso_classes: CheckCounts
    hom_dims: CheckCounts
    sincere: Optional[CheckCounts] = None
    notes: tuple = ()

    @property
    def valid(self) -> bool:
        bad = (self.indecomposability.failed or self.iso_classes.failed
               or self.hom_dims.failed)
        if self.sincere is not None:
            bad = bad or self.sincere.failed
        return not bad

    @property
    def inconclusive_total(self) -> int:
        total = (self.indecomposability.inconclusive + self.iso_classes.inconclusive
                 + self.hom_dims.inconclusive)
        if self.sincere is not None:
            total += self.sincere.inconclusive
        return total

    @property
    def checked_total(self) -> int:
        total = (self.indecomposability.passed + self.indecomposability.failed
                 + self.iso_classes.passed + self.iso_classes.failed
                 + self.hom_dims.passed + self.hom_dims.failed)
        if self.sincere is not None:
            total += self.sincere.passed + self.sincere.failed
        return total + self.inconclusive_total

    def to_text(self) -> str:
        lines = [
            f"witness-verification samples {self.samples} max-dim {self.max_dim} "
            f"seed {self.seed} field {self.field}",
            f"pairs-checked {self.pair_count}",
            f"indecomposability-preservation {self.indecomposability.as_text()}",
            f"iso-class-preservation {self.iso_classes.as_text()}",
            f"hom-dimension-equality {self.hom_dims.as_text()}",
        ]
        if self.sincere is not None:
            lines.append(f"sincere-images {self.sincere.as_text()}")
        lines.append(f"verdict {'ok' if self.valid else 'FAILED'}")
        for n in self.notes:
            lines.append(f"note {n}")
        return "\n".join(lines)


def verify_witness(w: WitnessBimodule, samples: int, max_dim: int, seed,
                   pair_budget: Optional[int] = None,
                   check_sincere: int = 0) -> WitnessReport:
    """Draw seeded random source modules and check preservation properties.

    Checks: (a) indecomposable inputs give indecomposable images, (b) the
    map on isomorphism classes is injective on sampled pairs, (c) when
    fullness is claimed, Hom dimensions match on sampled pairs and on every
    diagonal.  ``check_sincere`` additionally requires that many images to
    lie in the sincere subcategory.  Deterministic under the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(w.source, FreeAlgebra):
        raise ValueError("randomized verification samples free-algebra modules; "
                         "use covering.verify_pushdown for algebra sources")
    field = w.source.field
    rng = random.Random(f"verify:{seed}")
    mods = [FreeAlgModule.random(field, max_dim, rng) for _ in range(samples)]
    images = []
    for v in mods:
        img = eval_tensor(w, v)
        if isinstance(img, FreeAlgModule):
            img = img.as_representation()
        images.append(img)
    reps = [v.as_representation() for v in mods]

    indec = CheckCounts()
    iso = CheckCounts()
    hom = CheckCounts()
    indec_in = []
    indec_out = []
    for i, (v, img) in enumerate(zip(reps, images)):
        verdict_in = is_indecomposable(v, f"{seed}:in:{i}")
        indec_in.append(verdict_in.verdict)
        verdict_out_value = None
        if verdict_in.verdict == "yes":
            verdict_out = is_indecomposable(img, f"{seed}:out:{i}")
            verdict_out_value = verdict_out.verdict
            if verdict_out.verdict == "inconclusive":
                indec.record(None)
            else:
                indec.record(verdict_out.verdict == "yes")
        indec_out.append(verdict_out_value)
        if w.full:
            hd_in = hom_space(v, v).dim
            hd_out = hom_space(img, img).dim
            hom.record(hd_in == hd_out)

    all_pairs = [(i, j) for i in range(samples) for j in range(i + 1, samples)]
    budget = pair_budget if pair_budget is not None else min(len(all_pairs), 150)
    rng_pairs = random.Random(f"verify-pairs:{seed}")
    rng_pairs.shuffle(all_pairs)
    chosen = sorted(all_pairs[:budget])
    for (i, j) in chosen:
        hint_in = indec_in[i] == "yes" and indec_in[j] == "yes"
        hint_out = indec_out[i] == "yes" and indec_out[j] == "yes"
        v_in = are_isomorphic(reps[i], reps[j], seed=f"{seed}:pin:{i}:{j}",
                              both_indecomposable=hint_in)
        v_out = are_isomorphic(images[i], images[j], seed=f"{seed}:pout:{i}:{j}",
                               both_indecomposable=hint_out)
        if "inconclusive" in (v_in.verdict, v_out.verdict):
            iso.record(None)
        elif v_in.verdict == "no" and v_out.verdict == "yes":
            iso.record(False)      # collision: distinct classes merged
        elif v_in.verdict == "yes" and v_out.verdict == "no":
            iso.record(False)      # functor failed to preserve an isomorphism
        else:
            iso.record(True)
        if w.full:
            hom.record(hom_space(reps[i], reps[j]).dim == hom_space(images[i], images[j]).dim)
            hom.record(hom_space(reps[j], reps[i]).dim == hom_space(images[j], images[i]).dim)

    sincere_counts = None
    notes = ["bounded randomized verification; evidence, not proof"]
    if check_sincere:
        sincere_counts = CheckCounts()
        for i in range(min(check_sincere, samples)):
            try:
                sincere_counts.record(in_sincere_subcategory(images[i], f"{seed}:sinc:{i}"))
            except InconclusiveError:
                sincere_counts.record(None)
    return WitnessReport(samples=samples, max_dim=max_dim, seed=seed,
                         field=repr(field), pair_count=len(chosen),
                         indecomposability=indec, iso_classes=iso, hom_dims=hom,
                         sincere=sincere_counts, notes=tuple(notes))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertStep:
    rule: str              # explicit-bimodule | compose | factor-rule | morita-rule | covering-rule
    rank_factor: int       # multiplicative contribution to the bound (1 for factor-rule)
    note: str = ""


@dataclass
class WitnessCertificate:
    """Machine-checkable derivation of an upper bound on a witness rank.

    The bound always equals the product of the step rank factors, so it can
    be recomputed from the derivation alone.  ``target_kind`` distinguishes
    bounds for the whole module category from bounds for its sincere
    subcategory.
    """

    target_desc: str
    target_hash: str
    target_dim: int
    bound: int
    steps: tuple[CertStep, ...]
    field_desc: str
    seed: object
    target_kind: str = "algebra"
    verification: Optional[WitnessReport] = None
    notes: tuple = ()
    bimodule: Optional[WitnessBimodule] = None
    target_bq: Optional[BoundQuiver] = None

    def recompute_bound(self) -> int:
        out = 1
        for s in self.steps:
            out *= s.rank_factor
        return out

    def check_arithmetic(self) -> bool:
        return self.recompute_bound() == self.bound


def bound_quiver_hash(bq: BoundQuiver) -> str:
    from .cli import serialize_quiver_spec
    text = serialize_quiver_spec(bq, name="hash", field=None, weights=None)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certificate_for_bimodule(w: WitnessBimodule, target_bq: BoundQuiver,
                             target_desc: str, seed,
                             target_kind: str = "algebra",
                             note: str = "explicit witness bimodule",
                             verification: Optional[WitnessReport] = None) -> WitnessCertificate:
    table_dim = w.target.dimension if isinstance(w.target, AlgebraTable) else 0
    return WitnessCertificate(
        target_desc=target_desc,
        target_hash=bound_quiver_hash(target_bq),
        target_dim=table_dim,
        bound=w.rank,
        steps=(CertStep("explicit-bimodule", w.rank, note),),
        field_desc=repr(w.field),
        seed=seed,
        target_kind=target_kind,
        verification=verification,
        bimodule=w,
        target_bq=target_bq,
    )


@dataclass(frozen=True)
class FactorProvenance:
    """Declares the certificate's target as a factor of a larger algebra."""

    parent: BoundQuiver
    keep_vertices: tuple[str, ...]
    keep_arrows: tuple[str, ...]


def bound_via_factor(cert: WitnessCertificate, provenance: FactorProvenance,
                     parent_desc: str = "", field: Optional[Field] = None) -> WitnessCertificate:
    """Transport a bound from a factor algebra to the whole algebra.

    The witness over A/I is also a witness over A (inflation along the
    projection), so the bound is unchanged.  The declared factor relation is
    checked; when the certificate carries its bimodule, the inflated action
    is rebuilt over the parent algebra and revalidated.
    """
    from .quiver import factor_quiver
    if cert.target_bq is None:
        raise ValueError("certificate lacks a target bound quiver; "
                         "factor provenance cannot be checked")
    derived = factor_quiver(provenance.parent, provenance.keep_vertices,
                            provenance.keep_arrows)
    if derived != cert.target_bq:
        raise ValueError("declared factor does not reproduce the certificate target")
    new_bimodule = None
    parent_dim = cert.target_dim
    if cert.bimodule is not None and isinstance(cert.bimodule.target, AlgebraTable):
        f = field if field is not None else cert.bimodule.field
        parent_table = build_algebra_table(provenance.parent, f)
        new_bimodule = _inflate_bimodule(cert.bimodule, parent_table,
                                         set(provenance.keep_arrows),
                                         set(provenance.keep_vertices))
        parent_dim = parent_table.dimension
    step = CertStep("factor-rule", 1,
                    f"bound inherited along surjection onto {cert.target_desc}")
    return WitnessCertificate(
        target_desc=parent_desc or f"algebra with factor {cert.target_desc}",
        target_hash=bound_quiver_hash(provenance.parent),
        target_dim=parent_dim,
        bound=cert.bound,
        steps=cert.steps + (step,),
        field_desc=cert.field_desc,
        seed=cert.seed,
        target_kind=cert.target_kind,
        verification=cert.verification,
        notes=cert.notes,
        bimodule=new_bimodule,
        target_bq=provenance.parent,
    )


def _inflate_bimodule(w: WitnessBimodule, parent_table: AlgebraTable,
                      keep_arrows: set, keep_vertices: set) -> WitnessBimodule:
    """Reinterpret the action along the projection parent -> target."""
    quotient: AlgebraTable = w.target
    ring = w.ring
    action = {}
    for i, path in enumerate(parent_table.basis):
        if path.arrows and not all(a in keep_arrows for a in path.arrows):
            action[i] = _em_zero(ring, w.rank, w.rank)
            continue
        if not path.arrows and path.source not in keep_vertices:
            action[i] = _em_zero(ring, w.rank, w.rank)
            continue
        elt = quotient.path_element(Path(path.source, path.target, path.arrows))
        out = _em_zero(ring, w.rank, w.rank)
        for k, c in enumerate(elt.coeffs):
            if c != 0:
                out = _em_add(out, _em_scaled(w.action[k], c))
        action[i] = out
    return WitnessBimodule(parent_table, w.source, w.rank, action, full=False)


def bound_via_morita(cert: WitnessCertificate, d: int) -> WitnessCertificate:
    """Bound for a Morita-equivalent algebra of total dimension d: multiply.

    No non-basic algebra is constructed; this is an arithmetic rule, valid
    when d is at least the dimension of the basic algebra.
    """
    if d < cert.target_dim:
        raise ValueError(f"dimension {d} is smaller than the basic algebra "
                         f"dimension {cert.target_dim}")
    step = CertStep("morita-rule", int(d), f"Morita multiplier d = {d}")
    return WitnessCertificate(
        target_desc=f"{d}-dimensional algebra Morita equivalent to {cert.target_desc}",
        target_hash=cert.target_hash,
        target_dim=int(d),
        bound=cert.bound * int(d),
        steps=cert.steps + (step,),
        field_desc=cert.field_desc,
        seed=cert.seed,
        target_kind=cert.target_kind,
        verification=cert.verification,
        notes=cert.notes,
        bimodule=None,
        target_bq=None,
    )
