"""Witness bimodules for wildness, with tracked free ranks.

A witness is a bimodule over (target algebra, source algebra), free of
finite rank r over the source.  Either algebra is the path algebra of its
``bound_quiver``: an ``AlgebraTable``, or the free algebra k<x,y> of the
quiver with one vertex v and two loops x, y (``FreeAlgebra``), so a module
over it is a ``Representation`` (``FreeAlgModule`` for k<x,y>).  A left
module over the target kQ/I is a representation of (Q, I), so a witness
holds one action per vertex and one per arrow of Q, keyed by name, for
either kind of target; a path acts by the product of its arrows' actions.
Each action is an r x r matrix over the source B in tensor form,
sum_k A_k (x) b_k, with b_k a basis path of B (a word in x, y is its own
key, a table path is keyed by its index), stored as its nonzero cells
``{key: {(i, j): scalar}}``: the r x r field matrix A_k is never built,
since the actions of witnesses hold a few nonzero entries each (7 to 28
of the 3136 of a 56 x 56 matrix).  The form is canonical (every scalar
coerced into the field, no zero cell, no key without a cell), so equal
tensors are equal dicts.  A table element is read as its coefficient dict
``{basis index: scalar}``.  Products read B's structure constants,
sum_m (sum_kl c^m_kl A_k B_l) b_m, each A_k B_l a join of the cells on
the inner index (Gustavson, ACM TOMS 4(3), 1978); evaluating at a module
is sum_k A_k kron act(b_k), one scatter per key (``Mat.kron_cells``), the
path b_k acting by its path matrix in block (target, source), split by
the vertices' actions: by coordinates when they are 0/1 diagonals, as
every built-in witness's are, else as a ``rep.subquotient`` on their
column spaces.  Composing substitutes the inner action of the path b_k
for each b_k, the Kronecker product O_k kron I_ks taken cell by cell.  The associated
exact functor's preservation properties (indecomposability, isomorphism
classes, Hom dimensions when fullness is claimed) are checked by bounded
randomized verification.

Built-ins: the rank-2 embedding of two-loop representations into
three-arrow Kronecker representations, the rank-7 fully faithful functor
back, and their rank-28 composite whose images are sincere.  Certificate
arithmetic tracks upper bounds on the minimal witness rank under
composition, factor algebras, and Morita multiplication; a
``WitnessCertificate`` is also the certificate file (``to_text``, read
back by ``cli.parse_certificate``).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from . import __version__
from .exactlin import Field, Mat, ShapeMismatchError
from .quiver import (AlgebraTable, BoundQuiver, Path,
                     build_algebra_table, factor_quiver, k3_bound_quiver, loop_quiver,
                     serialize_quiver_spec)
from .rep import (Representation, are_isomorphic, hom_space, in_sincere_subcategory,
                  is_indecomposable, shared_solves, subquotient, InconclusiveError,
                  _without_seed)

__all__ = ["CertStep", "CheckCounts", "CheckedReport", "FreeAlgModule", "WitnessBimodule",
           "WitnessCertificate", "bound_quiver_hash", "bound_via_factor", "bound_via_morita",
           "builtin_G", "certificate_for_bimodule", "check_preservation", "compose_witness",
           "eval_tensor", "sincere_witness_for_K3", "verify_witness"]

DEFAULT_DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """A word of the free algebra exceeded the degree cap."""


# ---------------------------------------------------------------------------
# free algebra on two letters
# ---------------------------------------------------------------------------

class FreeAlgebra:
    """The free associative algebra k<x,y> over a field: the path algebra of
    its carrier ``bound_quiver``, one vertex v with the loops x and y.

    Its basis is the paths of that quiver, the words in x and y, and a word
    is its own basis key; words longer than ``DEFAULT_DEGREE_CAP`` are
    refused.  Like an ``AlgebraTable`` it gives the key of a path
    (``basis_index``) and the path of a key (``basis_path``).
    """

    __slots__ = ("field",)
    bound_quiver = BoundQuiver(loop_quiver(2), [], nilbound=3)

    def __init__(self, field: Field):
        self.field = field

    def product_entry(self, u: tuple, v: tuple) -> dict:
        """Structure constants of u * v: the concatenated word, coefficient one."""
        word = u + v
        if len(word) > DEFAULT_DEGREE_CAP:
            raise DegreeCapError(f"degree {len(word)} exceeds cap {DEFAULT_DEGREE_CAP}")
        return {word: self.field.one}

    def basis_index(self, path: Path) -> tuple:
        return path.arrows

    def basis_path(self, word: tuple) -> Path:
        return Path("v", "v", word)

    def __repr__(self):
        return f"k<x,y> over {self.field}"


class FreeAlgModule(Representation):
    """A k<x,y>-module: a representation of the two-loop quiver of
    ``FreeAlgebra``, given by the square matrices of x and y."""

    def __init__(self, x: Mat, y: Mat):
        if not x.is_square() or x.shape != y.shape:
            raise ShapeMismatchError("x and y must be square of equal size")
        super().__init__(FreeAlgebra.bound_quiver, x.field, {"v": x.rows},
                         {"x": x, "y": y}, check=False)

    @property
    def dim(self) -> int:
        return self.total_dim

    @classmethod
    def random(cls, field: Field, max_dim: int, rng: random.Random) -> "FreeAlgModule":
        t = rng.randint(1, max_dim)
        return cls(Mat.random(field, t, t, rng), Mat.random(field, t, t, rng))


# ---------------------------------------------------------------------------
# matrices over the source algebra, in tensor form {key: {(i, j): scalar}}
# ---------------------------------------------------------------------------
#
# A_k is stored as its nonzero cells, canonical: every scalar as
# ``Field.coerce`` returns it, no zero cell and no key without a cell, so
# equal tensors are equal dicts.  Sums are taken as they come (Python ints
# over F_p, Fractions over Q) and made canonical once, by ``_canonical``.

SourceOrTarget = Union[AlgebraTable, FreeAlgebra]


def _same_algebra(a: SourceOrTarget, b: SourceOrTarget) -> bool:
    """The same bound quiver over the same field, hence the same kind: no table
    sits on k<x,y>'s quiver, whose long paths are not in the zero ideal."""
    return a.bound_quiver == b.bound_quiver and a.field == b.field


def _is_key(source: SourceOrTarget, key) -> bool:
    if isinstance(source, FreeAlgebra):
        return (isinstance(key, tuple) and set(key) <= {"x", "y"}
                and len(key) <= DEFAULT_DEGREE_CAP)
    return isinstance(key, int) and 0 <= key < source.dimension


def _unit_keys(source: SourceOrTarget) -> list:
    """Keys of the basis elements summing to the identity of the source."""
    return [source.basis_index(Path(v, v, ())) for v in source.bound_quiver.quiver.vertices]


def _canonical(field: Field, sums: dict) -> dict:
    """The tensor of ``{key: {(i, j): sum}}``: each sum coerced into the
    field, the zero cells and the keys left with no cell dropped."""
    coerce, out = field.coerce, {}
    for key, cells in sums.items():
        kept = {}
        for ij, x in cells.items():
            x = coerce(x)
            if x:
                kept[ij] = x
        if kept:
            out[key] = kept
    return out


def _tensor_sum(field: Field, terms) -> dict:
    """sum c * T over ``(c, T)`` pairs."""
    sums: dict = {}
    for c, t in terms:
        for key, cells in t.items():
            acc = sums.setdefault(key, {})
            for ij, x in cells.items():
                acc[ij] = acc.get(ij, 0) + c * x
    return _canonical(field, sums)


def _from_entries(field: Field, entries) -> dict:
    """The tensor of the matrix over the source whose nonzero entries are
    ``(i, j, {key: coefficient})``."""
    return _tensor_sum(field, [(c, {key: {(i, j): 1}})
                               for i, j, elt in entries for key, c in elt.items()])


def _tensor_mul(source: SourceOrTarget, a: dict, b: dict) -> dict:
    """(sum A_k b_k)(sum B_l b_l) = sum_m (sum_kl c^m_kl A_k B_l) b_m, with
    A_k B_l a join of A_k's cells (i, j) and B_l's cells (j, n) on j."""
    rows = {}
    for l, cells in b.items():
        by_row = rows[l] = {}
        for (j, n), y in cells.items():
            by_row.setdefault(j, []).append((n, y))
    sums: dict = {}
    for k, ak in a.items():
        for l, bl in rows.items():
            for m, c in source.product_entry(k, l).items():
                acc = sums.setdefault(m, {})
                for (i, j), x in ak.items():
                    cx = c * x
                    for n, y in bl.get(j, ()):
                        acc[i, n] = acc.get((i, n), 0) + cx * y
    return _canonical(source.field, sums)


def _identity(source: SourceOrTarget, r: int) -> dict:
    one = source.field.one
    return {k: {(i, i): one for i in range(r)} for k in _unit_keys(source)} if r else {}


def _act(source: SourceOrTarget, module, key) -> Mat:
    """The matrix by which the source basis element ``key`` acts on a module:
    its path p acts on the total space by its path matrix in block
    (p.target, p.source).  A word of the free algebra is a path of its two
    loops, so xy acts as X @ Y."""
    p = source.basis_path(key)
    n = module.total_dim
    block = (module.offset(p.target), module.offset(p.source), module.path_matrix(p))
    return Mat.assemble(module.field, n, n, [block])


# ---------------------------------------------------------------------------
# witness bimodules
# ---------------------------------------------------------------------------


class WitnessBimodule:
    """A (target, source)-bimodule, free of the given rank over the source.

    A left module over the target kQ/I is a representation of (Q, I)
    (Assem, Simson and Skowroński, Elements I, Thm. III.1.6), so the
    bimodule is one action per vertex (``vertices``) and one per arrow
    (``arrows``) of the target's quiver, keyed by name: for k<x,y> the
    vertex ``"v"`` and the arrows ``"x"`` and ``"y"``.  Each action is a
    rank x rank matrix over the source in tensor form, a dict
    ``{key: {(i, j): scalar}}`` keyed by source basis elements (words in
    x, y when the source is free, basis indices when it is an algebra
    table), each holding the nonzero cells of its rank x rank field matrix.
    Construction stores the actions in canonical form (scalars coerced
    into the field, zero cells and empty keys dropped), so equal actions
    are equal dicts, and refuses a cell outside rank x rank.
    ``path_action`` gives the action of any path.  Construction
    checks that the vertex actions are orthogonal idempotents, that each
    arrow acts from its source's idempotent to its target's, and that every
    relation acts as zero, so the action factors through kQ/I (the paths of
    length L of a table lie in the relation ideal); ``unital`` is whether
    the idempotents sum to 1.
    """

    def __init__(self, target: SourceOrTarget, source: SourceOrTarget,
                 rank: int, vertices: dict, arrows: dict, full: bool = False):
        self.target = target
        self.source = source
        self.rank = int(rank)
        self.vertices = vertices
        self.arrows = arrows
        self.full = bool(full)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        self._validate()

    @property
    def field(self) -> Field:
        return self.target.field

    def path_action(self, path: Path) -> dict:
        """The action of a path: its vertex's idempotent when it is trivial,
        otherwise the product of its arrows' actions in the path's order."""
        if not path.arrows:
            return self.vertices[path.source]
        acc = self.arrows[path.arrows[0]]
        for a in path.arrows[1:]:
            acc = _tensor_mul(self.source, acc, self.arrows[a])
        return acc

    def _validate(self):
        r, source = self.rank, self.source
        q = self.target.bound_quiver.quiver
        inside, canonical = range(r), []
        for kind, given, names in (("vertex", self.vertices, q.vertices),
                                   ("arrow", self.arrows, [a.name for a in q.arrows])):
            for name in names:
                if name not in given:
                    raise ValueError(f"missing action of {kind} {name}")
            for name, tensor in given.items():
                if name not in names:
                    raise ValueError(f"action given for {name!r}, which is no {kind} of "
                                     f"the target")
                for k, cells in tensor.items():
                    if not _is_key(source, k):
                        raise ValueError(f"action of {name!r} uses {k!r}, not a basis key of "
                                         f"the source")
                    if not all(type(c) is tuple and len(c) == 2 and c[0] in inside
                               and c[1] in inside for c in cells):
                        raise ShapeMismatchError("action matrix shape mismatch")
            canonical.append({name: _canonical(self.field, t) for name, t in given.items()})
        self.vertices, self.arrows = canonical

        def mul(a: dict, b: dict) -> dict:
            return _tensor_mul(source, a, b)

        e = self.vertices
        for v in q.vertices:
            for u in q.vertices:
                if mul(e[v], e[u]) != (e[v] if u == v else {}):
                    raise ValueError(f"vertices {v} and {u} do not act as orthogonal "
                                     f"idempotents")
        for a in q.arrows:
            x = self.arrows[a.name]
            if not mul(e[a.target], x) == x == mul(x, e[a.source]):
                raise ValueError(f"arrow {a.name} does not act from vertex {a.source} to "
                                 f"vertex {a.target}")
        for rel in self.target.bound_quiver.relations:
            if _tensor_sum(self.field, [(c, self.path_action(p)) for c, p in rel.terms]):
                raise ValueError(f"relation {rel} does not act as zero")
        # when the idempotents do not sum to 1, the tensor functor passes to
        # the unital part (the free-generator bookkeeping keeps the declared
        # rank either way)
        self.unital = _tensor_sum(self.field, [(1, e[v]) for v in q.vertices]) == \
            _identity(source, r)

    # -- evaluation -------------------------------------------------------------

    def _entry_matrix_on(self, tensor: dict, module, acts: dict) -> Mat:
        """Evaluate sum_k A_k (x) b_k at a source module, as the block matrix
        sum_k A_k kron act(b_k): ``Mat.kron_cells`` adds c * act(b_k) into
        block (i, j) for each cell (i, j) of A_k with value c, and over F_p
        reduces before any entry has summed more products than the bound
        proved there allows.  ``acts`` caches act(b_k) for the module."""
        for k in tensor:
            if k not in acts:
                acts[k] = _act(self.source, module, k)
        return Mat.kron_cells(self.field, self.rank, module.total_dim,
                              [(cells, acts[k]) for k, cells in tensor.items()])


def eval_tensor(w: WitnessBimodule, module: Representation) -> Representation:
    rep, _ = eval_tensor_with_frame(w, module)
    return rep


def eval_tensor_with_frame(w: WitnessBimodule, module: Representation):
    """Apply the tensor functor; also return the coordinate frame.

    The output lives on ``rank * dim(module)`` coordinates ordered by free
    generator, re-sorted by the target's vertices.  The frame maps output
    coordinates to (generator-major) raw coordinates.  The module must lie
    over the source's quiver and relations; its nilbound is not compared,
    since it only certifies finiteness and a module that satisfies the
    relations kills the long paths already.
    """
    field = w.field
    mine, theirs = module.bound_quiver, w.source.bound_quiver
    if (mine.quiver != theirs.quiver or mine.relations != theirs.relations
            or module.field != w.source.field):
        raise ShapeMismatchError("module over another bound quiver or field than the source")
    total = w.rank * module.total_dim
    acts: dict = {}
    bq = w.target.bound_quiver
    q = bq.quiver

    def raw(tensor: dict) -> Mat:
        """An action on the raw coordinates."""
        return w._entry_matrix_on(tensor, module, acts)

    # idempotent projections split the unital part of the raw coordinates by
    # vertex; coordinates killed by the identity are dropped (non-unital case)
    proj = {v: raw(w.vertices[v]) for v in q.vertices}
    assignment = _diagonal_assignment(proj, q.vertices, total)
    if assignment is not None:
        order = [k for v in q.vertices for k in assignment[v]]
        dims = {v: len(assignment[v]) for v in q.vertices}
        mats = {a.name: raw(w.arrows[a.name]).submatrix(assignment[a.target],
                                                        assignment[a.source])
                for a in q.arrows}
        return Representation(bq, field, dims, mats, check=False), order
    # general position: change basis to the column spaces of the projections
    cols = {v: proj[v].column_space() for v in q.vertices}
    frame = Mat.hcat(field, total, [cols[v] for v in q.vertices])
    if frame.rank() != frame.cols:
        raise ValueError("idempotent projections do not decompose the output space")
    mats = {a.name: raw(w.arrows[a.name]) for a in q.arrows}
    return subquotient(bq, field, mats, cols), frame


def _diagonal_assignment(proj, vertices, total):
    """Coordinate split when all projections are exact 0/1 diagonals.

    Coordinates owned by no vertex are outside the unital part and dropped.
    """
    assign = {v: [] for v in vertices}
    owner = [None] * total
    for v in vertices:
        m = proj[v]
        ones = [k for k in range(total) if m.entry(k, k) == 1]
        diagonal = {(k, k): m.field.one for k in ones}
        if m != Mat.kron_cells(m.field, total, 1, [(diagonal, Mat.identity(m.field, 1))]):
            return None
        for k in ones:
            if owner[k] is not None:
                return None
            owner[k] = v
            assign[v].append(k)
    return assign


# ---------------------------------------------------------------------------
# built-in witnesses
# ---------------------------------------------------------------------------

def _k3_shape(bq: BoundQuiver):
    """Recognize a three-arrow Kronecker bound quiver; returns (src, tgt,
    arrows), or raises ``ValueError``."""
    q = bq.quiver
    if len(q.vertices) != 2 or len(q.arrows) != 3 or bq.relations:
        raise ValueError("expected a three-arrow Kronecker bound quiver")
    srcs = {a.source for a in q.arrows}
    tgts = {a.target for a in q.arrows}
    if len(srcs) != 1 or len(tgts) != 1 or srcs == tgts:
        raise ValueError("expected three parallel arrows between two vertices")
    arrows = sorted(a.name for a in q.arrows)
    return next(iter(srcs)), next(iter(tgts)), arrows


def default_k3_table(field: Field) -> AlgebraTable:
    return build_algebra_table(k3_bound_quiver(), field)


def builtin_G(table: Optional[AlgebraTable] = None, field: Field = None) -> WitnessBimodule:
    """Rank-2 full embedding of two-loop representations into three-arrow
    Kronecker representations: V goes to (V, V; 1, x, y)."""
    if table is None:
        table = default_k3_table(field if field is not None else Field.prime(101))
    f = table.field
    src, tgt, (a1, a2, a3) = _k3_shape(table.bound_quiver)
    one = {(): 1}
    vertices = {
        src: _from_entries(f, [(0, 0, one)]),
        tgt: _from_entries(f, [(1, 1, one)]),
    }
    arrows = {
        a1: _from_entries(f, [(1, 0, one)]),
        a2: _from_entries(f, [(1, 0, {("x",): 1})]),
        a3: _from_entries(f, [(1, 0, {("y",): 1})]),
    }
    return WitnessBimodule(table, FreeAlgebra(f), 2, vertices, arrows, full=True)


def builtin_F(table: AlgebraTable) -> WitnessBimodule:
    """Rank-7 fully faithful functor from three-arrow Kronecker
    representations to two-loop representations.

    On (V1, V2; a, b, c) the image is (V1 + V2)^7 with x the block upper
    shift (x^7 = 0) and y carrying, below the subdiagonal of identities,
    the projections to V1 and V2 and the three arrow maps."""
    f = table.field
    src, tgt, (a1, a2, a3) = _k3_shape(table.bound_quiver)
    one = table.one()
    lower = [table.idempotent(src), table.idempotent(tgt)] + \
        [table.arrow_element(name) for name in (a1, a2, a3)]
    x = _from_entries(f, [(i, i + 1, one) for i in range(6)])
    y = _from_entries(f, [(i + 1, i, one) for i in range(6)]
                      + [(i + 2, i, elt) for i, elt in enumerate(lower)])
    return WitnessBimodule(FreeAlgebra(f), table, 7, {"v": _identity(table, 7)},
                           {"x": x, "y": y}, full=True)


def compose_witness(outer: WitnessBimodule, inner: WitnessBimodule) -> WitnessBimodule:
    """Composite tensor functor; ranks multiply, claims conjoin.

    Each outer coefficient sum_k O_k (x) m_k over the middle algebra becomes
    sum_k O_k (x) inner(m_k) = sum_s (sum_k O_k kron I_ks) (x) s, where
    inner(m_k) = sum_s I_ks (x) s is the inner action of the basis path
    m_k."""
    if not _same_algebra(outer.source, inner.target):
        raise ShapeMismatchError("middle algebras do not match")
    ri = inner.rank
    outer_actions = [*outer.vertices.values(), *outer.arrows.values()]
    image = {k: inner.path_action(outer.source.basis_path(k))
             for coeffs in outer_actions for k in coeffs}

    def through(coeffs: dict) -> dict:
        # O_k kron I_ks on cells: (a, b) of O_k and (c, d) of I_ks meet at
        # (a ri + c, b ri + d)
        return _tensor_sum(outer.field, [
            (1, {s: {(a * ri + c, b * ri + d): x * y
                     for (a, b), x in o.items() for (c, d), y in cells.items()}})
            for k, o in coeffs.items() for s, cells in image[k].items()])

    vertices = {v: through(t) for v, t in outer.vertices.items()}
    arrows = {a: through(t) for a, t in outer.arrows.items()}
    return WitnessBimodule(outer.target, inner.source, outer.rank * ri, vertices, arrows,
                           full=outer.full and inner.full)


def sincere_witness_for_K3(table: AlgebraTable) -> WitnessBimodule:
    """Rank-28 witness into three-arrow Kronecker representations whose
    images land in the sincere subcategory (2 * 7 * 2)."""
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

    def __add__(self, other: "CheckCounts") -> "CheckCounts":
        return CheckCounts(self.passed + other.passed, self.failed + other.failed,
                           self.inconclusive + other.inconclusive)

    def as_text(self) -> str:
        return f"pass {self.passed} fail {self.failed} inconclusive {self.inconclusive}"


class CheckedReport:
    """A verification report whose checks are the ``(label, CheckCounts)``
    pairs of its ``checks``; its verdict, totals and count lines are read
    from that one list."""

    @property
    def valid(self) -> bool:
        return not any(c.failed for _, c in self.checks)

    @property
    def counts(self) -> CheckCounts:
        """All checks together."""
        return sum((c for _, c in self.checks), CheckCounts())

    @property
    def inconclusive_total(self) -> int:
        return self.counts.inconclusive

    @property
    def checked_total(self) -> int:
        c = self.counts
        return c.passed + c.failed + c.inconclusive

    def _text(self, head: list[str]) -> str:
        """``head``, then one line per check, the verdict and the notes."""
        lines = head + [f"{label} {c.as_text()}" for label, c in self.checks]
        lines.append(f"verdict {'ok' if self.valid else 'FAILED'}")
        lines += [f"note {n}" for n in self.notes]
        return "\n".join(lines)


@dataclass
class WitnessReport(CheckedReport):
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
    def checks(self) -> list[tuple[str, CheckCounts]]:
        out = [("indecomposability-preservation", self.indecomposability),
               ("iso-class-preservation", self.iso_classes),
               ("hom-dimension-equality", self.hom_dims)]
        if self.sincere is not None:
            out.append(("sincere-images", self.sincere))
        return out

    def to_text(self) -> str:
        return self._text([f"witness-verification samples {self.samples} max-dim "
                           f"{self.max_dim} seed {self.seed} field {self.field}",
                           f"pairs-checked {self.pair_count}"])


@shared_solves()
def check_preservation(sources: Sequence[Representation], images: Sequence[Representation],
                       seed, pair_stream: str, max_pairs: int
                       ) -> tuple[CheckCounts, CheckCounts, list[tuple[int, int]]]:
    """Seeded checks that ``sources[i] -> images[i]`` preserves
    indecomposability and isomorphism classes.

    When ``sources[i]`` is indecomposable, ``images[i]`` must be too
    (``{seed}:out:{i}``).  A source counts as indecomposable when
    ``is_indecomposable`` says "yes", which only its seed-free part
    (``rep._without_seed``) can, so only that part runs on the sources.  On the first
    ``max_pairs`` pairs i < j after shuffling with the stream
    ``{pair_stream}:{seed}``, the sources must be isomorphic
    (``{seed}:pin:{i}:{j}``) exactly when the images are
    (``{seed}:pout:{i}:{j}``).  An inconclusive verdict counts as
    inconclusive.  Returns both counts and the sorted pairs.  The checks
    are one ``shared_solves`` phase.
    """
    indec = CheckCounts()
    for i, (v, img) in enumerate(zip(sources, images)):
        decided, _ = _without_seed(v)
        if decided is not None and decided.verdict == "yes":
            verdict_out = is_indecomposable(img, f"{seed}:out:{i}").verdict
            indec.record(None if verdict_out == "inconclusive" else verdict_out == "yes")
    all_pairs = [(i, j) for i in range(len(sources)) for j in range(i + 1, len(sources))]
    random.Random(f"{pair_stream}:{seed}").shuffle(all_pairs)
    pairs = sorted(all_pairs[:max_pairs])
    iso = CheckCounts()
    for (i, j) in pairs:
        v_in = are_isomorphic(sources[i], sources[j], seed=f"{seed}:pin:{i}:{j}")
        v_out = are_isomorphic(images[i], images[j], seed=f"{seed}:pout:{i}:{j}")
        if "inconclusive" in (v_in.verdict, v_out.verdict):
            iso.record(None)
        else:
            iso.record(v_in.verdict == v_out.verdict)
    return indec, iso, pairs


@shared_solves()
def verify_witness(w: WitnessBimodule, samples: int, max_dim: int, seed,
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
    images = [eval_tensor(w, v) for v in mods]

    indec, iso, pairs = check_preservation(mods, images, seed, "verify-pairs", 150)
    hom = CheckCounts()
    if w.full:
        for i, j in [(i, i) for i in range(samples)] + pairs + [(j, i) for i, j in pairs]:
            hom.record(hom_space(mods[i], mods[j]).dim == hom_space(images[i], images[j]).dim)

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
                         field=repr(field), pair_count=len(pairs),
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
    subcategory.  ``to_text`` is the certificate file, with a stable field
    order; ``cli.parse_certificate`` reads it back into this class, without
    the ``bimodule`` and ``target_bq`` that only a derivation in memory has.
    ``verification`` is the one-line summary of the checks run on the
    witness, or ``"none"``.
    """

    target_desc: str
    target_hash: str
    target_dim: int
    bound: int
    steps: tuple[CertStep, ...]
    field_desc: str
    seed: object
    target_kind: str = "algebra"
    name: str = "unnamed"
    verification: str = "none"
    notes: tuple = ()
    bimodule: Optional[WitnessBimodule] = None
    target_bq: Optional[BoundQuiver] = None
    version: str = __version__

    def recompute_bound(self) -> int:
        return math.prod(s.rank_factor for s in self.steps)

    def check_arithmetic(self) -> bool:
        return self.recompute_bound() == self.bound

    def to_text(self) -> str:
        lines = [
            "wildrank-certificate 1",
            f"name {self.name}",
            f"algebra {self.target_desc}",
            f"algebra-hash {self.target_hash}",
            f"algebra-dim {self.target_dim}",
            f"target-kind {self.target_kind}",
            f"field {self.field_desc}",
            f"seed {self.seed}",
        ]
        lines += [f"step {s.rule} factor {s.rank_factor} note {s.note}" for s in self.steps]
        lines.append(f"bound {self.bound}")
        lines.append(f"verification {self.verification}")
        lines += [f"note {n}" for n in self.notes]
        lines.append(f"toolkit-version {self.version}")
        return "\n".join(lines) + "\n"


def bound_quiver_hash(bq: BoundQuiver) -> str:
    text = serialize_quiver_spec(bq, name="hash", field=None, weights=None)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certificate_for_bimodule(w: WitnessBimodule, target_bq: BoundQuiver,
                             target_desc: str, seed,
                             target_kind: str = "algebra") -> WitnessCertificate:
    table_dim = w.target.dimension if isinstance(w.target, AlgebraTable) else 0
    return WitnessCertificate(
        target_desc=target_desc,
        target_hash=bound_quiver_hash(target_bq),
        target_dim=table_dim,
        bound=w.rank,
        steps=(CertStep("explicit-bimodule", w.rank, "explicit witness bimodule"),),
        field_desc=repr(w.field),
        seed=seed,
        target_kind=target_kind,
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
    return replace(cert, target_desc=parent_desc or f"algebra with factor {cert.target_desc}",
                   target_hash=bound_quiver_hash(provenance.parent), target_dim=parent_dim,
                   steps=cert.steps + (step,), bimodule=new_bimodule,
                   target_bq=provenance.parent)


def _inflate_bimodule(w: WitnessBimodule, parent_table: AlgebraTable,
                      keep_arrows: set, keep_vertices: set) -> WitnessBimodule:
    """Reinterpret the action along the projection parent -> target: the
    kept vertices and arrows keep their actions, the others act by zero."""
    q = parent_table.bound_quiver.quiver
    vertices = {v: w.vertices[v] if v in keep_vertices else {} for v in q.vertices}
    arrows = {a.name: w.arrows[a.name] if a.name in keep_arrows else {} for a in q.arrows}
    return WitnessBimodule(parent_table, w.source, w.rank, vertices, arrows, full=False)


def bound_via_morita(cert: WitnessCertificate, d: int) -> WitnessCertificate:
    """Bound for a Morita-equivalent algebra of total dimension d: multiply.

    No non-basic algebra is constructed; this is an arithmetic rule, valid
    when d is at least the dimension of the basic algebra.
    """
    if d < cert.target_dim:
        raise ValueError(f"dimension {d} is smaller than the basic algebra "
                         f"dimension {cert.target_dim}")
    step = CertStep("morita-rule", int(d), f"Morita multiplier d = {d}")
    return replace(cert, target_desc=f"{d}-dimensional algebra Morita equivalent to "
                                     f"{cert.target_desc}",
                   target_dim=int(d), bound=cert.bound * int(d), steps=cert.steps + (step,),
                   bimodule=None, target_bq=None)
