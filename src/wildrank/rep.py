"""Finite-dimensional representations of a bound quiver.

Hom spaces are computed as exact kernels of the arrow-commutation equations,
with two structural shortcuts that keep large instances cheap without
changing the space.  Invertible arrows between distinct vertices are
contracted away (f_t = N(a) f_s M(a)^{-1}), which leaves one equation form
for every remaining arrow, the normalized pencil f_rt P(a) = P'(a) f_rs
between the roots of its ends.  When some pair (P(a), P'(a)) of a single
root is nilpotent on both sides, the whole pencil is solved in the Jordan
coordinates of that pair (``exactlin.nilpotent_hom_basis``).  Every other
Hom system is one kernel of one ``Mat.kron_assemble`` call on the same
pencils, and so is the Jacobian of a relation (``relation_jacobian``).
The tests check both shortcuts against one uncontracted kernel of every
arrow equation.  Each solution is cached on the source module, per target,
in the frame it was solved in (``HomSpace``): the verdicts read only that
frame, and a basis is mapped back when it is read.  Each module keeps one
half of the contracted equations (``_Side``) for its roles as a source
and as a target, so the Hom spaces it takes part in share its transforms,
pencil matrices and their Jordan frames.
Inside a ``shared_solves`` block, one phase of a verification, each
distinct contracted system is solved once and each distinct nilpotent
pencil framed once, in tables that live for the outermost block.

Indecomposability follows the endomorphism ring: a nontrivial idempotent,
from a coprime split of a minimal polynomial (factored by
``exactlin.factor_polynomial``: Cantor-Zassenhaus over F_p, Hensel lifting
and Zassenhaus recombination over Q; the split's powers, products and
extended gcd come from exactlin's polynomial helpers), witnesses "no"; a
local ring certified by an exactly computed radical with one-dimensional
quotient gives "yes"; everything else is reported inconclusive (the ground
field is an exact stand-in for an algebraically closed field, and verdicts
carry it).  The radical is one function, ``end_radical``: the trace-form
kernel of End(M) on M, else on its regular representation, certified by
the nilpotency of each basis element, with no condition on the
characteristic.

Isomorphism is decided in one order for every pair of modules: dimension
arguments, then, when the characteristic does not divide dim M, the trace
pairing on Hom(M, N) x Hom(N, M), whose vanishing rules out every
isomorphism (``are_isomorphic`` gives the proof), then a seeded search
for an invertible intertwiner, which is the only route to "yes".

Every module cut from another module's coordinates, a summand of a split,
a syzygy or cokernel in ``tilting``, a tensor functor's image, is one
``subquotient``, which solves each arrow once in a frame per vertex.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .exactlin import (Field, Mat, ShapeMismatchError, Span, _poly_gcdex, _poly_mul, _poly_pow,
                       factor_polynomial, find_invertible_in_span, nilpotent_hom_basis,
                       trace_form, trace_radical)
from .quiver import BoundQuiver, Path, _enumerate_paths

__all__ = ["InconclusiveError", "Representation", "SamplingStarvation", "are_isomorphic",
           "check_relations", "decompose", "end_radical", "flatten_morphism", "hom_space",
           "in_sincere_subcategory", "is_indecomposable", "morphism_compose",
           "relation_jacobian", "sample_representation", "shared_solves", "subquotient",
           "support"]

DEFAULT_TRIALS = 32


class InconclusiveError(RuntimeError):
    """A verdict could not be certified over the computation field."""


class Representation:
    """Vector spaces at vertices, one exact matrix per arrow (target x source)."""

    def __init__(self, bq: BoundQuiver, field: Field, dims: dict[str, int],
                 mats: dict[str, Mat], check: bool = True):
        self.bound_quiver = bq
        self.field = field
        q = bq.quiver
        unknown = set(dims) - set(q.vertices)
        if unknown:
            raise ValueError(f"dimensions given for unknown vertices: {sorted(unknown)}")
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        unknown = set(mats) - {a.name for a in q.arrows}
        if unknown:
            raise ValueError(f"matrices given for unknown arrows: {sorted(unknown)}")
        self.mats = {}
        for a in q.arrows:
            m = mats.get(a.name)
            if m is None:
                m = Mat.zeros(field, self.dims[a.target], self.dims[a.source])
            if m.shape != (self.dims[a.target], self.dims[a.source]):
                raise ShapeMismatchError(
                    f"arrow {a.name}: matrix {m.shape} does not match "
                    f"({self.dims[a.target]}, {self.dims[a.source]})")
            if m.field != field:
                raise ShapeMismatchError("matrix field mismatch")
            self.mats[a.name] = m
        self.total_dim = sum(self.dims.values())
        self._offsets = {}
        off = 0
        for v in q.vertices:
            self._offsets[v] = off
            off += self.dims[v]
        # bases of Hom(M, N), keyed weakly by the target
        # N: only the basis, since a HomSpace would refer back to both
        # modules, and End(M) keyed by M itself must not keep M alive
        self._homs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # this module's half of contracted Hom equations per contraction
        # (``_Side``): built from its own matrices only
        self._sides: dict = {}
        if check:
            bad = [str(rel) for rel, ok in check_relations(self) if not ok]
            if bad:
                raise ValueError(f"relations violated: {bad}")

    # -- structure --------------------------------------------------------------

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.bound_quiver.quiver.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def offset(self, v: str) -> int:
        return self._offsets[v]

    def path_matrix(self, path: Path) -> Mat:
        return _word_matrix(self.field, path.arrows, self.mats, self.dims[path.target])

    def __repr__(self) -> str:
        return f"Representation(dims={self.dim_vector()}, field={self.field})"


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def check_relations(m: Representation) -> list[tuple]:
    """Evaluate every relation on m; returns (relation, holds) pairs."""
    out = []
    for rel in m.bound_quiver.relations:
        total = Mat.lincomb(m.field, m.dims[rel.target], m.dims[rel.source],
                            [coef for coef, _ in rel.terms],
                            [m.path_matrix(path) for _, path in rel.terms])
        out.append((rel, total.is_zero()))
    return out


def subquotient(bq: BoundQuiver, field: Field, mats: dict[str, Mat], top: dict[str, Mat],
                sub: Optional[dict[str, Mat]] = None) -> Representation:
    """The module on the columns of ``top[v]`` modulo the span of ``sub[v]``
    at each vertex, where arrow a acts on the ambient spaces by ``mats[a]``.

    Arrow a: s -> t gets the rows of ``top[t]`` in the coordinates of
    ``mats[a] @ top[s]`` in the frame ``[sub[t] | top[t]]``, or in
    ``top[t]`` alone when ``sub`` is None (a submodule).  The columns of
    each frame must be independent.  An arrow that leaves that span raises
    ``ValueError`` naming it.  ``mats`` must act as a module of ``bq``,
    and the result is built without the relation check: a subquotient of
    a module satisfies the module's relations.
    """
    dims = {v: t.cols for v, t in top.items()}
    frames = top if sub is None else {v: Mat.hcat(field, t.rows, [sub[v], t])
                                      for v, t in top.items()}
    out = {}
    for a in bq.quiver.arrows:
        s, t = a.source, a.target
        x = frames[t].solve_matrix(mats[a.name] @ top[s])
        if x is None:
            raise ValueError(f"arrow {a.name} leaves the subspace at {t}")
        if sub is not None:
            r = sub[t].cols
            x = x.submatrix(range(r, r + dims[t]), range(dims[s]))
        out[a.name] = x
    return Representation(bq, field, dims, out, check=False)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

class HomSpace:
    """Hom(M, N), kept in the coordinates it was solved in.

    The basis is one ``Span`` per root that carries unknowns: the solution
    of the contracted system at that root, in Jordan coordinates on the
    Jordan route.  ``frame`` reads it as one dict per basis element, root ->
    block, built on its first read.  Basis element f is
    f_v = L_v g_r R_v at each vertex v of root r, with L_v = A_v P_t, the
    target's contraction transform (``_Side``) times its Jordan frame, and
    R_v = P_s^-1 B_v, the source's; a factor is the identity where there
    is no contraction or no Jordan frame, and f_v is zero where either
    dimension at v is.  ``basis`` maps every element back on its first
    read and keeps the result with the frame; ``unframe`` maps one total.

    ``totals`` are the frame totals, block diagonal with vertex v's block
    its root's block, and every verdict reads them as the totals of
    ``basis``.  A module takes one frame in both roles.  For End(M), and
    for M and N of one dimension vector, the case the trace pairing is read
    in, the contraction steps, the roots and the Jordan arrow are symmetric
    in the pair, and the frame of a pencil is a function of its entries.
    So R_v L_v = P^-1 B_v A_v P = I for one module (``_Side`` proves
    A_v = B_v^-1), and with L = diag(L_v) and R = diag(R_v) = L^-1:

    * an element of End(M) is F = L G R: the frame totals are
      simultaneously similar to the totals, so products, polynomials,
      minimal polynomials and their factors, idempotency, nilpotency,
      invertibility, traces tr(F_i F_j) = tr(G_i G_j) and structure
      constants are the same;
    * for f in Hom(M, N) and g in Hom(N, M), tr(g f) = sum_v tr(L^M_v g_r
      R^N_v L^N_v f_r R^M_v) = sum_v tr(g_r f_r), the trace of the frame
      totals' product;
    * an element L^N G R^M of Hom(M, N) is invertible exactly when G is.

    Trace forms, their kernels and every seeded draw on the totals
    therefore read the same, and a witness total is mapped back exactly.
    """

    __slots__ = ("source", "target", "_framed")

    def __init__(self, source: Representation, target: Representation, framed: "_Framed"):
        self.source, self.target, self._framed = source, target, framed

    @property
    def frame(self) -> list[dict[str, Mat]]:
        """The basis in its solving frame: per element, root -> block, built
        on the first read."""
        framed = self._framed
        if framed.frame is None:
            mats = {r: span.mats for r, span in framed.spans.items()}
            framed.frame = [{r: x[i] for r, x in mats.items()} for i in range(framed.dim)]
        return framed.frame

    @property
    def dim(self) -> int:
        return self._framed.dim

    @property
    def basis(self) -> list[dict[str, Mat]]:
        """The basis as per-vertex blocks, mapped on the first read."""
        framed = self._framed
        if framed.basis is None:
            framed.basis = [framed.unframed(g) for g in self.frame]
        return framed.basis

    def totals(self) -> Span:
        """The block-diagonal frame totals (square only when the dimension
        vectors agree), as one ``Span``: each root's Span is placed at every
        vertex of its tree at once (``Span.assemble``); a module with one
        vertex of nonzero dimension has its root's Span as its totals, the
        same stack, with no copy.  ``trace_form`` and
        ``find_invertible_in_span`` read the stack as it is.  Assembled per
        call, not cached: a verdict reads it once, and stacks kept as long
        as their modules left freed heap memory that the allocator did not
        return to the system."""
        s, t, framed = self.source, self.target, self._framed
        return Span.assemble(s.field, t.total_dim, s.total_dim, framed.dim,
                             [(t.offset(v), s.offset(v), framed.spans[r])
                              for v, r in framed.root.items()])

    def unframe(self, total: Mat) -> dict[str, Mat]:
        """The per-vertex blocks of the map whose frame total is ``total``,
        a block-diagonal combination or polynomial of ``totals()``, whose
        blocks on one tree are equal: its root blocks mapped back."""
        s, t = self.source, self.target
        return self._framed.unframed({
            r: total.submatrix(range(t.offset(r), t.offset(r) + t.dims[r]),
                               range(s.offset(r), s.offset(r) + s.dims[r]))
            for r in dict.fromkeys(self._framed.root.values())})


class _Framed:
    """What ``hom_space`` caches on the source M per target N: the basis of
    Hom(M, N) in its solving frame, one ``Span`` of ``dim`` blocks per root
    that carries unknowns (``spans``), the root of each vertex whose block
    is not empty (``root``), the shape of every block (``shapes``), N's A_v
    (``a``) and M's B_v (``b``) as ``_Side`` keeps them, the Jordan frames
    (P_t, P_s^-1) or None (``jordan``), and, once read, the per-element
    ``frame`` and the mapped ``basis``.  It holds matrices, stacks and names
    only, never a module, so End(M) cached on M does not keep M alive."""

    __slots__ = ("field", "spans", "dim", "root", "shapes", "a", "b", "jordan", "frame",
                 "basis")

    def __init__(self, field, spans, root, shapes, a, b, jordan):
        self.field, self.spans, self.root, self.shapes = field, spans, root, shapes
        self.dim = len(next(iter(spans.values()))) if spans else 0
        self.a, self.b, self.jordan, self.frame, self.basis = a, b, jordan, None, None

    def unframed(self, blocks: dict[str, Mat]) -> dict[str, Mat]:
        """The one map back: root blocks g_r in the frame to per-vertex
        blocks L_v g_r R_v, each root block through the Jordan frames once."""
        if self.jordan is not None:
            p_t, p_s_inv = self.jordan
            blocks = {r: p_t @ g @ p_s_inv for r, g in blocks.items()}
        out = {}
        for v, (rows, cols) in self.shapes.items():
            r = self.root.get(v)
            out[v] = (Mat.zeros(self.field, rows, cols) if r is None
                      else _times(_times(self.a.get(v), blocks[r]), self.b.get(v)))
        return out


def morphism_compose(g: dict[str, Mat], f: dict[str, Mat]) -> dict[str, Mat]:
    return {v: g[v] @ f[v] for v in f}


def flatten_morphism(field: Field, f: dict[str, Mat]) -> Mat:
    """One column: the row-major entries of each block, vertices sorted."""
    return Mat.vcat(field, 1, [f[v].reshape(f[v].rows * f[v].cols, 1) for v in sorted(f)])


def _require_one_category(m: Representation, n: Representation):
    """Raise ``ShapeMismatchError`` unless m and n are modules of one bound
    quiver over one field."""
    if m.bound_quiver != n.bound_quiver:
        raise ShapeMismatchError("representations over different bound quivers")
    if m.field != n.field:
        raise ShapeMismatchError(f"representations over different fields: "
                                 f"{m.field} and {n.field}")


#: the tables of the open ``shared_solves`` block, or None outside one:
#: contracted system -> its root bases, and pencil -> the first equal pencil
_SHARED: contextvars.ContextVar = contextvars.ContextVar("shared_solves", default=None)


@contextlib.contextmanager
def shared_solves():
    """A phase of Hom work, as a ``with`` block or a decorator: each
    distinct contracted system solved in it (field, root dimensions,
    equation pattern and pencils, whatever the names of roots and arrows)
    is solved once and mapped back through each pair's own transforms, and
    equal nilpotent pencils share the Jordan frame memoised on the first of
    them (hash-consing: Filliâtre and Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006).  A basis depends on that key only, so
    it is the one the pair gives alone.  Nested blocks join the outermost,
    whose exit, by an exception too, drops the tables; the bases stay cached
    on their sources.  Decorate no generator function: the block would
    close before its body runs.
    """
    token = _SHARED.set(_SHARED.get() or ({}, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """All intertwiners m -> n, by exact linear algebra.

    Every solution is cached on the source ``m``, keyed by the target ``n``
    (by identity) in a weak dictionary: a later call on the same pair
    returns a ``HomSpace`` on the same cached frame and basis without
    solving again.  The cache holds no module (``_Framed``), so it keeps
    no target alive, and an entry goes when its target is freed.  Inside
    ``shared_solves`` the solve is shared with the equal systems of the
    phase.  Modules over two bound quivers or two fields raise
    ``ShapeMismatchError``.
    """
    _require_one_category(m, n)
    framed = m._homs.get(n)
    if framed is None:
        framed = m._homs[n] = _hom_basis(m, n, *(_SHARED.get() or ({}, {})))
    return HomSpace(m, n, framed)


def _hom_basis(m: Representation, n: Representation, systems: dict, pencils: dict
               ) -> _Framed:
    """The basis of Hom(m, n) in its solving frame, reading and filling a
    phase's ``systems`` (contracted system -> its root bases and Jordan
    frames) and ``pencils`` (each pencil handed to the Jordan route -> the
    first equal one).  Nothing is mapped back: the pair's own transforms
    are kept by reference."""
    field = m.field
    q = m.bound_quiver.quiver

    # contract invertible arrows between distinct vertices: f_v = A_v f_root B_v;
    # each step folds the tree of the arrow's target root into its source root
    root = {v: v for v in q.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    steps = []
    remaining = []
    for a in q.arrows:
        if a.source != a.target:
            r1, r2 = find(a.source), find(a.target)
            if (r1 != r2 and m.mats[a.name].rows > 0
                    and _acts_invertibly(m, a.name) and _acts_invertibly(n, a.name)):
                steps.append((a, [w for w in q.vertices if find(w) == r2]))
                root[r2] = r1
                continue
        remaining.append(a)
    src, tgt = _side(m, steps, remaining), _side(n, steps, remaining)

    roots = sorted({find(v) for v in q.vertices})
    var_roots = [r for r in roots if n.dims[r] * m.dims[r] > 0]
    # each remaining arrow a relates the roots of its ends: f_rt P(a) = P'(a) f_rs
    equations = [(a.name, find(a.target), find(a.source)) for a in remaining]
    # the system up to names: a root is its place in var_roots (None when it
    # carries no unknown), and each Mat is hashed once (``Mat.__hash__``)
    place = {r: i for i, r in enumerate(var_roots)}
    key = (field, tuple((n.dims[r], m.dims[r]) for r in var_roots),
           tuple((place.get(rt), place.get(rs), src.pencil[a], tgt.pencil[a])
                 for a, rt, rs in equations))
    solved = systems.get(key)
    if solved is None:
        solved = systems[key] = _solve_hom_equations(field, m, n, var_roots, equations,
                                                     src, tgt, pencils)
    spans, jordan = solved
    # a vertex's block is empty unless its root carries unknowns
    return _Framed(field, dict(zip(var_roots, spans)),
                   {v: find(v) for v in q.vertices if n.dims[v] * m.dims[v] > 0},
                   {v: (n.dims[v], m.dims[v]) for v in q.vertices}, tgt.a, src.b, jordan)


def _times(x: Optional[Mat], y: Optional[Mat]) -> Optional[Mat]:
    """``x @ y``, where None stands for an identity matrix."""
    if x is None:
        return y
    return x if y is None else x @ y


def _acts_invertibly(mod: Representation, name: str) -> bool:
    """Whether arrow ``name`` acts by an invertible matrix on ``mod``.  The
    answer comes from the arrow matrix's own inverse memo
    (``Mat.is_invertible``), so the elimination that decides it also gives
    the inverse that ``_Side`` contracts with, and a module's arrow matrix
    is eliminated once however many Hom spaces ask."""
    return mod.mats[name].is_invertible()


class _Side:
    """One module's half of the contracted Hom equations for one sequence
    of contraction ``steps`` (an arrow and the vertices its fold moves).
    It depends on that module only, so ``_side`` builds it once per module
    and contraction, and every Hom space the module is the source or the
    target of, End(M) included, reads its matrices, the Jordan frames
    memoised on them and the answer of each nilpotency test.

    A Hom space M -> N writes f_v = A_v f_r B_v on the tree of root r, B_v
    from M and A_v from N (a root has neither), and a remaining arrow
    a: s -> t reads f_rt P(a) = P'(a) f_rs, with P(a) = B_t M(a) B_s^-1 and
    P'(a) = A_t^-1 N(a) A_s.  Contracting a folds the tree of t's root onto
    s's root: B_w <- P(a)^-1 B_w and A_w <- A_w P'(a) at each vertex w it
    moves.  Built from one module, A_v = B_v^-1, by induction on the steps:
    both start as identities, and when it holds before a step, P'(a) =
    A_t^-1 M(a) A_s = B_t M(a) B_s^-1 = P(a), so A_w B_w = A_w P(a) P(a)^-1
    B_w = I after it.  So one matrix, ``pencil[a]`` = B_t M(a) A_s, is the
    module's pencil in both roles, and a step inverts its own pencil only.
    A step's pencil is the arrow matrix itself when no earlier step moved
    the arrow's ends, and then ``inverse`` reads the memo that
    ``_acts_invertibly`` filled; a product is a new ``Mat`` and is
    eliminated once here.
    ``b`` holds the B_v and ``a`` the A_v of folded vertices;
    ``nilpotent(a)`` says whether ``pencil[a]`` is nilpotent.

    ``HomSpace`` keeps a basis in its solving frame on this: a module's
    pencil at the Jordan arrow is one matrix in both roles, so it has one
    Jordan frame P, and its source factor R_v = P^-1 B_v and target factor
    L_v = A_v P multiply to R_v L_v = P^-1 B_v A_v P = I.  End(M) in the
    frame is thus conjugate to End(M), by one invertible matrix
    diag(L_v), and the traces of Hom(M, N) x Hom(N, M) are the same in the
    frames of the two modules.
    """

    def __init__(self, mod: Representation, steps, remaining):
        b: dict[str, Mat] = {}
        a: dict[str, Mat] = {}

        def normalized(arrow) -> Mat:
            return _times(_times(b.get(arrow.target), mod.mats[arrow.name]), a.get(arrow.source))

        for arrow, folded in steps:
            p = normalized(arrow)
            p_inv = p.inverse()
            for w in folded:
                b[w] = _times(p_inv, b.get(w))
                a[w] = _times(a.get(w), p)
        self.b, self.a = b, a
        self.pencil = {arrow.name: normalized(arrow) for arrow in remaining}
        self._nilpotent: dict[str, bool] = {}

    def nilpotent(self, name: str) -> bool:
        got = self._nilpotent.get(name)
        if got is None:
            got = self._nilpotent[name] = self.pencil[name].is_nilpotent()
        return got


def _side(mod: Representation, steps, remaining) -> _Side:
    """``mod``'s ``_Side`` for these contraction steps, built once."""
    key = tuple(a.name for a, _ in steps)
    side = mod._sides.get(key)
    if side is None:
        side = mod._sides[key] = _Side(mod, steps, remaining)
    return side


def _solve_hom_equations(field, m, n, var_roots, equations, src, tgt, pencils):
    """Solve the contracted intertwiner equations f_rt P(a) = P'(a) f_rs,
    one ``(a, rt, rs)`` per remaining arrow, with P(a) = ``src.pencil[a]``
    and P'(a) = ``tgt.pencil[a]``; returns ``(spans, jordan)``, the basis
    as one ``Span`` per root of ``var_roots``, in that order, in the frame
    ``jordan`` = (P_t, P_s^-1), or None for the plain coordinates.

    A single root with a nilpotent pair (P(a), P'(a)), a the first such
    arrow, is solved in Jordan coordinates (``nilpotent_hom_basis``), on
    the first equal matrices entered in the phase's ``pencils``, whose
    memoised frames serve them all; its bases stay in those coordinates.
    Everything else is one
    Kronecker system over the concatenated root blocks: arrow a puts
    I ⊗ P(a)^T at f_rt and -P'(a) ⊗ I at f_rs, and the kernel's rows are
    cut into one Span per root (``Span.of_columns``).

    The basis is the one the plain contracted equations give.  With
    f_t = A_t f_rt B_t and f_s = A_s f_rs B_s, the arrow's equation
    f_t M(a) = N(a) f_s reads A_t (f_rt P(a) - P'(a) f_rs) B_s = 0, whose
    rows are (A_t ⊗ B_s^T) times the rows above.  That factor is
    invertible, so each arrow's rows span the same space in both forms and
    the kernel is the same; ``Mat.kernel`` returns its one basis that is
    the identity on the free columns, and the free columns depend on the
    row space only.
    """
    if not var_roots:
        return [], None
    if len(var_roots) == 1:
        r = var_roots[0]
        if all(rt == r and rs == r for _, rt, rs in equations):
            names = [a for a, _, _ in equations]
            for i, a in enumerate(names):
                if src.nilpotent(a) and tgt.nilpotent(a):
                    pencil = [(src.pencil[b], tgt.pencil[b]) for b in names]
                    s, s_target = pencil.pop(i)
                    hs, p_t, p_s_inv = nilpotent_hom_basis(
                        pencils.setdefault(s, s), pencils.setdefault(s_target, s_target), pencil)
                    return [hs], (p_t, p_s_inv)
    sizes = {r: (n.dims[r], m.dims[r]) for r in var_roots}
    offsets = {}
    off = 0
    for r in var_roots:
        offsets[r] = off
        off += sizes[r][0] * sizes[r][1]
    blocks = []
    nrows = 0
    for a, rt, rs in equations:
        if rt in offsets:
            blocks.append((nrows, offsets[rt], None, src.pencil[a].T, n.dims[rt]))
        if rs in offsets:
            blocks.append((nrows, offsets[rs], -tgt.pencil[a], None, m.dims[rs]))
        nrows += n.dims[rt] * m.dims[rs]
    ker = Mat.kron_assemble(field, nrows, off, blocks).kernel()
    return Span.of_columns(ker, [sizes[r] for r in var_roots]), None


# ---------------------------------------------------------------------------
# the radical of End(M)
# ---------------------------------------------------------------------------

def end_radical(m: Representation) -> Optional[Mat]:
    """rad End(M) as coefficient columns over the basis of ``hom_space(m, m)``,
    or None when no trace form certifies it.

    ``trace_radical`` runs on the total matrices of End(M) acting on M, and
    when that fails (its trace kernel holds a non-nilpotent element, as 1
    when the characteristic divides dim M) on the regular representation,
    where the traces differ.  A certified answer is the radical itself, so
    both routes give the same columns.
    """
    hom = hom_space(m, m)
    if hom.dim <= 1:
        # End(M) is 0 or K
        return Mat.zeros(m.field, hom.dim, 0)
    return _certified_radical(m, hom, hom.totals())


def _certified_radical(m: Representation, hom: HomSpace, totals: Span,
                       ker: Optional[Mat] = None) -> Optional[Mat]:
    """``end_radical`` on the span ``totals`` of End(M), given the kernel
    ``ker`` of its module trace form when that is known already."""
    rad = trace_radical(totals, ker)
    return rad if rad is not None else trace_radical(_regular_representation(m, hom.frame))


def _regular_representation(m: Representation, basis: list[dict[str, Mat]]) -> Span:
    """The left multiplications of End(M) on its ``basis`` f_1, ..., f_d,
    given as blocks per vertex or, with the same structure constants, per
    root in the solving frame (``HomSpace``): column j of matrix i holds
    the coordinates of f_i f_j, read from one solve of the flattened basis
    against all d^2 products."""
    field, d = m.field, len(basis)
    flat_len = sum(x.rows * x.cols for x in basis[0].values()) if basis else 0
    flat = Mat.hcat(field, flat_len, [flatten_morphism(field, f) for f in basis])
    coords = flat.solve_matrix(Mat.hcat(field, flat_len,
                                        [flatten_morphism(field, morphism_compose(f, g))
                                         for f in basis for g in basis]))
    if coords is None:
        raise ValueError("composition left the endomorphism algebra span")
    return Span(field, d, d, [coords.submatrix(range(d), range(i * d, (i + 1) * d))
                              for i in range(d)])


# ---------------------------------------------------------------------------
# indecomposability / isomorphism / decomposition
# ---------------------------------------------------------------------------

@dataclass
class IndecVerdict:
    verdict: str                     # "yes" | "no" | "inconclusive"
    witness: Optional[dict] = None   # nontrivial idempotent endomorphism
    detail: str = ""


def _poly_eval_matrix(field: Field, coeffs: list, t: Mat) -> Mat:
    """The polynomial with ascending ``coeffs`` at ``t``, by Horner's rule
    from the leading coefficient."""
    one = Mat.identity(field, t.rows)
    acc = one.scaled(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc @ t
        if c != 0:
            acc = acc + one.scaled(c)
    return acc


def _idempotent_matrix_from_minpoly(field: Field, factors, phi_total: Mat) -> Optional[Mat]:
    """Nontrivial idempotent polynomial in phi via a coprime split of its
    minimal polynomial, given as its ``factor_polynomial`` factors (at least
    two), or None.

    With f^m the first factor's power and g the product of the others,
    u f^m + v g = 1 makes e = v g(phi) the projection onto ker f^m(phi)
    along ker g(phi), whatever u and v the extended gcd returns.
    """
    (fac0, mult0), rest = factors[0], factors[1:]
    f_part = _poly_pow(field, fac0, mult0)
    g_part = [field.one]
    for fac, mult in rest:
        g_part = _poly_mul(field, g_part, _poly_pow(field, fac, mult))
    gcd, _, v = _poly_gcdex(field, f_part, g_part)
    if len(gcd) != 1:
        return None
    e = _poly_eval_matrix(field, _poly_mul(field, v, g_part), phi_total)
    n = phi_total.rows
    if e @ e == e and not e.is_zero() and e != Mat.identity(field, n):
        return e
    return None


def _without_seed(m: Representation):
    """The part of ``is_indecomposable`` that reads no seed.

    Returns its verdict when that is decided before the seeded split search
    ("no" for the zero module, "yes" when End is one-dimensional or
    certified local), and None otherwise, together with what the search
    goes on with, ``(hom, totals, ker, rad)``: the Hom space End(M), its
    span, the kernel of its module trace form and, when End may be local,
    the radical certified for it (else None).  A "yes" comes only from
    here, so a caller that reads nothing but "yes" needs no seed."""
    if m.is_zero():
        return IndecVerdict("no", None, "zero module (decomposes to the empty sum)"), None
    hom = hom_space(m, m)
    if hom.dim == 1:
        return IndecVerdict("yes", detail="End is one-dimensional"), None
    totals = hom.totals()
    ker = trace_form(totals, totals).kernel()
    rad = None
    if hom.dim - ker.cols <= 1:
        rad = _certified_radical(m, hom, totals, ker)
        if rad is not None and hom.dim - rad.cols == 1:
            return IndecVerdict("yes", detail="End local: dim End/rad = 1"), None
    return None, (hom, totals, ker, rad)


def is_indecomposable(m: Representation, seed) -> IndecVerdict:
    """Endomorphism-ring test for indecomposability.

    "no" always carries a nontrivial idempotent; "yes" is certified by the
    radical from ``end_radical`` with one-dimensional quotient;
    "inconclusive" marks a field-proxy obstruction (a radical that no trace
    form certifies, or a semisimple quotient that is a division ring bigger
    than the ground field).

    Locality is certified first when it can hold (``_without_seed``).  The
    radical lies in the kernel K of the module trace form (every product
    with a radical element is nilpotent, so traceless), so
    dim End/rad >= dim End/K.  When dim End/K <= 1 the radical is certified
    first, and when it is certified with dim End/rad = 1 the answer is
    "yes" at once (a local ring has no nontrivial idempotent, so no trial
    could have split it).  Otherwise the seeded split search runs first,
    and the radical, with its nilpotency check, is certified only when no
    trial splits.  Splitting idempotents are found directly as polynomials
    in random endomorphisms acting on the module.
    """
    decided, end = _without_seed(m)
    if decided is not None:
        return decided
    hom, totals, ker, rad = end
    field = m.field
    rng = random.Random(f"indec:{seed}")
    extension_seen = False
    for _ in range(DEFAULT_TRIALS):
        coords = [field.random_scalar(rng) for _ in range(hom.dim)]
        phi = totals.combine(Mat.column(field, coords))[0]
        minpoly = phi.minimal_polynomial()
        factors = factor_polynomial(field, minpoly)
        if len(factors) >= 2:
            e = _idempotent_matrix_from_minpoly(field, factors, phi)
            if e is not None:
                return IndecVerdict("no", hom.unframe(e),
                                    "idempotent from a split minimal polynomial")
        elif factors and len(factors[0][0]) > 2:
            extension_seen = True
    if hom.dim - ker.cols > 1:
        rad = _certified_radical(m, hom, totals, ker)
    if rad is None:
        return IndecVerdict("inconclusive", None, "radical not certifiable over this field")
    # dim End/rad >= 2 with no splitting element found: either End/rad is a
    # division ring larger than the ground field (a field-proxy artifact) or
    # the randomized search was unlucky; never claim "no" without a witness
    detail = ("End/rad is a division ring larger than the ground field"
              if extension_seen else
              f"no idempotent found; dim End/rad = {hom.dim - rad.cols}")
    return IndecVerdict("inconclusive", None, detail)


@dataclass
class IsoVerdict:
    verdict: str                     # "yes" | "no" | "inconclusive"
    witness: Optional[dict] = None   # invertible intertwiner for "yes"
    detail: str = ""


def are_isomorphic(m: Representation, n: Representation,
                   trials: int = DEFAULT_TRIALS, seed=0) -> IsoVerdict:
    """Exact negatives from dimension arguments and the trace pairing;
    positives carry an explicit invertible intertwiner; otherwise
    inconclusive.

    When the characteristic does not divide dim M, the trace pairing
    tr(g . f) on Hom(M, N) x Hom(N, M) is read before the seeded search for
    an invertible intertwiner, and a pairing that vanishes identically
    answers "no", for any M and N.  Suppose f = sum a_i f_i is an
    isomorphism.  Then f^-1 = sum b_j g_j lies in Hom(N, M), and
    sum a_i b_j tr(g_j f_i) = tr(f^-1 f) = dim M != 0, so some entry of the
    pairing is nonzero.  Otherwise the search runs, and no invertible
    combination in ``trials`` draws is inconclusive.
    """
    _require_one_category(m, n)
    if m.dim_vector() != n.dim_vector():
        return IsoVerdict("no", detail="dimension vectors differ")
    if m.is_zero():
        return IsoVerdict("yes", {v: Mat.zeros(m.field, 0, 0) for v in m.dims},
                          "both zero")
    h_mn = hom_space(m, n)
    h_nm = hom_space(n, m)
    if h_mn.dim != h_nm.dim:
        return IsoVerdict("no", detail="Hom dimensions differ between directions")
    if h_mn.dim == 0:
        return IsoVerdict("no", detail="Hom(M, N) = 0")
    totals = h_mn.totals()
    # row i of the pairing holds tr(f_i . g_j) = tr(g_j . f_i) over the
    # basis g_j of Hom(N, M)
    if (m.field.coerce(m.total_dim) != m.field.zero
            and trace_form(totals, h_nm.totals()).is_zero()):
        return IsoVerdict("no", detail="trace pairing vanishes identically")
    got = find_invertible_in_span(totals, trials, seed)
    if got is not None:
        # the combination of block-diagonal frame totals is block diagonal,
        # with the same combination of the root blocks on every tree
        return IsoVerdict("yes", h_mn.unframe(got[1]), "invertible intertwiner found")
    return IsoVerdict("inconclusive", detail=f"no invertible combination in {trials} trials")


@dataclass
class Decomposition:
    """Krull-Schmidt data: summands with multiplicities, plus certification."""

    summands: list[tuple[Representation, int]]
    certified: bool

    def __iter__(self):
        return iter(self.summands)


def _image_subrep(m: Representation, e: dict[str, Mat]) -> Representation:
    """The subrepresentation im(e) for an idempotent endomorphism e."""
    return subquotient(m.bound_quiver, m.field, m.mats,
                       {v: e[v].column_space() for v in m.dims})


def _complement_idempotent(m: Representation, e: dict[str, Mat]) -> dict[str, Mat]:
    return {v: Mat.identity(m.field, m.dims[v]) - e[v] for v in m.dims}


def _split_pieces(m: Representation, seed) -> Iterator[tuple[Representation, bool]]:
    """The pieces of m, each with whether it is certified indecomposable,
    one at a time: a piece that splits is replaced by the images of its
    idempotent and of the complement, the latter handled first, and the
    k-th verdict is drawn with seed ``f"{seed}:{k}"``."""
    stack = [m]
    counter = 0
    while stack:
        cur = stack.pop()
        if cur.is_zero():
            continue
        verdict = is_indecomposable(cur, f"{seed}:{counter}")
        counter += 1
        if verdict.verdict == "no" and verdict.witness is not None:
            e = verdict.witness
            stack.append(_image_subrep(cur, e))
            stack.append(_image_subrep(cur, _complement_idempotent(cur, e)))
        else:
            yield cur, verdict.verdict == "yes"


def decompose(m: Representation, seed) -> Decomposition:
    """Split into indecomposable summands with multiplicities.

    Inconclusive indecomposability verdicts leave the decomposition flagged
    as uncertified (partial) rather than guessed.
    """
    pieces = list(_split_pieces(m, seed))
    certified = all(ok for _, ok in pieces)
    # group by isomorphism
    groups: list[tuple[Representation, int]] = []
    for rep, _ in pieces:
        for i, (r0, mult) in enumerate(groups):
            v = are_isomorphic(rep, r0, seed=f"{seed}:group:{i}")
            if v.verdict == "yes":
                groups[i] = (r0, mult + 1)
                break
            if v.verdict == "inconclusive":
                certified = False
        else:
            groups.append((rep, 1))
    return Decomposition(groups, certified)


def support(m: Representation) -> set[str]:
    """Vertices carrying a nonzero space."""
    return {v for v, d in m.dims.items() if d > 0}


# ---------------------------------------------------------------------------
# sampling relation-satisfying points
# ---------------------------------------------------------------------------

class SamplingStarvation(RuntimeError):
    """No relation-satisfying point was found within the budget."""


def random_representation_unchecked(bq: BoundQuiver, field: Field,
                                    dims: dict[str, int], rng: random.Random) -> Representation:
    mats = {a.name: Mat.random(field, dims.get(a.target, 0), dims.get(a.source, 0), rng)
            for a in bq.quiver.arrows}
    return Representation(bq, field, dims, mats, check=False)


def _uniform_power_length(bq: BoundQuiver) -> Optional[int]:
    """When the relations are exactly all paths of one length mu, return mu."""
    if not bq.relations:
        return None
    lengths = set()
    words = set()
    for rel in bq.relations:
        if len(rel.terms) != 1:
            return None
        _, path = rel.terms[0]
        lengths.add(len(path))
        words.add(path.arrows)
    if len(lengths) != 1:
        return None
    mu = lengths.pop()
    all_mu = {p.arrows for p in _enumerate_paths(bq.quiver, mu) if len(p) == mu}
    return mu if words == all_mu else None


def _sample_power_zero(bq: BoundQuiver, field: Field, dims: dict[str, int],
                       mu: int, rng: random.Random) -> Representation:
    """Sample a module of an algebra with rad^mu = 0 via a random grading.

    Every such module admits a basis adapted to the radical filtration, so
    arrows act strictly triangularly with respect to some mu-step grading;
    conjugating by a random change of basis reaches every point.
    """
    levels: dict[str, list[int]] = {}
    for v, d in dims.items():
        cuts = sorted(rng.randint(0, d) for _ in range(mu - 1))
        parts = []
        prev = 0
        for c in list(cuts) + [d]:
            parts.append(c - prev)
            prev = c
        levels[v] = parts
    offsets = {v: [sum(levels[v][:i]) for i in range(mu + 1)] for v in dims}
    mats = {}
    for a in bq.quiver.arrows:
        dt, ds = dims.get(a.target, 0), dims.get(a.source, 0)
        rows = [[field.zero] * ds for _ in range(dt)]
        for lvl in range(mu - 1):
            # source level lvl feeds target levels > lvl
            s0, s1 = offsets[a.source][lvl], offsets[a.source][lvl + 1]
            t0 = offsets[a.target][lvl + 1]
            for i in range(t0, dt):
                for j in range(s0, s1):
                    rows[i][j] = field.random_scalar(rng)
        mats[a.name] = Mat.from_rows(field, rows) if dt and ds else Mat.zeros(field, dt, ds)
    # conjugate by random invertible base changes
    g = {}
    for v, d in dims.items():
        while True:
            cand = Mat.random(field, d, d, rng)
            if cand.is_invertible():
                g[v] = cand
                break
    inv = {v: x.inverse() for v, x in g.items()}
    return Representation(bq, field, dims,
                          {a.name: g[a.target] @ mats[a.name] @ inv[a.source]
                           for a in bq.quiver.arrows}, check=False)


def _word_matrix(field: Field, word: Sequence[str], mats: dict[str, Mat], n: int) -> Mat:
    """Product of the arrow matrices along a word in composition order (the
    first arrow is applied last); the n x n identity for the empty word."""
    out = None
    for name in word:
        out = mats[name] if out is None else out @ mats[name]
    return out if out is not None else Mat.identity(field, n)


def relation_jacobian(field: Field, rel, mats: dict[str, Mat], dims: dict[str, int],
                      offsets: dict[str, int], nvars: int) -> Mat:
    """Jacobian of a relation at the point ``mats``, with respect to the
    arrows in ``offsets``.

    Rows are the row-major entries of the relation's value; the entries of
    arrow a are the columns from ``offsets[a]`` on, row-major, out of
    ``nvars``.  Each occurrence of a varying arrow X in a term c * L X R
    contributes c * (L kron R^T), since vec(L X R) = (L kron R^T) vec(X) for
    row-major vec.  Arrows outside ``offsets`` are held at ``mats``.
    """
    dt, ds = dims[rel.target], dims[rel.source]
    blocks = []
    for coef, path in rel.terms:
        word = path.arrows
        for k, name in enumerate(word):
            if name in offsets:
                left = _word_matrix(field, word[:k], mats, dt).scaled(coef)
                right = _word_matrix(field, word[k + 1:], mats, ds)
                blocks.append((0, offsets[name], left, right.T, 0))
    return Mat.kron_assemble(field, dt * ds, nvars, blocks)


def _sample_linear_solve(bq: BoundQuiver, field: Field, dims: dict[str, int],
                         rng: random.Random) -> Optional[Representation]:
    """Fix all arrows but one at random, solve the relations linear in it."""
    arrows = list(bq.quiver.arrows)
    target_arrow = rng.choice(arrows)
    name = target_arrow.name
    # linearity: every relation term must use the chosen arrow at most once
    for rel in bq.relations:
        for _, path in rel.terms:
            if path.arrows.count(name) > 1:
                return None
    fixed = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
             for a in arrows if a.name != name}
    dt, ds = dims[target_arrow.target], dims[target_arrow.source]
    nvars = dt * ds
    jacobians: list[Mat] = []
    consts: list[Mat] = []
    for rel in bq.relations:
        rt, rs = dims[rel.target], dims[rel.source]
        fixed_terms = [(coef, path) for coef, path in rel.terms if name not in path.arrows]
        const = Mat.lincomb(field, rt, rs, [coef for coef, _ in fixed_terms],
                            [_word_matrix(field, p.arrows, fixed, rt) for _, p in fixed_terms])
        if len(fixed_terms) == len(rel.terms):
            # fully determined by the fixed arrows; check directly
            if not const.is_zero():
                return None
            continue
        jacobians.append(relation_jacobian(field, rel, fixed, dims, {name: 0}, nvars))
        consts.append(const.reshape(rt * rs, 1))
    if nvars == 0:
        rep_mats = dict(fixed)
        rep_mats[name] = Mat.zeros(field, dt, ds)
        cand = Representation(bq, field, dims, rep_mats, check=False)
        return cand if all(ok for _, ok in check_relations(cand)) else None
    system = Mat.vcat(field, nvars, jacobians)
    sol = system.solve(-Mat.vcat(field, 1, consts))
    if sol is None:
        return None
    ker = system.kernel()
    coeffs = [field.random_scalar(rng) for _ in range(ker.cols)]
    x = sol + ker @ Mat(field, ker.cols, 1, [[c] for c in coeffs])
    rep_mats = dict(fixed)
    rep_mats[name] = x.reshape(dt, ds)
    cand = Representation(bq, field, dims, rep_mats, check=False)
    if all(ok for _, ok in check_relations(cand)):
        return cand
    return None


def sample_representation(bq: BoundQuiver, field: Field, dims: dict[str, int],
                          rng: random.Random, budget: int = 200) -> Representation:
    """Sample a relation-satisfying representation with the given dimensions.

    Hereditary algebras sample directly; algebras whose relations are all
    paths of one fixed length use a graded triangular sampler that reaches
    every module; otherwise relations linear in a single arrow are solved
    exactly, with plain rejection as the last resort.  Raises
    :class:`SamplingStarvation` when the budget is exhausted.
    """
    dims = {v: int(dims.get(v, 0)) for v in bq.quiver.vertices}
    if not bq.relations:
        return random_representation_unchecked(bq, field, dims, rng)
    mu = _uniform_power_length(bq)
    if mu is not None:
        return _sample_power_zero(bq, field, dims, mu, rng)
    for _ in range(budget):
        cand = _sample_linear_solve(bq, field, dims, rng)
        if cand is not None:
            return cand
        cand = random_representation_unchecked(bq, field, dims, rng)
        if all(ok for _, ok in check_relations(cand)):
            return cand
    raise SamplingStarvation(
        f"no relation-satisfying point of dimension {dims} found in {budget} draws")


def in_sincere_subcategory(m: Representation, seed) -> bool:
    """True iff every indecomposable summand is sincere (supports all vertices).

    Sincerity reads only supports: the split stops at the first piece
    whose support is not full, since each of its summands has a smaller
    support too, and no summands are grouped by isomorphism.  Raises
    :class:`InconclusiveError` when some piece is not certified
    indecomposable and no piece witnesses failure.
    """
    all_vertices = set(m.bound_quiver.quiver.vertices)
    certified = True
    for piece, ok in _split_pieces(m, seed):
        if support(piece) != all_vertices:
            return False
        certified = certified and ok
    if not certified:
        raise InconclusiveError("decomposition not certified; sincerity undecided")
    return True
