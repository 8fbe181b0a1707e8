"""Finite-dimensional representations of a bound quiver.

Hom spaces are computed as exact kernels of the arrow-commutation equations,
with two structural shortcuts that keep large instances cheap without
changing the space: invertible arrows between distinct vertices are
contracted away (f_t = N(a) f_s M(a)^{-1}), and when a remaining
matrix-pencil equation has nilpotent matrices on both sides the whole
pencil is solved in the Jordan coordinates of that pair
(``exactlin.nilpotent_hom_basis``).  Every other Hom system is one kernel
of one ``Mat.kron_assemble`` call, and so is the Jacobian of a relation
(``relation_jacobian``).  The tests check both shortcuts against one
uncontracted kernel of every arrow equation.  Each basis is cached on the
source module, per target, and each module keeps its own half of the
contracted equations (``_Side``), so the Hom spaces it takes part in share
its transforms, pencil matrices and their Jordan frames.

Indecomposability follows the endomorphism ring: a nontrivial idempotent,
from a coprime split of a minimal polynomial (factored, multiplied and
inverted by sympy: ``galoistools`` over F_p, dense lists over Q), witnesses
"no"; a local ring certified by an exactly computed radical with
one-dimensional quotient gives "yes"; everything else is reported
inconclusive (the ground field is an exact stand-in for an algebraically
closed field, and verdicts carry it).  The radical is one function,
``end_radical``: the trace-form kernel of End(M) on M, else on its regular
representation, certified by the nilpotency of each basis element, with
no condition on the characteristic.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional, Sequence

import sympy
from sympy.polys.densearith import dup_mul, dup_pow
from sympy.polys.euclidtools import dup_gcdex
from sympy.polys.galoistools import gf_gcdex, gf_mul, gf_pow

from .exactlin import (Field, Mat, ShapeMismatchError, Span, find_invertible_in_span,
                       nilpotency_index, nilpotent_hom_basis, trace_form, trace_radical)
from .quiver import AlgebraElement, BoundQuiver, Path

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
        # this module's halves of contracted Hom equations (``_Side``) and
        # which arrows act invertibly: built from its own matrices only
        self._sides: dict = {}
        self._invertible: dict[str, bool] = {}
        if check:
            bad = [str(rel) for rel, ok in check_relations(self) if not ok]
            if bad:
                raise ValueError(f"relations violated: {bad}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, bq: BoundQuiver, field: Field) -> "Representation":
        return cls(bq, field, {}, {}, check=False)

    @classmethod
    def simple(cls, bq: BoundQuiver, field: Field, vertex: str) -> "Representation":
        return cls(bq, field, {vertex: 1}, {}, check=False)

    @classmethod
    def from_lists(cls, bq: BoundQuiver, field: Field, dims: dict[str, int],
                   mats: dict[str, Sequence[Sequence]]) -> "Representation":
        return cls(bq, field, dims,
                   {k: Mat.from_rows(field, m) for k, m in mats.items()})

    def direct_sum(self, other: "Representation") -> "Representation":
        if other.bound_quiver != self.bound_quiver or other.field != self.field:
            raise ShapeMismatchError("direct sum over different quivers or fields")
        dims = {v: self.dims[v] + other.dims[v] for v in self.dims}
        mats = {}
        for a in self.bound_quiver.quiver.arrows:
            m1, m2 = self.mats[a.name], other.mats[a.name]
            mats[a.name] = Mat.assemble(self.field, m1.rows + m2.rows, m1.cols + m2.cols,
                                        [(0, 0, m1), (m1.rows, m1.cols, m2)])
        return Representation(self.bound_quiver, self.field, dims, mats, check=False)

    # -- structure --------------------------------------------------------------

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.bound_quiver.quiver.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def offset(self, v: str) -> int:
        return self._offsets[v]

    def path_matrix(self, path: Path) -> Mat:
        return _word_matrix(self.field, path.arrows, self.mats, self.dims[path.target])

    def element_action(self, elt: AlgebraElement) -> Mat:
        """Total-space action of an algebra-table element (block by vertex)."""
        table = elt.table
        if table.bound_quiver != self.bound_quiver:
            raise ShapeMismatchError("algebra element over a different bound quiver")
        n = self.total_dim
        blocks = []
        for c, path in zip(elt.coeffs, table.basis):
            if c != 0:
                blocks.append((self.offset(path.target), self.offset(path.source),
                               self.path_matrix(path).scaled(c)))
        return Mat.assemble(self.field, n, n, blocks)

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


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

@dataclass
class HomSpace:
    """A basis of intertwiners f with f_t M(a) = N(a) f_s for every arrow."""

    source: Representation
    target: Representation
    basis: list[dict[str, Mat]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def total_matrices(self) -> list[Mat]:
        """Block-diagonal total matrices (square only when dim vectors agree)."""
        s, t = self.source, self.target
        return [Mat.assemble(s.field, t.total_dim, s.total_dim,
                             [(t.offset(v), s.offset(v), blk) for v, blk in f.items()])
                for f in self.basis]


def morphism_compose(g: dict[str, Mat], f: dict[str, Mat]) -> dict[str, Mat]:
    return {v: g[v] @ f[v] for v in f}


def flatten_morphism(field: Field, f: dict[str, Mat]) -> Mat:
    """One column: the row-major entries of each block, vertices sorted."""
    return Mat.vcat(field, 1, [f[v].reshape(f[v].rows * f[v].cols, 1) for v in sorted(f)])


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """All intertwiners m -> n, by exact linear algebra.

    Every basis is cached on the source ``m``, keyed by the target ``n`` (by
    identity) in a weak dictionary: a later call on the same pair returns
    the same basis list without solving again.  The cache holds only
    bases, never a module, so it keeps no target alive, and an entry goes
    when its target is freed.
    """
    if m.bound_quiver != n.bound_quiver:
        raise ShapeMismatchError("representations over different bound quivers")
    cached = m._homs.get(n)
    if cached is not None:
        return HomSpace(m, n, cached)
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
    src, tgt = _side(m, steps, remaining, True), _side(n, steps, remaining, False)

    roots = sorted({find(v) for v in q.vertices})
    var_roots = [r for r in roots
                 if n.dims[find(r)] * m.dims[find(r)] > 0]

    # equations: A_t f_{rt} (B_t M(a)) - (N(a) A_s) f_{rs} B_s = 0, with
    # None for the identity transforms A_t and B_s of a root
    equations = []
    for a in remaining:
        y1, y2 = src.factors[a.name]
        x1, x2 = tgt.factors[a.name]
        equations.append((a.name, find(a.target), x1, y1, find(a.source), x2, y2))

    basis_root = _solve_hom_equations(field, m, n, var_roots, equations, src, tgt)

    out = []
    for fr in basis_root:
        f = {}
        for v in q.vertices:
            r = find(v)
            if n.dims[v] == 0 or m.dims[v] == 0:
                f[v] = Mat.zeros(field, n.dims[v], m.dims[v])
            elif r == v:        # a root has no transforms
                f[v] = fr[v]
            else:
                f[v] = tgt.tf[v] @ fr[r] @ src.tf[v]
        out.append(f)
    m._homs[n] = out
    return HomSpace(m, n, out)


def _times(x: Optional[Mat], y: Optional[Mat]) -> Optional[Mat]:
    """``x @ y``, where None stands for an identity matrix."""
    if x is None:
        return y
    return x if y is None else x @ y


def _inverse(x: Optional[Mat]) -> Optional[Mat]:
    """The inverse of ``x``, where None stands for an identity matrix."""
    return None if x is None else x.inverse()


def _acts_invertibly(mod: Representation, name: str) -> bool:
    """Whether arrow ``name`` acts by an invertible matrix on ``mod`` (memoised)."""
    known = mod._invertible.get(name)
    if known is None:
        known = mod._invertible[name] = mod.mats[name].is_invertible()
    return known


class _Side:
    """One module's half of the contracted Hom equations: as the source
    (``source``) or the target of a Hom space, for one sequence of
    contraction ``steps`` (an arrow and the vertices its fold moves).

    ``tf`` holds the transforms of folded vertices, B_v for a source and
    A_v for a target; a root has none.  For each remaining arrow a,
    ``factors[a]`` is (B_t M(a), B_s) for a source and (A_t, N(a) A_s) for
    a target, None standing for a root's identity, and ``pencil(a)`` is
    their normalized product B_t M(a) B_s^-1 or A_t^-1 N(a) A_s.  Each
    transform is a product of invertible matrices and their inverses, so
    the normalizing factors B_s and A_t are invertible.

    A side depends on one module only, so ``_side`` builds it once per
    module, contraction and role: every Hom space the module is part of
    reads the same matrices, and the Jordan frames memoised on them.
    """

    def __init__(self, mod: Representation, steps, remaining, source: bool):
        self.source = source
        tf: dict[str, Mat] = {}
        for a, folded in steps:
            mat = mod.mats[a.name]
            if source:
                # f_t = N(a) f_s M(a)^-1: B_w <- (B_s M(a)^-1 B_t^-1) B_w
                y = _times(_times(tf.get(a.source), mat.inverse()), _inverse(tf.get(a.target)))
                for w in folded:
                    tf[w] = _times(y, tf.get(w))
            else:
                # A_w <- A_w (A_t^-1 N(a) A_s)
                x = _times(_times(_inverse(tf.get(a.target)), mat), tf.get(a.source))
                for w in folded:
                    tf[w] = _times(tf.get(w), x)
        self.tf = tf
        self.factors: dict[str, tuple[Optional[Mat], Optional[Mat]]] = {}
        for a in remaining:
            mat = mod.mats[a.name]
            self.factors[a.name] = ((_times(tf.get(a.target), mat), tf.get(a.source))
                                    if source else
                                    (tf.get(a.target), _times(mat, tf.get(a.source))))
        self._pencil: dict[str, Mat] = {}

    def pencil(self, name: str) -> Mat:
        got = self._pencil.get(name)
        if got is None:
            u, v = self.factors[name]
            got = self._pencil[name] = (_times(u, _inverse(v)) if self.source
                                        else _times(_inverse(u), v))
        return got


def _side(mod: Representation, steps, remaining, source: bool) -> _Side:
    """``mod``'s ``_Side`` for these contraction steps and role, built once."""
    key = (tuple(a.name for a, _ in steps), source)
    side = mod._sides.get(key)
    if side is None:
        side = mod._sides[key] = _Side(mod, steps, remaining, source)
    return side


def _solve_hom_equations(field, m, n, var_roots, equations, src, tgt):
    """Solve the contracted intertwiner equations (``x1``, ``y2`` None for
    identities); returns bases {root: Mat}.

    A single root whose equations normalize to a pencil g S_k = S'_k g
    (S_k from the source side ``src``, S'_k from the target side ``tgt``)
    with one nilpotent pair is solved in Jordan coordinates; everything
    else is one Kronecker system (``_hom_kron``).
    """
    if not var_roots:
        return []
    if len(var_roots) == 1:
        r = var_roots[0]
        if all(rt == r and rs == r for (_, rt, _, _, rs, _, _) in equations):
            pencil = [(src.pencil(a), tgt.pencil(a)) for a, *_ in equations]
            for i, (s, sp) in enumerate(pencil):
                if nilpotency_index(s) is not None and nilpotency_index(sp) is not None:
                    return [{r: g} for g in
                            nilpotent_hom_basis(s, sp, pencil[:i] + pencil[i + 1:])]
    return _hom_kron(field, m, n, var_roots, equations)


def _hom_kron(field, m, n, var_roots, equations):
    """General path: one Kronecker system over concatenated root blocks.

    The equation A_t f_rt (B_t M(a)) - (N(a) A_s) f_rs B_s = 0 contributes
    x1 ⊗ y1^T at f_rt and -x2 ⊗ y2^T at f_rs, a None transform being the
    identity of its root.
    """
    sizes = {r: (n.dims[r], m.dims[r]) for r in var_roots}
    offsets = {}
    off = 0
    for r in var_roots:
        offsets[r] = off
        off += sizes[r][0] * sizes[r][1]
    nvars = off
    blocks = []
    nrows = 0
    for (_, rt, x1, y1, rs, x2, y2) in equations:
        if rt in offsets:
            blocks.append((nrows, offsets[rt], x1, y1.T, x2.rows))
        if rs in offsets:
            blocks.append((nrows, offsets[rs], -x2, None if y2 is None else y2.T, y1.cols))
        nrows += x2.rows * y1.cols
    ker = Mat.kron_assemble(field, nrows, nvars, blocks).kernel()
    out = []
    for j in range(ker.cols):
        sol = {}
        for r in var_roots:
            e_d, d_d = sizes[r]
            sol[r] = ker.submatrix(range(offsets[r], offsets[r] + e_d * d_d), [j]).reshape(e_d, d_d)
        out.append(sol)
    return out


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
    return _certified_radical(m, hom, _end_span(m, hom))


def _end_span(m: Representation, hom: HomSpace) -> Span:
    """The total matrices of End(M) on M, stacked once."""
    return Span(m.field, m.total_dim, m.total_dim, hom.total_matrices())


def _certified_radical(m: Representation, hom: HomSpace, totals: Span,
                       ker: Optional[Mat] = None) -> Optional[Mat]:
    """``end_radical`` on the span ``totals`` of End(M), given the kernel
    ``ker`` of its module trace form when that is known already."""
    rad = trace_radical(totals, ker)
    return rad if rad is not None else trace_radical(_regular_representation(m, hom.basis))


def _regular_representation(m: Representation, basis: list[dict[str, Mat]]) -> Span:
    """The left multiplications of End(M) on its ``basis`` f_1, ..., f_d:
    column j of matrix i holds the coordinates of f_i f_j, read from one
    solve of the flattened basis against all d^2 products."""
    field, d = m.field, len(basis)
    flat_len = sum(k * k for k in m.dims.values())
    flat = Mat.hcat(field, flat_len, [flatten_morphism(field, f) for f in basis])
    coords = flat.solve_matrix(Mat.hcat(field, flat_len,
                                        [flatten_morphism(field, morphism_compose(f, g))
                                         for f in basis for g in basis]))
    if coords is None:
        raise ValueError("composition left the endomorphism algebra span")
    return Span(field, d, d, [coords.submatrix(range(d), range(i * d, (i + 1) * d))
                              for i in range(d)])


# ---------------------------------------------------------------------------
# polynomials: sympy dense lists (leading coefficient first)
# ---------------------------------------------------------------------------

def _to_dense(field: Field, coeffs: Sequence) -> list:
    """Ascending field coefficients as a sympy dense list: plain ints over
    F_p (the ``galoistools`` form), ``QQ`` elements over Q."""
    if field.char:
        return [int(c) for c in reversed(coeffs)]
    return [sympy.QQ(c.numerator, c.denominator) for c in reversed(coeffs)]


def _from_dense(field: Field, dense: Sequence) -> list:
    """Field coefficients, ascending, of a dense list over F_p or Q."""
    if field.char:
        return [field.coerce(int(c)) for c in reversed(dense)]
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(dense)]


def factor_polynomial(field: Field, coeffs: Sequence) -> list[tuple[list, int]]:
    """Irreducible factorization over the field; [(coeffs ascending, mult)]."""
    dom = sympy.GF(field.char) if field.char else sympy.QQ
    poly = sympy.Poly.from_list(_to_dense(field, coeffs), sympy.Symbol("x"), domain=dom)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        lifted = _from_dense(field, fac.rep.to_list())
        lead = lifted[-1]
        if lead != field.one:
            inv = field.inv(lead)
            lifted = [field.mul(inv, c) for c in lifted]
        out.append((lifted, int(mult)))
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out


# ---------------------------------------------------------------------------
# indecomposability / isomorphism / decomposition
# ---------------------------------------------------------------------------

@dataclass
class IndecVerdict:
    verdict: str                     # "yes" | "no" | "inconclusive"
    witness: Optional[dict] = None   # nontrivial idempotent endomorphism
    detail: str = ""

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def _poly_eval_matrix(field: Field, coeffs, t: Mat) -> Mat:
    n = t.rows
    acc = Mat.zeros(field, n, n)
    for c in reversed(list(coeffs)):
        acc = acc @ t
        if c != 0:
            acc = acc + Mat.identity(field, n).scaled(c)
    return acc


def _blocks_from_total(m: Representation, total: Mat) -> dict[str, Mat]:
    out = {}
    for v in m.dims:
        off = m.offset(v)
        idx = list(range(off, off + m.dims[v]))
        out[v] = total.submatrix(idx, idx)
    return out


def _idempotent_matrix_from_minpoly(field: Field, factors, phi_total: Mat) -> Optional[Mat]:
    """Nontrivial idempotent polynomial in phi via a coprime split of its
    minimal polynomial, given as its ``factor_polynomial`` factors (at least
    two), or None.

    With f^m the first factor's power and g the product of the others,
    u f^m + v g = 1 makes e = v g(phi) the projection onto ker f^m(phi)
    along ker g(phi), whatever u and v the extended gcd returns.
    """
    if field.char:
        power, times, gcdex = (partial(op, p=field.char, K=sympy.ZZ)
                               for op in (gf_pow, gf_mul, gf_gcdex))
    else:
        power, times, gcdex = (partial(op, K=sympy.QQ) for op in (dup_pow, dup_mul, dup_gcdex))
    (fac0, mult0), rest = factors[0], factors[1:]
    f_part = power(_to_dense(field, fac0), mult0)
    g_part = _to_dense(field, [field.one])
    for fac, mult in rest:
        g_part = times(g_part, power(_to_dense(field, fac), mult))
    _, v, gcd = gcdex(f_part, g_part)
    if len(gcd) != 1:
        return None
    e = _poly_eval_matrix(field, _from_dense(field, times(v, g_part)), phi_total)
    n = phi_total.rows
    if e @ e == e and not e.is_zero() and e != Mat.identity(field, n):
        return e
    return None


def is_indecomposable(m: Representation, seed, trials: int = DEFAULT_TRIALS) -> IndecVerdict:
    """Endomorphism-ring test for indecomposability.

    "no" always carries a nontrivial idempotent; "yes" is certified by the
    radical from ``end_radical`` with one-dimensional quotient;
    "inconclusive" marks a field-proxy obstruction (a radical that no trace
    form certifies, or a semisimple quotient that is a division ring bigger
    than the ground field).

    Locality is certified first when it can hold.  The radical lies in the
    kernel K of the module trace form (every product with a radical element
    is nilpotent, so traceless), so dim End/rad >= dim End/K.  When
    dim End/K <= 1 the radical is certified first, and when it is certified
    with dim End/rad = 1 the answer is "yes" at once (a local ring has no
    nontrivial idempotent, so no trial could have split it).  Otherwise the
    seeded split search runs first, and the radical, with its nilpotency
    check, is certified only when no trial splits.  Splitting idempotents
    are found directly as polynomials in random endomorphisms acting on the
    module.
    """
    if m.is_zero():
        return IndecVerdict("no", None, "zero module (decomposes to the empty sum)")
    field = m.field
    hom = hom_space(m, m)
    if hom.dim == 1:
        return IndecVerdict("yes", detail="End is one-dimensional")
    totals = _end_span(m, hom)
    ker = trace_form(totals.mats, totals.mats).kernel()
    may_be_local = hom.dim - ker.cols <= 1
    if may_be_local:
        rad = _certified_radical(m, hom, totals, ker)
        if rad is not None and hom.dim - rad.cols == 1:
            return IndecVerdict("yes", detail="End local: dim End/rad = 1")
    rng = random.Random(f"indec:{seed}")
    extension_seen = False
    for _ in range(trials):
        coords = [field.random_scalar(rng) for _ in range(hom.dim)]
        phi = totals.combine(Mat.column(field, coords))[0]
        minpoly = phi.minimal_polynomial()
        factors = factor_polynomial(field, minpoly)
        if len(factors) >= 2:
            e = _idempotent_matrix_from_minpoly(field, factors, phi)
            if e is not None:
                return IndecVerdict("no", _blocks_from_total(m, e),
                                    "idempotent from a split minimal polynomial")
        elif factors and len(factors[0][0]) > 2:
            extension_seen = True
    if not may_be_local:
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

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def are_isomorphic(m: Representation, n: Representation,
                   trials: int = DEFAULT_TRIALS, seed=0,
                   both_indecomposable: bool = False) -> IsoVerdict:
    """Exact negatives from dimension arguments; positives carry an explicit
    invertible intertwiner; otherwise inconclusive.

    With ``both_indecomposable`` (caller-certified), the trace pairing
    tr(g . f) on Hom(M, N) x Hom(N, M) decides exactly: non-isomorphisms
    between non-isomorphic indecomposables compose into the radical of the
    local endomorphism ring, which is nilpotent and traceless, while an
    isomorphism pairs to trace dim M != 0 (the characteristic must not
    divide dim M for the negative direction).
    """
    if m.bound_quiver != n.bound_quiver:
        raise ShapeMismatchError("representations over different bound quivers")
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
    totals = h_mn.total_matrices()
    got = find_invertible_in_span(totals, trials, seed)
    if got is not None:
        # the combination of block-diagonal totals is block diagonal, with
        # the same combination of the blocks f[v] at vertex v
        return IsoVerdict("yes", _blocks_from_total(m, got[1]), "invertible intertwiner found")
    if both_indecomposable:
        field = m.field
        # row i of the pairing holds tr(f_i . g_j) = tr(g_j . f_i) over the
        # basis g_j of Hom(N, M).  For indecomposable M and N a nonzero entry
        # makes g_j . f_i invertible and f_i an isomorphism, but no basis
        # element f_i is invertible here: find_invertible_in_span tried each
        # one alone (trials >= 1), and the total matrix of f_i is block
        # diagonal with the blocks f_i[v] (equal dimension vectors), so it is
        # invertible whenever every block is.  A nonzero pairing therefore
        # contradicts the caller's hint, and the verdict stays inconclusive.
        if not trace_form(totals, h_nm.total_matrices()).is_zero():
            return IsoVerdict("inconclusive",
                              detail="trace pairing inconsistent with the hint")
        if field.char == 0 or m.total_dim % field.char != 0:
            return IsoVerdict("no", detail="trace pairing vanishes identically "
                                           "(indecomposable inputs)")
    return IsoVerdict("inconclusive", detail=f"no invertible combination in {trials} trials")


@dataclass
class Decomposition:
    """Krull-Schmidt data: summands with multiplicities, plus certification."""

    summands: list[tuple[Representation, int]]
    certified: bool

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def total_dim(self) -> int:
        return sum(rep.total_dim * mult for rep, mult in self.summands)


def _image_subrep(m: Representation, e: dict[str, Mat]) -> Representation:
    """The subrepresentation im(e) for an idempotent endomorphism e."""
    field = m.field
    basis = {v: e[v].column_space() for v in m.dims}
    dims = {v: basis[v].cols for v in m.dims}
    mats = {}
    for a in m.bound_quiver.quiver.arrows:
        c_s, c_t = basis[a.source], basis[a.target]
        rhs = m.mats[a.name] @ c_s
        x = c_t.solve_matrix(rhs)
        if x is None:
            raise ValueError("image not invariant; idempotent is not an endomorphism")
        mats[a.name] = x
    return Representation(m.bound_quiver, field, dims, mats, check=False)


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
    groups: list[tuple[Representation, int, bool]] = []
    for rep, ok in pieces:
        placed = False
        for i, (r0, mult, ok0) in enumerate(groups):
            v = are_isomorphic(rep, r0, seed=f"{seed}:group:{i}",
                               both_indecomposable=ok and ok0)
            if v.verdict == "yes":
                groups[i] = (r0, mult + 1, ok0 and ok)
                placed = True
                break
            if v.verdict == "inconclusive":
                certified = False
        if not placed:
            groups.append((rep, 1, ok))
    return Decomposition([(r, mult) for r, mult, _ in groups], certified)


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
    from .quiver import _enumerate_paths
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
    rep = Representation(bq, field, dims, mats, check=False)
    # conjugate by random invertible base changes
    g = {}
    for v, d in dims.items():
        while True:
            cand = Mat.random(field, d, d, rng)
            if cand.is_invertible():
                g[v] = cand
                break
    new_mats = {a.name: g[a.target] @ rep.mats[a.name] @ g[a.source].inverse()
                for a in bq.quiver.arrows}
    return Representation(bq, field, dims, new_mats, check=False)


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
