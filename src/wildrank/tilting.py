"""Hereditary Auslander-Reiten combinatorics and tilting.

The Euler form that the tilting test reads depends on the quiver alone
and is ``quiver.euler_form``.  Every sum of projectives is one
``_ProjectiveSum``: at each vertex its basis is the (slot, path) pairs, and a
map out of it is fixed by its generator images, one product per basis
element and one concatenation per vertex.  Minimal projective presentations
and Ext^1 are built on it.  The inverse AR translate is computed honestly:
dualize to the opposite algebra, take a minimal projective presentation,
transpose it back through Hom(-, A) (reading the transposed map through the
basis index), and read off the cokernel.  The syzygy and the cokernel are
each a ``rep.subquotient``, and a top or a cokernel is spanned by unit
columns (``_complement``).  Every construction here needs an acyclic
quiver and raises ``CyclicQuiverError`` on an oriented cycle.
Tilting candidates are checked with the hereditary Euler formula, and
endomorphism algebras of tilting modules are presented as bound quivers
recovered by exact linear algebra on flattened morphisms (the radical of
each End(T_i) from ``rep.end_radical``, the arrows a basis of rad/rad^2,
the relations kernel columns), certified by dimension count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactlin import Field, Mat, Span
from .quiver import (AlgebraTable, BoundQuiver, Path, Quiver, Relation,
                     _enumerate_paths, build_algebra_table, euler_form)
from .rep import (Representation, are_isomorphic, end_radical, flatten_morphism,
                  hom_space, morphism_compose, shared_solves, subquotient, support)

__all__ = ["CyclicQuiverError", "endomorphism_algebra", "enumerate_preprojectives",
           "ext1_dim_via_presentation", "tilting_candidates"]


class CyclicQuiverError(ValueError):
    """Hereditary operations need an acyclic quiver."""


def _require_acyclic(q: Quiver) -> None:
    """Raise ``CyclicQuiverError`` on a loop or an oriented cycle: vertices
    with no arrow in from the rest are peeled off until none is left."""
    if any(a.source == a.target for a in q.arrows):
        raise CyclicQuiverError("quiver has a loop")
    rest = set(q.vertices)
    while rest:
        sources = rest - {a.target for a in q.arrows if a.source in rest}
        if not sources:
            raise CyclicQuiverError("quiver has an oriented cycle")
        rest -= sources


# ---------------------------------------------------------------------------
# projectives, injectives, presentations
# ---------------------------------------------------------------------------

class _ProjectiveSum:
    """The projective module ⊕_j A e_{v_j} over the slots ``(v_j, c_j)`` of
    a hereditary quiver, on one basis; a quiver with an oriented cycle
    raises ``CyclicQuiverError``.

    The basis at a vertex t lists the pairs (j, p) of a slot j and a path p
    from v_j to t: slot first, then paths by (length, arrows).
    ``index[(j, p.arrows)]`` is the position of (j, p) in the basis at
    ``p.target``, so ``index[(j, ())]`` is slot j's generator.  An arrow a
    sends (j, p) to (j, a p); ``rep`` is the module.
    """

    def __init__(self, bq: BoundQuiver, field: Field, slots: Sequence[tuple[str, int]]):
        if bq.relations:
            raise ValueError("projective construction here assumes a hereditary quiver")
        q = bq.quiver
        _require_acyclic(q)         # paths are finite only without oriented cycles
        paths = sorted(_enumerate_paths(q, len(q.vertices) + 1),
                       key=lambda p: (len(p), p.arrows))
        self.slots = list(slots)
        self.mults = {v: sum(1 for s, _ in self.slots if s == v) for v in q.vertices}
        self.basis: dict[str, list[tuple[int, Path]]] = {v: [] for v in q.vertices}
        for j, (v, _) in enumerate(self.slots):
            for p in paths:
                if p.source == v:
                    self.basis[p.target].append((j, p))
        self.index = {(j, p.arrows): i for b in self.basis.values()
                      for i, (j, p) in enumerate(b)}
        dims = {v: len(b) for v, b in self.basis.items()}
        mats = {}
        for a in q.arrows:
            # column (j, p) is the unit vector of (j, a p)
            rows = [self.index[(j, (a.name,) + p.arrows)] for j, p in self.basis[a.source]]
            mats[a.name] = Mat.identity(field, dims[a.target]).submatrix(
                range(dims[a.target]), rows)
        self.rep = Representation(bq, field, dims, mats, check=False)

    def generator_columns(self, phi: dict[str, Mat]) -> list[Mat]:
        """The column of each generator under a map given per vertex."""
        return [phi[v].submatrix(range(phi[v].rows), [self.index[(j, ())]])
                for j, (v, _) in enumerate(self.slots)]


def projective_rep(bq: BoundQuiver, field: Field, vertex: str) -> Representation:
    """The indecomposable projective at a vertex of a hereditary quiver:
    basis all paths from the vertex, arrows act by composition."""
    return _ProjectiveSum(bq, field, [(vertex, 0)]).rep


def _complement(cols: Mat) -> Mat:
    """The unit columns e_j that extend the span of ``cols`` to the whole
    space, each independent of the columns before it: the pivots of
    [cols | I] past cols, which depend only on that span."""
    n = cols.rows
    pivots = Mat.hcat(cols.field, n, [cols, Mat.identity(cols.field, n)]).pivot_columns()
    return Mat.identity(cols.field, n).submatrix(
        range(n), [p - cols.cols for p in pivots if p >= cols.cols])


def _top_lift_basis(m: Representation) -> dict[str, Mat]:
    """For each vertex, unit columns spanning a complement of the radical
    (arrow images) inside the vertex space."""
    arrows = m.bound_quiver.quiver.arrows
    return {v: _complement(Mat.hcat(m.field, d, [m.mats[a.name] for a in arrows
                                                 if a.target == v]))
            for v, d in m.dims.items()}


def _morphism_from_generators(p: _ProjectiveSum, target: Representation,
                              images: Sequence[Mat]) -> dict[str, Mat]:
    """The module map P -> target sending generator j to the column
    ``images[j]`` of target(v_j): basis element (j, p) goes to
    target(p) images[j], so each vertex is one ``hcat``."""
    return {t: Mat.hcat(target.field, target.dims[t],
                        [target.path_matrix(path) @ images[j] for j, path in b])
            for t, b in p.basis.items()}


def _cover(m: Representation) -> tuple[_ProjectiveSum, dict[str, Mat]]:
    """The projective cover P -> m: a slot per top-lift column, whose
    generator goes to that column."""
    tops = _top_lift_basis(m)
    p = _ProjectiveSum(m.bound_quiver, m.field,
                       [(v, c) for v, t in tops.items() for c in range(t.cols)])
    images = [tops[v].submatrix(range(tops[v].rows), [c]) for v, c in p.slots]
    return p, _morphism_from_generators(p, m, images)


@dataclass
class ProjectivePresentation:
    """P1 -> P0 -> M -> 0, minimal, over a hereditary quiver.

    ``p0``/``p1`` are the projective sums (modules ``p0.rep``, ``p1.rep``,
    multiplicities ``p0.mults``, ``p1.mults``) and ``phi`` the map P1 -> P0,
    per vertex.
    """

    p0: _ProjectiveSum
    p1: _ProjectiveSum
    phi: dict[str, Mat]


def projective_presentation(m: Representation) -> ProjectivePresentation:
    """Minimal projective presentation over a hereditary algebra.

    The cover P0 hits a basis of the top; its kernel (vertexwise, a
    ``subquotient`` of P0) is projective and is covered in turn, giving
    P1 -> P0 exactly.
    """
    bq = m.bound_quiver
    p0, eps = _cover(m)
    ker_basis = {v: eps[v].kernel() for v in bq.quiver.vertices}
    kernel = subquotient(bq, m.field, p0.rep.mats, ker_basis)
    p1, cover1 = _cover(kernel)
    if p1.rep.total_dim != kernel.total_dim:
        raise ValueError("first syzygy is not projective; the quiver is not hereditary")
    # phi: P1 -> P0 = inclusion of the kernel after the cover
    phi = {v: ker_basis[v] @ cover1[v] for v in bq.quiver.vertices}
    return ProjectivePresentation(p0, p1, phi)


def ext1_dim_via_presentation(m: Representation, n: Representation) -> int:
    """dim Ext^1(M, N) from a projective presentation of M.

    Hom(P0, N) -> Hom(P1, N), g -> g phi, has cokernel Ext^1 over a
    hereditary algebra.  A map g out of a projective sum is its generator
    images x_j, so Hom(P, N) is the sum of N(v_j) over the slots j.  When
    phi sends generator j1 to sum coef (j0, p), g phi sends it to
    sum coef N(p) x_j0: block (j1, j0) of the map is the sum of coef N(p)
    over the terms of slot j0, and overlapping blocks add in one assembly.
    Independent of the Euler-form shortcut.
    """
    pres = projective_presentation(m)
    p0, p1 = pres.p0, pres.p1
    off0 = list(itertools.accumulate((n.dims[v] for v, _ in p0.slots), initial=0))
    off1 = list(itertools.accumulate((n.dims[v] for v, _ in p1.slots), initial=0))
    blocks = []
    for j1, ((v1, _), col) in enumerate(zip(p1.slots, p1.generator_columns(pres.phi))):
        for (j0, path), (coef,) in zip(p0.basis[v1], col.row_list()):
            if coef:
                blocks.append((off1[j1], off0[j0], n.path_matrix(path).scaled(coef)))
    return off1[-1] - Mat.assemble(m.field, off1[-1], off0[-1], blocks).rank()


# ---------------------------------------------------------------------------
# AR translation
# ---------------------------------------------------------------------------

def _dual_rep(m: Representation, opp: BoundQuiver) -> Representation:
    mats = {a.name: m.mats[a.name].T for a in m.bound_quiver.quiver.arrows}
    return Representation(opp, m.field, dict(m.dims), mats, check=False)


def ar_translate_inverse(m: Representation) -> Representation:
    """tau^{-1} M via transpose of the dual: dualize, take a minimal
    projective presentation over the opposite quiver, apply Hom(-, algebra)
    and return the cokernel.  The presentation is minimal, so the cokernel is
    zero exactly when M is injective, where tau^- is undefined."""
    bq = m.bound_quiver
    if bq.relations:
        raise ValueError("AR translation implemented for hereditary quivers")
    field = m.field
    if m.is_zero():
        raise ValueError("tau^- of the zero module is undefined")
    opp = BoundQuiver(bq.quiver.opposite(), [], nilbound=bq.nilbound)
    pres = projective_presentation(_dual_rep(m, opp))
    # transpose: Hom(-, B) turns the sums over the opposite algebra B into
    # sums over the original algebra on the same slots, and psi: back0 ->
    # back1 is phi read backwards: generator j0 goes to the element whose
    # coordinate at (j1, q) is the coefficient of (j0, q reversed) in
    # phi(generator j1); all generator columns of phi are stacked in `gens`
    back0 = _ProjectiveSum(bq, field, pres.p0.slots)
    back1 = _ProjectiveSum(bq, field, pres.p1.slots)
    cols = pres.p1.generator_columns(pres.phi)
    starts = list(itertools.accumulate((c.rows for c in cols), initial=0))
    gens = Mat.vcat(field, 1, cols)
    images = [gens.submatrix([starts[j1] + pres.p0.index[(j0, tuple(reversed(q.arrows)))]
                              for j1, q in back1.basis[v0]], [0])
              for j0, (v0, _) in enumerate(back0.slots)]
    psi = _morphism_from_generators(back0, back1.rep, images)
    # the cokernel, vertexwise: unit columns complementing im(psi), modulo im(psi)
    sub = {v: psi[v].column_space() for v in bq.quiver.vertices}
    top = {v: _complement(sub[v]) for v in bq.quiver.vertices}
    if not any(t.cols for t in top.values()):
        raise ValueError("tau^- is undefined on injective modules")
    return subquotient(bq, field, back1.rep.mats, top, sub)


# ---------------------------------------------------------------------------
# preprojectives, tilting, concealed search
# ---------------------------------------------------------------------------

@dataclass
class Preprojective:
    rep: Representation
    projective_vertex: str
    shift: int                  # tau^{-shift} of the projective
    sincere: bool


def enumerate_preprojectives(bq: BoundQuiver, field: Field, depth: int) -> list[Preprojective]:
    """tau^{-j} P_i for 0 <= j <= depth; orbits stop at injective modules."""
    q = bq.quiver
    out = []
    all_v = set(q.vertices)
    for v in q.vertices:
        cur = projective_rep(bq, field, v)
        out.append(Preprojective(cur, v, 0, support(cur) == all_v))
        for j in range(1, depth + 1):
            try:
                cur = ar_translate_inverse(cur)
            except ValueError:
                break
            out.append(Preprojective(cur, v, j, support(cur) == all_v))
    return out


@dataclass
class TiltingCandidate:
    """Pairwise non-isomorphic indecomposable summands with provenance."""

    summands: list[Preprojective]
    #: True once ``tilting_candidates`` has seen ``is_tilting`` accept it
    tilting = False

    def reps(self) -> list[Representation]:
        return [s.rep for s in self.summands]

    def labels(self) -> list[str]:
        return [f"tau^-{s.shift} P({s.projective_vertex})" for s in self.summands]


def is_tilting(candidate: TiltingCandidate) -> bool:
    """|Q_0| pairwise non-isomorphic summands and Ext^1(T, T) = 0, where
    dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> (hereditary), the
    Euler form read from the quiver."""
    reps = candidate.reps()
    if not reps:
        return False
    bq = reps[0].bound_quiver
    if len(reps) != len(bq.quiver.vertices):
        return False
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i < j:
                v = are_isomorphic(reps[i], reps[j], seed=f"tilt:{i}:{j}")
                if v.verdict != "no":
                    return False
            hom_dim = hom_space(reps[i], reps[j]).dim
            ext = hom_dim - euler_form(bq.quiver, reps[i].dim_vector(), reps[j].dim_vector())
            if ext < 0:
                raise ValueError("negative Ext dimension; Euler data inconsistent")
            if ext != 0:
                return False
    return True


@shared_solves()
def endomorphism_algebra(candidate: TiltingCandidate) -> tuple[BoundQuiver, AlgebraTable]:
    """Bound-quiver presentation of End(T) for a tilting module T, over the
    field of its summands.

    Vertices are the summands; arrows realize a basis of rad/rad^2; the
    relations are recovered degree by degree by exact linear algebra and the
    presentation is certified by the dimension count dim End(T).
    """
    reps = candidate.reps()
    if not reps:
        raise ValueError("empty candidate")
    field = reps[0].field
    if not (candidate.tilting or is_tilting(candidate)):
        raise ValueError("candidate is not a tilting module")
    n = len(reps)
    end_dim = sum(hom_space(s, t).dim for s in reps for t in reps)

    # radical blocks: off-diagonal blocks entirely; diagonal blocks are the
    # radicals of the local rings End(T_i)
    rad_basis: dict[tuple[int, int], list[dict[str, Mat]]] = {}
    for i in range(n):
        for j in range(n):
            basis = hom_space(reps[j], reps[i]).basis
            if i != j:
                rad_basis[(i, j)] = list(basis)
                continue
            rad = end_radical(reps[i])
            if rad is None:
                raise ValueError("cannot certify the radical of a summand's "
                                 "endomorphism ring over this field")
            combos = {v: Span(field, d, d, [f[v] for f in basis]).combine(rad)
                      for v, d in reps[i].dims.items()}
            rad_basis[(i, i)] = [{v: combos[v][k] for v in combos} for k in range(rad.cols)]

    arrows = []
    arrow_maps: dict[str, tuple[int, int, dict[str, Mat]]] = {}
    for i in range(n):
        for j in range(n):
            block = rad_basis[(i, j)]
            if not block:
                continue
            flat = [flatten_morphism(field, f) for f in block]
            # the rad^2 block: sums over middle summands
            r2 = [flatten_morphism(field, morphism_compose(g, f))
                  for k in range(n) for g in rad_basis[(i, k)] for f in rad_basis[(k, j)]]
            # arrows: the radical maps independent of rad^2 and of each other
            piv = Mat.hcat(field, flat[0].rows, r2 + flat).pivot_columns()
            chosen = [p - len(r2) for p in piv if p >= len(r2)]
            for k, idx in enumerate(chosen):
                # arrow from vertex j (source summand) to vertex i
                name = f"r{j}_{i}_{k}"
                arrows.append((name, f"t{j}", f"t{i}"))
                arrow_maps[name] = (j, i, block[idx])
    quiver = Quiver([f"t{i}" for i in range(n)], arrows)

    # the arrows span rad modulo rad^2, so rad^m = 0 exactly when every
    # arrow path of length m evaluates to zero: evaluate the paths by length
    # up to the first such m, the nilpotency degree, which is at most
    # dim End(T)
    evals = {(name,): f for name, (_, _, f) in arrow_maps.items()}
    layer = list(evals)
    nilpotency = 1
    while any(not m.is_zero() for word in layer for m in evals[word].values()):
        if nilpotency == end_dim:
            raise ValueError("the radical of End(T) is not nilpotent")
        layer = [(name,) + word for word in layer
                 for name, (j, _, _) in arrow_maps.items() if j == arrow_maps[word[0]][1]]
        for word in layer:
            evals[word] = morphism_compose(arrow_maps[word[0]][2], evals[word[1:]])
        nilpotency += 1

    def evaluation(word: tuple) -> dict[str, Mat]:
        """The evaluated path; a path one longer than the last layer is zero."""
        if word in evals:
            return evals[word]
        g, f = arrow_maps[word[0]][2], evals[word[1:]]
        return {v: Mat.zeros(field, g[v].rows, f[v].cols) for v in f}

    # relations: each kernel column of the evaluations of the paths of
    # lengths 2 to nilpotency + 1 is one; when the block is zero the kernel
    # is the identity and every path is one
    relations = []
    by_st: dict[tuple[str, str], list[Path]] = {}
    for p in _enumerate_paths(quiver, nilpotency + 1):
        if len(p) >= 2:
            by_st.setdefault((p.source, p.target), []).append(p)
    for _, plist in sorted(by_st.items()):
        plist.sort(key=lambda p: (len(p), p.arrows))
        cols = [flatten_morphism(field, evaluation(p.arrows)) for p in plist]
        for coefs in Mat.hcat(field, cols[0].rows, cols).kernel().T.row_list():
            relations.append(Relation(tuple((Fraction(c), p)
                                            for c, p in zip(coefs, plist) if c != 0)))

    bq_pres = BoundQuiver(quiver, relations, nilbound=max(2, nilpotency))
    table = build_algebra_table(bq_pres, field)
    if table.dimension != end_dim:
        raise ValueError(f"presentation dimension {table.dimension} does not "
                         f"match dim End(T) = {end_dim}")
    return bq_pres, table


def tilting_candidates(pool: Sequence[Preprojective], n: int) -> Iterator[TiltingCandidate]:
    """The tilting modules among the ``n``-element subsets of ``pool`` with a
    projective summand, in the order of ``itertools.combinations``; each is
    marked ``tilting``, so ``endomorphism_algebra`` does not test it again."""
    for items in itertools.combinations(pool, n):
        if any(p.shift == 0 for p in items):
            cand = TiltingCandidate(list(items))
            cand.tilting = is_tilting(cand)
            if cand.tilting:
                yield cand

