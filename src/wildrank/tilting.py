"""Hereditary Auslander-Reiten combinatorics and tilting.

Cartan and Coxeter matrices are ``Mat``s over Q (row-vector convention
d -> d * Phi).  The Euler form that the tilting test reads depends on the
quiver alone and is ``quiver.euler_form``.  Every sum of projectives is one
``_ProjectiveSum``: at each vertex its basis is the (slot, path) pairs, and a
map out of it is fixed by its generator images, one product per basis
element and one concatenation per vertex.  Minimal projective presentations
and Ext^1 are built on it.  The inverse AR translate is computed honestly:
dualize to the opposite algebra, take a minimal projective presentation,
transpose it back through Hom(-, A) (reading the transposed map through the
basis index), and read off the cokernel.  Every construction here needs
an acyclic quiver and raises ``CyclicQuiverError`` on an oriented cycle.
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
from typing import Optional, Sequence

from .exactlin import QQ, Field, Mat, Span
from .quiver import (AlgebraTable, BoundQuiver, Path, Quiver, Relation,
                     _enumerate_paths, build_algebra_table, euler_form)
from .rep import (Representation, are_isomorphic, end_radical, flatten_morphism,
                  hom_space, morphism_compose, support)


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


@dataclass
class CartanData:
    """Cartan matrix (columns are projective dimension vectors), the Coxeter
    matrix and its inverse, exact over Q."""

    quiver: Quiver
    cartan: Mat                 # C[j][i] = number of paths i -> j
    coxeter: Mat                # Phi = -C^{-T} C, row-vector action
    coxeter_inv: Mat

    def apply_coxeter_inverse(self, d: Sequence[int]) -> tuple[int, ...]:
        (image,) = (Mat.from_rows(QQ, [list(d)]) @ self.coxeter_inv).row_list()
        if any(x.denominator != 1 for x in image):
            raise ValueError("Coxeter image is not integral")
        return tuple(int(x) for x in image)


def cartan_coxeter(q: Quiver) -> CartanData:
    """Exact Cartan/Coxeter matrices of an acyclic quiver.

    With A[j][i] the number of arrows i -> j, the path counts are
    C = I + A + A^2 + ... = (I - A)^{-1}, so C^{-1} = I - A is read off and
    Phi^{-1} = -C^{-1} C^T; C is the one inversion.
    """
    _require_acyclic(q)         # paths are finite only without oriented cycles
    n = len(q.vertices)
    pos = {v: i for i, v in enumerate(q.vertices)}
    arrows = Mat.assemble(QQ, n, n, [(pos[a.target], pos[a.source], Mat.identity(QQ, 1))
                                     for a in q.arrows])
    cinv = Mat.identity(QQ, n) - arrows
    cmat = cinv.inverse()
    return CartanData(q, cmat, -(cinv.T @ cmat), -(cinv @ cmat.T))


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


def injective_rep(bq: BoundQuiver, field: Field, vertex: str) -> Representation:
    """The indecomposable injective at a vertex: dual of the opposite
    projective (spaces indexed by paths into the vertex)."""
    opp = BoundQuiver(bq.quiver.opposite(), [], nilbound=bq.nilbound)
    p_op = projective_rep(opp, field, vertex)
    dims = dict(p_op.dims)
    mats = {}
    for a in bq.quiver.arrows:
        mats[a.name] = p_op.mats[a.name].T
    return Representation(bq, field, dims, mats, check=False)


def _complement_units(cols: Mat) -> list[int]:
    """The j whose unit vectors e_j extend the independent columns of
    ``cols`` to a basis, each e_j independent of those before it."""
    ident = Mat.identity(cols.field, cols.rows)
    return [p - cols.cols for p in Mat.hcat(cols.field, cols.rows, [cols, ident]).pivot_columns()
            if p >= cols.cols]


def _top_lift_basis(m: Representation) -> dict[str, Mat]:
    """For each vertex, columns spanning a complement of the radical
    (arrow images) inside the vertex space."""
    field = m.field
    out = {}
    for v in m.dims:
        d = m.dims[v]
        imgs = []
        for a in m.bound_quiver.quiver.arrows:
            if a.target == v and m.dims[a.source] > 0 and d > 0:
                imgs.append(m.mats[a.name])
        if d == 0:
            out[v] = Mat.zeros(field, 0, 0)
            continue
        if not imgs:
            out[v] = Mat.identity(field, d)
            continue
        # extend a basis of the radical to a basis of k^d; the new columns span the top
        cols = Mat.hcat(field, d, imgs).column_space()
        out[v] = Mat.identity(field, d).submatrix(range(d), _complement_units(cols))
    return out


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

    ``p0``/``p1`` are the projective sums (modules ``p0.rep``, ``p1.rep``),
    ``phi`` the map P1 -> P0, per vertex, and ``p0_mults``/``p1_mults`` the
    multiplicity of each projective.
    """

    bq: BoundQuiver
    field: Field
    p0: _ProjectiveSum
    p1: _ProjectiveSum
    phi: dict[str, Mat]

    @property
    def p0_mults(self) -> dict[str, int]:
        return self.p0.mults

    @property
    def p1_mults(self) -> dict[str, int]:
        return self.p1.mults


def projective_presentation(m: Representation) -> ProjectivePresentation:
    """Minimal projective presentation over a hereditary algebra.

    The cover P0 hits a basis of the top; its kernel (computed vertexwise)
    is projective and is covered in turn, giving P1 -> P0 exactly.
    """
    bq = m.bound_quiver
    field = m.field
    p0, eps = _cover(m)
    # kernel of eps, vertexwise, with induced arrow maps
    ker_basis = {v: eps[v].kernel() for v in bq.quiver.vertices}
    ker_dims = {v: ker_basis[v].cols for v in bq.quiver.vertices}
    ker_mats = {}
    for a in bq.quiver.arrows:
        rhs = p0.rep.mats[a.name] @ ker_basis[a.source]
        x = ker_basis[a.target].solve_matrix(rhs)
        if x is None:
            raise ValueError("kernel is not arrow-invariant (inconsistent data)")
        ker_mats[a.name] = x
    kernel = Representation(bq, field, ker_dims, ker_mats, check=False)
    p1, cover1 = _cover(kernel)
    if p1.rep.total_dim != kernel.total_dim:
        raise ValueError("first syzygy is not projective; the quiver is not hereditary")
    # phi: P1 -> P0 = inclusion of the kernel after the cover
    phi = {v: ker_basis[v] @ cover1[v] for v in bq.quiver.vertices}
    return ProjectivePresentation(bq, field, p0, p1, phi)


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
    and return the cokernel.  Errors on injective input."""
    bq = m.bound_quiver
    if bq.relations:
        raise ValueError("AR translation implemented for hereditary quivers")
    field = m.field
    if m.is_zero():
        raise ValueError("tau^- of the zero module is undefined")
    # injective detection: compare against the indecomposable injectives
    for v in bq.quiver.vertices:
        inj = injective_rep(bq, field, v)
        if inj.dim_vector() == m.dim_vector():
            if are_isomorphic(m, inj, seed="tau-inj").verdict == "yes":
                raise ValueError("tau^- is undefined on injective modules")
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
    # cokernel vertexwise: [image | complement] is a basis; coordinates in it
    # project to the quotient
    dims = {}
    frames = {}
    for v in bq.quiver.vertices:
        col = psi[v].column_space()
        d = back1.rep.dims[v]
        comp = _complement_units(col)
        frames[v] = (Mat.hcat(field, d, [col, Mat.identity(field, d).submatrix(range(d), comp)]),
                     col.cols, comp)
        dims[v] = len(comp)
    mats = {}
    for a in bq.quiver.arrows:
        frame_t, rad_t, _ = frames[a.target]
        coords = frame_t.solve_matrix(back1.rep.mats[a.name].submatrix(
            range(back1.rep.dims[a.target]), frames[a.source][2]))
        if coords is None:
            raise ValueError("cokernel arrow map inconsistent")
        mats[a.name] = coords.submatrix(range(rad_t, rad_t + dims[a.target]),
                                        range(dims[a.source]))
    return Representation(bq, field, dims, mats, check=False)


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


def endomorphism_algebra(candidate: TiltingCandidate,
                         field: Optional[Field] = None) -> tuple[BoundQuiver, AlgebraTable]:
    """Bound-quiver presentation of End(T) for a tilting module T.

    Vertices are the summands; arrows realize a basis of rad/rad^2; the
    relations are recovered degree by degree by exact linear algebra and the
    presentation is certified by the dimension count dim End(T).
    """
    reps = candidate.reps()
    if not reps:
        raise ValueError("empty candidate")
    field = field if field is not None else reps[0].field
    if not is_tilting(candidate):
        raise ValueError("candidate is not a tilting module")
    n = len(reps)
    homs = {(i, j): hom_space(reps[j], reps[i]) for i in range(n) for j in range(n)}
    end_dim = sum(h.dim for h in homs.values())

    # radical blocks: off-diagonal blocks entirely; diagonal blocks are the
    # radicals of the local rings End(T_i)
    rad_basis: dict[tuple[int, int], list[dict[str, Mat]]] = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                rad_basis[(i, j)] = list(homs[(i, j)].basis)
                continue
            rad = end_radical(reps[i])
            if rad is None:
                raise ValueError("cannot certify the radical of a summand's "
                                 "endomorphism ring over this field")
            combos = {v: Span(field, d, d, [f[v] for f in homs[(i, i)].basis]).combine(rad)
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

    # relations: kernel of the evaluation of paths (length >= 2) in End(T),
    # with path length capped at the nilpotency degree of rad End(T)
    maxlen = 1
    cur_layer = rad_basis
    while any(cur_layer[key] for key in cur_layer) and maxlen < 2 * n + 4:
        nxt: dict[tuple[int, int], list] = {key: [] for key in cur_layer}
        any_nonzero = False
        for i in range(n):
            for j in range(n):
                vecs = []
                for k in range(n):
                    for g in rad_basis[(i, k)]:
                        for f in cur_layer[(k, j)]:
                            comp = morphism_compose(g, f)
                            if not all(mm.is_zero() for mm in comp.values()):
                                vecs.append(comp)
                nxt[(i, j)] = vecs
                if vecs:
                    any_nonzero = True
        cur_layer = nxt
        maxlen += 1
        if not any_nonzero:
            break
    nilpotency = maxlen

    # each kernel column of the path evaluations is a relation; when the
    # block is zero the kernel is the identity and every path is one
    relations = []
    by_st: dict[tuple[str, str], list[Path]] = {}
    for p in _enumerate_paths(quiver, nilpotency + 1):
        if len(p) >= 2:
            by_st.setdefault((p.source, p.target), []).append(p)
    for _, plist in sorted(by_st.items()):
        plist.sort(key=lambda p: (len(p), p.arrows))
        cols = []
        for p in plist:
            f = None
            for name in p.arrows:
                _, _, g = arrow_maps[name]
                f = g if f is None else morphism_compose(f, g)
            cols.append(flatten_morphism(field, f))
        for coefs in Mat.hcat(field, cols[0].rows, cols).kernel().T.row_list():
            relations.append(Relation(tuple((Fraction(c), p)
                                            for c, p in zip(coefs, plist) if c != 0)))

    bq_pres = BoundQuiver(quiver, relations, nilbound=max(2, nilpotency))
    table = build_algebra_table(bq_pres, field)
    if table.dimension != end_dim:
        raise ValueError(f"presentation dimension {table.dimension} does not "
                         f"match dim End(T) = {end_dim}")
    return bq_pres, table


def search_concealed(bq: BoundQuiver, field: Field, depth: int,
                     require_minimal_wild: bool = True
                     ) -> list[tuple[TiltingCandidate, BoundQuiver, AlgebraTable]]:
    """Bounded search for preprojective tilting modules with a projective
    summand, returning endomorphism-algebra presentations.

    Not exhaustive beyond the depth; candidates record, per non-projective
    summand, whether its shift-by-one predecessor is sincere.
    """
    from .quiver import is_minimal_wild_hereditary
    if require_minimal_wild and not is_minimal_wild_hereditary(bq.quiver):
        raise ValueError("search requires a minimal wild hereditary quiver")
    pool = enumerate_preprojectives(bq, field, depth)
    n = len(bq.quiver.vertices)
    out = []
    for combo in itertools.combinations(range(len(pool)), n):
        items = [pool[i] for i in combo]
        if not any(it.shift == 0 for it in items):
            continue
        cand = TiltingCandidate(items)
        if not is_tilting(cand):
            continue
        pres, table = endomorphism_algebra(cand, field)
        out.append((cand, pres, table))
    return out
