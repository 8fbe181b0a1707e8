"""Hereditary Auslander-Reiten combinatorics and tilting.

Cartan and Coxeter data fix the dimension-vector arithmetic (row-vector
convention d -> d * Phi).  The inverse AR translate is computed honestly:
dualize to the opposite algebra, take a minimal projective presentation,
transpose it back through Hom(-, A), and read off the cokernel.  Tilting
candidates are checked with the hereditary Euler formula, and endomorphism
algebras of tilting modules are presented as bound quivers recovered by
exact linear algebra (certified by dimension count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import Field, Mat
from .quiver import (AlgebraTable, BoundQuiver, Path, Quiver, Relation,
                     build_algebra_table)
from .rep import (EndAnalysis, Representation, are_isomorphic,
                  hom_space, morphism_compose, support)


class CyclicQuiverError(ValueError):
    """Hereditary operations need an acyclic quiver."""


def _topological_order(q: Quiver) -> list[str]:
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        if a.source == a.target:
            raise CyclicQuiverError("quiver has a loop")
        indeg[a.target] += 1
    order = [v for v in q.vertices if indeg[v] == 0]
    seen = list(order)
    while order and len(seen) <= len(q.vertices):
        frontier = []
        for v in order:
            for a in q.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        frontier.append(a.target)
                        seen.append(a.target)
        order = frontier
    if len(seen) != len(q.vertices):
        raise CyclicQuiverError("quiver has an oriented cycle")
    return seen


def _path_counts(q: Quiver) -> dict[tuple[str, str], int]:
    """Number of paths between each ordered vertex pair (acyclic quiver)."""
    order = _topological_order(q)
    counts: dict[tuple[str, str], int] = {}
    for u in reversed(order):
        for w in q.vertices:
            total = 1 if u == w else 0
            for a in q.arrows:
                if a.source == u:
                    total += counts[(a.target, w)]
            counts[(u, w)] = total
    return counts


@dataclass
class CartanData:
    """Cartan matrix (columns are projective dimension vectors), its inverse,
    the Coxeter matrix and the Euler form, all over the integers."""

    quiver: Quiver
    cartan: list[list[int]]          # C[j][i] = number of paths i -> j
    cartan_inv: list[list[Fraction]]
    coxeter: list[list[Fraction]]    # Phi = -C^{-T} C, row-vector action
    coxeter_inv: list[list[Fraction]]

    def euler_form(self, d: Sequence[int], e: Sequence[int]) -> int:
        """<d, e> = sum d_i e_i - sum over arrows d_source e_target."""
        q = self.quiver
        pos = {v: i for i, v in enumerate(q.vertices)}
        total = sum(int(x) * int(y) for x, y in zip(d, e))
        for a in q.arrows:
            total -= int(d[pos[a.source]]) * int(e[pos[a.target]])
        return total

    def apply_coxeter(self, d: Sequence[int]) -> tuple[int, ...]:
        return _row_times(d, self.coxeter)

    def apply_coxeter_inverse(self, d: Sequence[int]) -> tuple[int, ...]:
        return _row_times(d, self.coxeter_inv)


def _row_times(d: Sequence[int], m: list[list[Fraction]]) -> tuple[int, ...]:
    n = len(m)
    out = []
    for j in range(n):
        acc = Fraction(0)
        for i in range(n):
            acc += Fraction(d[i]) * m[i][j]
        if acc.denominator != 1:
            raise ValueError("Coxeter image is not integral")
        out.append(int(acc))
    return tuple(out)


def _mat_to_fractions(m: Mat) -> list[list[Fraction]]:
    return [[Fraction(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def cartan_coxeter(q: Quiver) -> CartanData:
    """Exact Cartan/Coxeter matrices of an acyclic quiver."""
    counts = _path_counts(q)
    n = len(q.vertices)
    c = [[counts[(q.vertices[i], q.vertices[j])] for i in range(n)] for j in range(n)]
    from .exactlin import QQ
    cmat = Mat.from_rows(QQ, c)
    cinv = cmat.inverse()
    # Phi = -C^{-T} C
    phi = (cinv.T @ cmat).scaled(-1)
    phi_inv = phi.inverse()
    return CartanData(q, c, _mat_to_fractions(cinv),
                      _mat_to_fractions(phi), _mat_to_fractions(phi_inv))


# ---------------------------------------------------------------------------
# projectives, injectives, presentations
# ---------------------------------------------------------------------------

def projective_rep(bq: BoundQuiver, field: Field, vertex: str) -> Representation:
    """The indecomposable projective at a vertex of a hereditary quiver:
    basis all paths from the vertex, arrows act by composition."""
    if bq.relations:
        raise ValueError("projective construction here assumes a hereditary quiver")
    q = bq.quiver
    from .quiver import _enumerate_paths
    maxlen = len(q.vertices) + 1
    paths = [p for p in _enumerate_paths(q, maxlen) if p.source == vertex]
    by_vertex: dict[str, list[Path]] = {v: [] for v in q.vertices}
    for p in paths:
        by_vertex[p.target].append(p)
    for v in by_vertex:
        by_vertex[v].sort(key=lambda p: (len(p), p.arrows))
    index = {}
    for v, plist in by_vertex.items():
        for i, p in enumerate(plist):
            index[(p.target, p.arrows)] = i
    dims = {v: len(by_vertex[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        rows = [[field.zero] * dims[a.source] for _ in range(dims[a.target])]
        for j, p in enumerate(by_vertex[a.source]):
            longer = Path(p.source, a.target, (a.name,) + p.arrows)
            i = index[(a.target, longer.arrows)]
            rows[i][j] = field.one
        mats[a.name] = Mat.from_rows(field, rows) if dims[a.target] and dims[a.source] \
            else Mat.zeros(field, dims[a.target], dims[a.source])
    return Representation(bq, field, dims, mats, check=False)


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
    return [p - cols.cols for p in cols.hstack(ident).pivot_columns() if p >= cols.cols]


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


@dataclass
class ProjectivePresentation:
    """P1 -> P0 -> M -> 0 with multiplicities and an algebra-entry matrix.

    ``p0_mults``/``p1_mults`` give the multiplicity of each projective;
    ``phi`` holds, per (target copy, source copy), the algebra element of
    paths (as a Representation morphism it is expanded on demand).
    """

    bq: BoundQuiver
    field: Field
    p0_mults: dict[str, int]
    p1_mults: dict[str, int]
    cover_maps: dict[str, list[Mat]]     # vertex -> chosen top lifts for P0 -> M
    p0: Representation
    p1: Representation
    phi: dict[str, Mat]                  # expanded morphism P1 -> P0, per vertex


def _projective_sum(bq: BoundQuiver, field: Field, mults: dict[str, int]):
    """Direct sum of projectives with multiplicities; returns (rep, slots)."""
    reps = []
    slots = []
    for v in bq.quiver.vertices:
        for c in range(mults.get(v, 0)):
            reps.append(projective_rep(bq, field, v))
            slots.append((v, c))
    if not reps:
        return Representation.zero(bq, field), []
    total = reps[0]
    for r in reps[1:]:
        total = total.direct_sum(r)
    return total, slots


def _morphism_from_generators(bq: BoundQuiver, field: Field, p_sum, slots,
                              target: Representation,
                              generator_images: list[Mat]) -> dict[str, Mat]:
    """Extend images of the projective generators to a module morphism.

    Each summand Ae_v is spanned by paths from v; the generator (the lazy
    path) goes to the prescribed image and a path p goes to p acting on it.
    """
    from .quiver import _enumerate_paths
    q = bq.quiver
    maxlen = len(q.vertices) + 1
    paths_from = {v: [p for p in _enumerate_paths(q, maxlen) if p.source == v]
                  for v in q.vertices}
    for v in paths_from:
        by_target: dict[str, list[Path]] = {}
        for p in paths_from[v]:
            by_target.setdefault(p.target, []).append(p)
        for t in by_target:
            by_target[t].sort(key=lambda p: (len(p), p.arrows))
        paths_from[v] = by_target
    offs = {}
    off_by_vertex = {v: 0 for v in q.vertices}
    for idx, (v, c) in enumerate(slots):
        for t, plist in paths_from[v].items():
            offs[(idx, t)] = off_by_vertex[t]
            off_by_vertex[t] += len(plist)
    out = {}
    for t in q.vertices:
        cols: list[list] = []
        col_entries = [[field.zero] * p_sum.dims[t] for _ in range(target.dims[t])]
        for idx, (v, c) in enumerate(slots):
            plist = paths_from[v].get(t, [])
            base = offs.get((idx, t), 0)
            gen_img = generator_images[idx]          # column in target at v
            for k, p in enumerate(plist):
                img = target.path_matrix(p) @ gen_img
                for i in range(target.dims[t]):
                    col_entries[i][base + k] = img.entry(i, 0)
        out[t] = Mat.from_rows(field, col_entries) if target.dims[t] and p_sum.dims[t] \
            else Mat.zeros(field, target.dims[t], p_sum.dims[t])
    return out


def projective_presentation(m: Representation) -> ProjectivePresentation:
    """Minimal projective presentation over a hereditary algebra.

    The cover P0 hits a basis of the top; its kernel (computed vertexwise)
    is projective and is covered in turn, giving P1 -> P0 exactly.
    """
    bq = m.bound_quiver
    field = m.field
    tops = _top_lift_basis(m)
    p0_mults = {v: tops[v].cols for v in bq.quiver.vertices}
    p0, slots0 = _projective_sum(bq, field, p0_mults)
    gen_images = []
    for (v, c) in slots0:
        gen_images.append(tops[v].submatrix(range(tops[v].rows), [c]))
    eps = _morphism_from_generators(bq, field, p0, slots0, m, gen_images)
    # kernel of eps, vertexwise, with induced arrow maps
    ker_basis = {v: eps[v].kernel() for v in bq.quiver.vertices}
    ker_dims = {v: ker_basis[v].cols for v in bq.quiver.vertices}
    ker_mats = {}
    for a in bq.quiver.arrows:
        rhs = p0.mats[a.name] @ ker_basis[a.source]
        x = ker_basis[a.target].solve_matrix(rhs)
        if x is None:
            raise ValueError("kernel is not arrow-invariant (inconsistent data)")
        ker_mats[a.name] = x
    kernel = Representation(bq, field, ker_dims, ker_mats, check=False)
    tops_k = _top_lift_basis(kernel)
    p1_mults = {v: tops_k[v].cols for v in bq.quiver.vertices}
    p1, slots1 = _projective_sum(bq, field, p1_mults)
    if p1.total_dim != kernel.total_dim:
        raise ValueError("first syzygy is not projective; the quiver is not hereditary")
    gen_images1 = []
    for (v, c) in slots1:
        gen_images1.append(tops_k[v].submatrix(range(tops_k[v].rows), [c]))
    cover1 = _morphism_from_generators(bq, field, p1, slots1, kernel, gen_images1)
    # phi: P1 -> P0 = inclusion of the kernel after the cover
    phi = {v: ker_basis[v] @ cover1[v] for v in bq.quiver.vertices}
    return ProjectivePresentation(bq, field, p0_mults, p1_mults,
                                  {v: tops[v] for v in tops}, p0, p1, phi)


def ext1_dim_via_presentation(m: Representation, n: Representation) -> int:
    """dim Ext^1(M, N) from a projective presentation of M.

    Hom(P0, N) -> Hom(P1, N) has cokernel Ext^1 over a hereditary algebra;
    Hom(Ae_v, N) is identified with N(v), and the connecting map applies the
    presentation's path entries.  Independent of the Euler-form shortcut.
    """
    pres = projective_presentation(m)
    bq = m.bound_quiver
    field = m.field
    _, slots0 = _projective_sum(bq, field, pres.p0_mults)
    _, slots1 = _projective_sum(bq, field, pres.p1_mults)
    hom_p0 = sum(n.dims[v] for v, _ in slots0)
    hom_p1 = sum(n.dims[v] for v, _ in slots1)
    if hom_p1 == 0:
        return 0
    # map Hom(P0, N) -> Hom(P1, N): g -> g . phi; coordinates: for each slot
    # (v, c) of P0 a vector in N(v).  Build by feeding unit generators.
    cols = []
    for j0, (v0, c0) in enumerate(slots0):
        for b in range(n.dims[v0]):
            # g sends generator of slot j0 to basis vector b of N(v0)
            gen_images = []
            for j, (v, c) in enumerate(slots0):
                col = Mat.zeros(field, n.dims[v], 1)
                if j == j0:
                    col = Mat.unit(field, n.dims[v0], 1, b, 0)
                gen_images.append(col)
            g = _morphism_from_generators(bq, field, pres.p0, slots0, n, gen_images)
            # restrict along phi: value on P1 generators
            vals = []
            offs = _slot_offsets(bq, field, pres.p1, slots1)
            for j1, (v1, c1) in enumerate(slots1):
                gen_col = Mat.unit(field, pres.p1.dims[v1], 1, offs[j1], 0)
                img = g[v1] @ (pres.phi[v1] @ gen_col)
                vals.extend(img.entry(i, 0) for i in range(n.dims[v1]))
            cols.append(vals)
    mat = Mat.from_rows(field, [[cols[j][i] for j in range(len(cols))]
                                for i in range(hom_p1)]) if cols else \
        Mat.zeros(field, hom_p1, 0)
    return hom_p1 - mat.rank()


def _slot_offsets(bq, field, p_sum, slots):
    """Column index of each slot's generator inside its vertex space.

    The vertex space at v concatenates, slot by slot, the paths from the
    slot's vertex into v; the generator (the lazy path) sorts first within
    its own slot's block at its own vertex.
    """
    counts = _path_counts(bq.quiver)
    off_by_vertex = {v: 0 for v in bq.quiver.vertices}
    offs = []
    for (v, c) in slots:
        offs.append(off_by_vertex[v])
        for t in bq.quiver.vertices:
            off_by_vertex[t] += counts[(v, t)]
    return offs


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
    dual = _dual_rep(m, opp)
    pres = projective_presentation(dual)
    # transpose: Hom_B(-, B) turns Be_v-sums over the opposite algebra into
    # Ae_v-sums over the original; the connecting matrix is the transposed
    # entry matrix with every path reversed.  Expand it as a morphism of
    # projective sums over the original quiver and take the cokernel.
    p0_back, slots0 = _projective_sum(bq, field, pres.p0_mults)
    p1_back, slots1 = _projective_sum(bq, field, pres.p1_mults)
    # build the transposed map p0_back -> p1_back: its value on the slot
    # generators is determined by the entries of phi read backwards
    gen_images = []
    offs1 = _slot_offsets(opp, field, pres.p1, slots1)
    for j0, (v0, c0) in enumerate(slots0):
        # entry (j1 <- j0) of the transposed map = reversed phi entry (j0 <- j1)
        col_entries = [field.zero] * p1_back.dims[v0]
        for j1, (v1, c1) in enumerate(slots1):
            # phi component: P1-slot j1 generator -> P0 slot j0 component in
            # the opposite algebra; reverse each path to act here
            gen_col = Mat.unit(field, pres.p1.dims[v1], 1, offs1[j1], 0)
            img = pres.phi[v1] @ gen_col            # element of P0(v1), over opp
            # decode: coordinates of P0(v1) are opposite-paths from slot
            # vertices to v1; reversed they are paths from v1 in the original
            decoded = _decode_projective_element(opp, field, pres.p0_mults,
                                                 slots0, v1, img)
            for (jj0, rev_path) in decoded:
                if jj0 != j0:
                    continue
                coef, opp_path = rev_path
                orig_word = tuple(reversed(opp_path.arrows))
                if orig_word:
                    orig_path = bq.quiver.path(orig_word)
                else:
                    orig_path = bq.quiver.trivial_path(v1)
                # place: column of p1_back at slot j1, the basis vector of
                # path (v1 -> ...)? the transposed map sends the slot-j0
                # generator to (reversed path) . (slot-j1 generator)
                target_vec = _path_on_generator(bq, field, p1_back, slots1,
                                                j1, orig_path)
                col_entries = [field.add(a, field.mul(coef, b))
                               for a, b in zip(col_entries,
                                               [target_vec.entry(i, 0)
                                                for i in range(p1_back.dims[v0])])]
        gen_images.append(Mat.from_rows(field, [[x] for x in col_entries])
                          if p1_back.dims[v0] else Mat.zeros(field, 0, 1))
    psi = _morphism_from_generators(bq, field, p0_back, slots0, p1_back, gen_images)
    # cokernel vertexwise
    dims = {}
    mats = {}
    proj = {}
    for v in bq.quiver.vertices:
        col = psi[v].column_space()
        # complement basis: extend columns of col to full space
        d = p1_back.dims[v]
        comp_cols = _complement_units(col)
        cur = col.hstack(Mat.identity(field, d).submatrix(range(d), comp_cols))
        dims[v] = len(comp_cols)
        # cur = [col | comp]; the projection to the quotient solves cur c = x
        proj[v] = (cur, col.cols, comp_cols)
    for a in bq.quiver.arrows:
        s, t = a.source, a.target
        basis_t, rad_t, comp_t = proj[t]
        d_t = p1_back.dims[t]
        rows = [[field.zero] * dims[s] for _ in range(dims[t])]
        basis_s, rad_s, comp_s = proj[s]
        for jj, j in enumerate(comp_s):
            x = p1_back.mats[a.name] @ Mat.unit(field, p1_back.dims[s], 1, j, 0)
            coords = basis_t.solve(x)
            if coords is None:
                raise ValueError("cokernel arrow map inconsistent")
            for ii in range(len(comp_t)):
                rows[ii][jj] = coords.entry(rad_t + ii, 0)
        mats[a.name] = Mat.from_rows(field, rows) if dims[t] and dims[s] \
            else Mat.zeros(field, dims[t], dims[s])
    return Representation(bq, field, dims, mats, check=False)


def _decode_projective_element(bq: BoundQuiver, field, mults, slots, vertex, col: Mat):
    """Decode a column of a projective sum at a vertex into (slot, (coef, path))."""
    from .quiver import _enumerate_paths
    q = bq.quiver
    maxlen = len(q.vertices) + 1
    out = []
    idx = 0
    for j, (v, c) in enumerate(slots):
        plist = [p for p in _enumerate_paths(q, maxlen)
                 if p.source == v and p.target == vertex]
        plist.sort(key=lambda p: (len(p), p.arrows))
        for p in plist:
            coef = col.entry(idx, 0)
            if coef != 0:
                out.append((j, (coef, p)))
            idx += 1
    return out


def _path_on_generator(bq: BoundQuiver, field, p_sum, slots, slot_idx, path: Path) -> Mat:
    """The basis column of path . (slot generator) inside the projective sum."""
    from .quiver import _enumerate_paths
    q = bq.quiver
    maxlen = len(q.vertices) + 1
    target_vertex = path.target
    idx = 0
    for j, (v, c) in enumerate(slots):
        plist = [p for p in _enumerate_paths(q, maxlen)
                 if p.source == v and p.target == target_vertex]
        plist.sort(key=lambda p: (len(p), p.arrows))
        if j == slot_idx:
            for k, p in enumerate(plist):
                if p.arrows == path.arrows:
                    return Mat.unit(field, p_sum.dims[target_vertex], 1, idx + k, 0)
            raise ValueError(f"path {path} not found in projective basis")
        idx += len(plist)
    raise ValueError("slot not found")


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


def is_tilting(candidate: TiltingCandidate, cartan: Optional[CartanData] = None) -> bool:
    """|Q_0| pairwise non-isomorphic summands and Ext^1(T, T) = 0, where
    dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> (hereditary)."""
    reps = candidate.reps()
    if not reps:
        return False
    bq = reps[0].bound_quiver
    if len(reps) != len(bq.quiver.vertices):
        return False
    cartan = cartan if cartan is not None else cartan_coxeter(bq.quiver)
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i < j:
                v = are_isomorphic(reps[i], reps[j], seed=f"tilt:{i}:{j}")
                if v.verdict != "no":
                    return False
            hom_dim = hom_space(reps[i], reps[j]).dim
            ext = hom_dim - cartan.euler_form(reps[i].dim_vector(), reps[j].dim_vector())
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
            else:
                ea = EndAnalysis(reps[i])
                rad = ea.radical_coords()
                if rad is None:
                    raise ValueError("cannot certify the radical of a summand's "
                                     "endomorphism ring over this field")
                rad_basis[(i, j)] = [ea.from_coords(c) for c in rad]

    def block_flatten(i, j, f):
        entries = []
        for v in sorted(f):
            blk = f[v]
            for a in range(blk.rows):
                for b in range(blk.cols):
                    entries.append(blk.entry(a, b))
        return entries

    # rad^2 blocks: sums over middle summands
    def rad2_block(i, j) -> list[list]:
        vecs = []
        for k in range(n):
            for g in rad_basis[(i, k)]:
                for f in rad_basis[(k, j)]:
                    vecs.append(block_flatten(i, j, morphism_compose(g, f)))
        return vecs

    arrows = []
    arrow_maps: dict[str, tuple[int, int, dict[str, Mat]]] = {}
    for i in range(n):
        for j in range(n):
            block = rad_basis[(i, j)]
            if not block:
                continue
            flat = [block_flatten(i, j, f) for f in block]
            r2 = rad2_block(i, j)
            # arrows: the radical maps independent of rad^2 and of each other
            piv = Mat.from_rows(field, r2 + flat).T.pivot_columns()
            chosen = [p - len(r2) for p in piv if p >= len(r2)]
            for k, idx in enumerate(chosen):
                # arrow from vertex j (source summand) to vertex i
                name = f"r{j}_{i}_{k}"
                arrows.append((name, f"t{j}", f"t{i}"))
                arrow_maps[name] = (j, i, block[idx])
    quiver = Quiver([f"t{i}" for i in range(n)], arrows)

    # relations: kernel of the evaluation of paths (length >= 2) in End(T),
    # with path length capped at the nilpotency degree of rad End(T)
    from .quiver import _enumerate_paths
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

    relations = []
    paths_all = _enumerate_paths(quiver, nilpotency + 1)
    by_st: dict[tuple[str, str], list[Path]] = {}
    for p in paths_all:
        if len(p) >= 2:
            by_st.setdefault((p.source, p.target), []).append(p)
    for (s, t), plist in sorted(by_st.items()):
        plist.sort(key=lambda p: (len(p), p.arrows))
        i = int(t[1:])
        j = int(s[1:])
        flat_len = None
        vecs = []
        for p in plist:
            f = None
            for name in p.arrows:
                _, _, g = arrow_maps[name]
                f = g if f is None else morphism_compose(f, g)
            vec = block_flatten(i, j, f)
            flat_len = len(vec)
            vecs.append(vec)
        if not vecs or flat_len == 0:
            for p in plist:
                relations.append((1, p))
            continue
        mat = Mat.from_rows(field, [[vecs[r][cc] for r in range(len(vecs))]
                                    for cc in range(flat_len)])
        ker = mat.kernel()
        for col in range(ker.cols):
            terms = []
            for r, p in enumerate(plist):
                coef = ker.entry(r, col)
                if coef != 0:
                    coef_q = Fraction(coef) if not field.char else Fraction(int(coef))
                    terms.append((coef_q, p))
            if terms:
                relations.append(terms)

    rel_objs = []
    for item in relations:
        if isinstance(item, tuple):
            coef, p = item
            rel_objs.append(Relation(((Fraction(coef), p),)))
        else:
            rel_objs.append(Relation(tuple((c, p) for c, p in item)))
    bq_pres = BoundQuiver(quiver, rel_objs, nilbound=max(2, nilpotency))
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
