import itertools
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wildrank.exactlin import (Field, Mat, Span, _back_substitute, _lowest, _zeros,
                               find_invertible_in_span, trace_form)
from wildrank.rep import (DEFAULT_TRIALS, IndecVerdict, InconclusiveError, IsoVerdict,
                          Representation,
                          _idempotent_matrix_from_minpoly, are_isomorphic, decompose, end_radical,
                          factor_polynomial, flatten_morphism, hom_space,
                          morphism_compose, support, _poly_eval_matrix)
from wildrank.quiver import (BoundQuiver, Quiver, Relation, _enumerate_paths,
                             build_algebra_table, is_minimal_wild_hereditary, k3_bound_quiver,
                             kronecker_quiver, loop_quiver)
from wildrank.tilting import (_dual_rep, _require_acyclic, _top_lift_basis, endomorphism_algebra,
                              enumerate_preprojectives, projective_rep, tilting_candidates)
from wildrank.wildness import (CheckCounts, FreeAlgModule, FreeAlgebra, eval_tensor,
                               sincere_witness_for_K3)
from wildrank.covering import covering_criterion
from wildrank.cli import parse_quiver_spec

QQ = Field.rationals()
F101 = Field.prime(101)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXDIR, name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# constructors and operations only the tests use
# ---------------------------------------------------------------------------

def field_add(field, a, b):
    return field.coerce(a + b)


def mat_trace(m):
    """The trace of a square ``Mat``, as a field scalar."""
    return m.field.coerce(sum(m.entry(i, i) for i in range(m.rows)))


def make_relation(q, terms):
    """The relation sum c * path over ``terms``, pairs (c, arrow names)."""
    return Relation(tuple((Fraction(c), q.path(list(w))) for c, w in terms))


def line_quiver(n):
    """A_n with arrows i -> i+1."""
    return Quiver([str(i) for i in range(1, n + 1)],
                  [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])


def loop_square_zero(loops=1):
    """Local algebra with the given number of loops and all length-2 products zero."""
    q = loop_quiver(loops)
    rels = [make_relation(q, [(1, (a.name, b.name))]) for a in q.arrows for b in q.arrows]
    return BoundQuiver(q, rels, nilbound=2)


def zero_rep(bq, field):
    return Representation(bq, field, {}, {}, check=False)


def simple_rep(bq, field, vertex):
    return Representation(bq, field, {vertex: 1}, {}, check=False)


def rep_from_lists(bq, field, dims, mats):
    """A representation from nested lists of entries, one per arrow."""
    return Representation(bq, field, dims, {k: Mat.from_rows(field, m) for k, m in mats.items()})


def _block_sum(a, b):
    return Mat.assemble(a.field, a.rows + b.rows, a.cols + b.cols,
                        [(0, 0, a), (a.rows, a.cols, b)])


def direct_sum(m, n):
    """M (+) N, of two representations or of two free-algebra modules."""
    if isinstance(m, FreeAlgModule):
        return FreeAlgModule(*(_block_sum(m.mats[a], n.mats[a]) for a in ("x", "y")))
    if n.bound_quiver != m.bound_quiver or n.field != m.field:
        raise ValueError("direct sum over different quivers or fields")
    dims = {v: m.dims[v] + n.dims[v] for v in m.dims}
    mats = {name: _block_sum(m.mats[name], n.mats[name]) for name in m.mats}
    return Representation(m.bound_quiver, m.field, dims, mats, check=False)


def zero_module(field):
    """The zero module of the two-letter free algebra."""
    return FreeAlgModule(Mat.zeros(field, 0, 0), Mat.zeros(field, 0, 0))


def injective_rep(bq, field, vertex):
    """The indecomposable injective at a vertex of a hereditary quiver: the
    dual of the projective of the opposite quiver (spaces indexed by paths
    into the vertex)."""
    opp = BoundQuiver(bq.quiver.opposite(), [], nilbound=bq.nilbound)
    p_op = projective_rep(opp, field, vertex)
    mats = {a.name: p_op.mats[a.name].T for a in bq.quiver.arrows}
    return Representation(bq, field, dict(p_op.dims), mats, check=False)


def random_nonzero(field, rng):
    """A seeded random nonzero scalar of ``field``."""
    while True:
        x = field.random_scalar(rng)
        if x != 0:
            return x


def eval_tensor_morphism(w, f):
    """The tensor functor of the witness ``w`` on a morphism ``f``: the
    rank-fold block diagonal of f, in raw (generator-major) coordinates."""
    r = w.rank
    return Mat.assemble(w.field, r * f.rows, r * f.cols,
                        [(k * f.rows, k * f.cols, f) for k in range(r)])


def reference_relation_jacobian(q, field, rel, mats, dims, offsets, nvars):
    """The entry-by-entry Jacobian of a relation, as a list of rows: every
    occurrence of a varying arrow X in a term c * L X R adds c * L[i, u] * R[v, j]
    at row (i, j) and column offsets[X] + (u, v), row-major.  Reference for
    ``rep.relation_jacobian``, which builds the same matrix from Kronecker
    products."""
    dt, ds = dims[rel.target], dims[rel.source]
    block = [[field.zero] * nvars for _ in range(dt * ds)]
    for coef, path in rel.terms:
        coef = field.coerce(coef)
        word = path.arrows
        for occ, name in enumerate(word):
            if name not in offsets:
                continue
            a = q.arrow(name)
            left = None
            for nm in word[:occ]:
                left = mats[nm] if left is None else left @ mats[nm]
            right = None
            for nm in word[occ + 1:]:
                right = mats[nm] if right is None else right @ mats[nm]
            lt = left if left is not None else Mat.identity(field, dims[a.target])
            rt = right if right is not None else Mat.identity(field, dims[a.source])
            du, dv = dims[a.target], dims[a.source]
            base = offsets[name]
            for i in range(dt):
                for j in range(ds):
                    ridx = i * ds + j
                    for u in range(du):
                        lu = lt.entry(i, u)
                        if lu == 0:
                            continue
                        for v in range(dv):
                            rv = rt.entry(v, j)
                            if rv != 0:
                                block[ridx][base + u * dv + v] = field_add(
                                    field, block[ridx][base + u * dv + v],
                                    field.mul(coef, field.mul(lu, rv)))
    return block


def reference_entry_matrix_on(w, tensor, module):
    """A witness action evaluated at a source module, entry by entry: block
    (i, j) of the result is sum_k A_k[i, j] * act(b_k) for the tensor
    sum_k A_k (x) b_k, where a word acts as the product of the module's x
    and y in word order and a basis path by its path matrix.  Reference for
    the Kronecker form sum_k A_k kron act(b_k) behind ``eval_tensor``.
    A basis path p acts on the total space by its path matrix in rows
    offset(p.target) and columns offset(p.source), zero elsewhere."""
    field, r, n = w.field, w.rank, module.total_dim
    if isinstance(w.source, FreeAlgebra):
        def act(word):
            acc = Mat.identity(field, n)
            for letter in word:
                acc = acc @ module.mats[letter]
            return acc
    else:
        def act(k):
            p = w.source.basis[k]
            block = module.path_matrix(p)
            t, s = module.offset(p.target), module.offset(p.source)
            return Mat(field, n, n, [[block.entry(u - t, v - s)
                                      if 0 <= u - t < block.rows and 0 <= v - s < block.cols
                                      else field.zero for v in range(n)] for u in range(n)])
    rows = [[field.zero] * (r * n) for _ in range(r * n)]
    for key, a in tensor.items():
        m = act(key)
        for i in range(r):
            for j in range(r):
                c = a.entry(i, j)
                for u in range(n):
                    for v in range(n):
                        rows[i * n + u][j * n + v] = field_add(
                            field, rows[i * n + u][j * n + v], field.mul(c, m.entry(u, v)))
    return Mat(field, r * n, r * n, rows)


def reference_relation_rows(bq, field, paths, window, st_cols):
    """Every relation r times every pair (u, v) of enumerated paths, the pairs
    that leave the window dropped only after they are visited: the double
    loop ``quiver._relation_rows`` had before it visited only the pairs that
    fit.  Reference for it; quadratic in the number of paths."""
    prefix, suffix = {}, {}
    for p in paths:
        prefix.setdefault(p.source, []).append(p)
        suffix.setdefault(p.target, []).append(p)
    span_rows = {k: [] for k in st_cols}
    for rel in bq.relations:
        maxlen = rel.max_length()
        for u in prefix.get(rel.target, []):
            for v in suffix.get(rel.source, []):
                if len(u) + maxlen + len(v) > window:
                    continue
                key = (v.source, u.target)
                row = {}
                for coef, term in rel.terms:
                    idx = st_cols[key][u.arrows + term.arrows + v.arrows]
                    row[idx] = row.get(idx, Fraction(0)) + coef
                coerced = {k: field.coerce(c) for k, c in row.items() if c != 0}
                coerced = {k: c for k, c in coerced.items() if c != 0}
                if coerced:
                    span_rows[key].append(coerced)
    return span_rows


def table_product(table, a, b):
    """The product of two elements ``{basis index: scalar}`` of an algebra
    table, zeros dropped, read from its structure constants."""
    f = table.field
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            xy = f.mul(x, y)
            for k, c in table.product_entry(i, j).items():
                out[k] = field_add(f, out.get(k, f.zero), f.mul(xy, c))
    return {k: c for k, c in sorted(out.items()) if c != 0}


def is_associative(table):
    """(ab)c == a(bc) on every triple of basis elements of the table."""
    basis = [{i: table.field.one} for i in range(table.dimension)]
    for a, b in itertools.product(basis, repeat=2):
        ab = table_product(table, a, b)
        for c in basis:
            if table_product(table, ab, c) != table_product(table, a, table_product(table, b, c)):
                return False
    return True


def reference_jordan_nilpotent(s):
    """Jordan basis of a nilpotent matrix, choosing chain heads one candidate
    at a time: a kernel column heads a chain when it raises the rank of the
    columns kept so far.  Reference for ``exactlin.jordan_nilpotent``, which
    reads the same heads off the pivot columns of one echelon form."""
    n = s.rows
    if n == 0:
        return Mat.identity(s.field, 0), []
    field = s.field
    kernels = []
    power = Mat.identity(field, n)
    while True:
        power = power @ s if kernels else s
        ker = power.kernel()
        kernels.append(ker)
        if ker.cols == n:
            break
    m = len(kernels)

    def independent_over(base_cols, cand):
        if not base_cols:
            return not cand.is_zero()
        stacked = Mat.hcat(field, n, base_cols)
        return Mat.hcat(field, n, [stacked, cand]).rank() > stacked.rank()

    chains = []
    for i in range(m, 0, -1):
        ki = kernels[i - 1]
        base = []
        if i >= 2:
            km1 = kernels[i - 2]
            base.extend(km1.submatrix(range(n), [j]) for j in range(km1.cols))
        base.extend(chain[len(chain) - i] for chain in chains if len(chain) > i)
        for j in range(ki.cols):
            if len(base) >= ki.cols:
                break
            cand = ki.submatrix(range(n), [j])
            if independent_over(base, cand):
                chain = [cand]
                for _ in range(i - 1):
                    chain.append(s @ chain[-1])
                chains.append(chain)
                base.append(cand)
    chains.sort(key=len, reverse=True)
    cols = [c for chain in chains for c in reversed(chain)]
    return Mat.hcat(field, n, cols), [len(chain) for chain in chains]


def reference_all_nilpotent(mats):
    """Whether every square ``Mat`` of ``mats`` is nilpotent, each squared
    on its own, whole, until 2^j >= n: x is nilpotent exactly when x^n = 0.
    Reference for ``exactlin._nilpotent_stack``, which squares a whole
    stack at once and stops when it has no inner index."""
    for x in mats:
        power = 1
        while power < x.rows:
            x = x @ x
            power *= 2
        if not x.is_zero():
            return False
    return True


def nilpotency_index(s):
    """Least m with s**m = 0, or None when s is not nilpotent, one power at a
    time.  Reference for ``exactlin.all_nilpotent``, which squares a whole
    stack of combinations at once."""
    if not s.is_square():
        raise ValueError("nilpotency is defined for square matrices")
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


def reference_assemble(field, rows, cols, count, blocks):
    """The ``Span`` of ``count`` ``rows x cols`` matrices, matrix i the sum
    of the blocks ``(r, c, mats[i])`` of ``blocks``, each a list of ``Mat``s
    placed with its top-left entry at (r, c): every block brought to one
    common denominator, the blocks at one place stacked for all matrices
    into one zeroed (count, rows, cols) array, and each matrix read out of
    it.  Reference for ``Span.assemble``, which places the stacks of Spans
    and shares a block that fills the whole matrix."""
    fk = field._kernel
    den = math.lcm(1, *(m._den for _, _, mats in blocks for m in mats))
    out = _zeros(field, (count, rows, cols))
    for r, c, mats in blocks:
        if mats:
            h, w = mats[0].shape
            out[:, r:r + h, c:c + w] = np.stack([m._entries * (den // m._den) for m in mats])
    return Span(field, rows, cols, [Mat(field, rows, cols, fk.exact(x, den)) for x in out])


def reference_totals(hom):
    """The block-diagonal total matrices of ``hom.basis``, the basis mapped
    back to the original coordinates, as one ``Span``.  Reference for
    ``rep.HomSpace.totals``, which places the root Spans of the solving
    frame instead."""
    s, t = hom.source, hom.target
    return reference_assemble(s.field, t.total_dim, s.total_dim, len(hom.basis),
                              [(t.offset(v), s.offset(v), [f[v] for f in hom.basis])
                               for v in s.bound_quiver.quiver.vertices])


def reference_frame_totals(hom):
    """The block-diagonal frame totals of ``hom``, each root's block of
    every element of ``hom.frame`` placed at every vertex of its tree, as
    one ``Span``.  Reference for ``rep.HomSpace.totals``, which places the
    root Spans and shares the stack of a root that fills the whole matrix."""
    s, t, framed = hom.source, hom.target, hom._framed
    return reference_assemble(s.field, t.total_dim, s.total_dim, hom.dim,
                              [(t.offset(v), s.offset(v), [g[r] for g in hom.frame])
                               for v, r in framed.root.items()])


def reference_blocks(m, total):
    """The diagonal blocks of a total matrix of End(M) or Hom(M, N), one per
    vertex of m.  Reference for ``rep.HomSpace.unframe``."""
    out = {}
    for v in m.dims:
        off = m.offset(v)
        idx = list(range(off, off + m.dims[v]))
        out[v] = total.submatrix(idx, idx)
    return out


def reference_are_isomorphic(m, n, trials, seed):
    """``rep.are_isomorphic`` with the trials first and the trace pairing
    second: every search for an invertible combination runs, and the
    pairing is read only after it fails.  Reference for the order that reads
    the pairing first when the characteristic does not divide dim M."""
    if m.dim_vector() != n.dim_vector():
        return IsoVerdict("no", detail="dimension vectors differ")
    if m.is_zero():
        return IsoVerdict("yes", {v: Mat.zeros(m.field, 0, 0) for v in m.dims}, "both zero")
    h_mn, h_nm = hom_space(m, n), hom_space(n, m)
    if h_mn.dim != h_nm.dim:
        return IsoVerdict("no", detail="Hom dimensions differ between directions")
    if h_mn.dim == 0:
        return IsoVerdict("no", detail="Hom(M, N) = 0")
    totals = reference_totals(h_mn)
    got = find_invertible_in_span(totals, trials, seed)
    if got is not None:
        return IsoVerdict("yes", reference_blocks(m, got[1]), "invertible intertwiner found")
    field = m.field
    if (field.coerce(m.total_dim) != field.zero
            and trace_form(totals, reference_totals(h_nm)).is_zero()):
        return IsoVerdict("no", detail="trace pairing vanishes identically")
    return IsoVerdict("inconclusive", detail=f"no invertible combination in {trials} trials")


def span_of(mats):
    """The ``Span`` of a nonempty list of matrices of one shape."""
    return Span(mats[0].field, mats[0].rows, mats[0].cols, mats)


def reference_trace_pairing(lefts, rights):
    """The traces tr(lefts[i] @ rights[j]), one product and one trace per
    pair, as rows.  Reference for ``exactlin.trace_form``; this double loop
    built the Gram matrix of ``rep._natural_trace_radical`` and the pairing
    of ``rep.are_isomorphic``."""
    return [[mat_trace(a @ b) for b in rights] for a in lefts]


def reference_pairing_witness(h_mn, h_nm):
    """The trace-pairing decision of ``rep.are_isomorphic`` as a double
    loop: the first basis index i of Hom(M, N) with some tr(g . f_i) != 0
    whose map is invertible (None when there is none), and whether any
    pairing was nonzero."""
    any_nonzero = False
    for i, f in enumerate(reference_totals(h_mn).mats):
        for g in reference_totals(h_nm).mats:
            if mat_trace(g @ f) != 0:
                any_nonzero = True
                if all(blk.is_invertible() for blk in h_mn.basis[i].values()):
                    return i, True
    return None, any_nonzero


def reference_regular_trace_gram(end):
    """Gram matrix of (a, b) -> tr L(ab) for a ``ReferenceEndAnalysis``, one
    product ab and one regular matrix L(ab) = sum_l (ab)_l regular[l] per
    pair.  Reference for ``ReferenceEndAnalysis.trace_gram`` and for the
    trace form of ``rep._regular_representation``."""
    f, dim = end.field, end.dim
    gram = [[f.zero] * dim for _ in range(dim)]
    units = [[f.one if k == i else f.zero for k in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod = end.multiply(units[i], units[j])
            lm = Mat.lincomb(f, dim, dim, prod,
                             [Mat.from_rows(f, reg) for reg in end.regular])
            gram[i][j] = mat_trace(lm)
    return Mat.from_rows(f, gram)


def reference_kernel(a):
    """The right null space basis that is the identity on the free columns,
    from an echelon form of the whole matrix, zero rows and zero columns
    included.  Reference for ``Mat.kernel``, which eliminates only the
    nonzero rows and columns."""
    fk = a.field._kernel
    w, den, piv = fk.echelon(a._entries)
    pivset = set(piv)
    free = [c for c in range(a.cols) if c not in pivset]
    out = _zeros(a.field, (a.cols, len(free)))
    out[free, range(len(free))] = den
    if piv and free:
        out[piv] = fk.normalize(-_back_substitute(fk, w, piv, w[:len(piv), free]))
    return Mat(a.field, a.cols, len(free), fk.exact(out, den))


def reference_on_support(a):
    """``(sub, cols)``: the submatrix of the array ``a`` on its nonzero rows
    and nonzero columns, and the indices of those columns."""
    nz = a.astype(bool)
    rows, cols = nz.any(axis=1), nz.any(axis=0)
    return a[np.ix_(rows, cols)], np.flatnonzero(cols)


def reference_peel_unit_rows(a, cols):
    """``(rest, rest_cols, peeled)`` for an array ``a`` with no zero row and
    no zero column whose columns sit at ``cols``: rows of weight one are
    taken off with their columns (``peeled``), and then the rows left zero,
    until no row has weight one, one dense mask pass per round."""
    nz = a.astype(bool)
    weight = nz.sum(axis=1)
    rows = np.ones(a.shape[0], dtype=bool)
    keep = np.ones(a.shape[1], dtype=bool)
    unit = weight == 1
    while unit.any():
        hit = nz[unit].any(axis=0) & keep
        weight -= nz[:, hit].sum(axis=1)
        keep &= ~hit
        rows &= weight > 0
        unit = rows & (weight == 1)
    return a[np.ix_(rows, keep)], cols[keep], cols[~keep]


def reference_dense_null_basis(field, a):
    """The null basis of the integer array ``a`` (over F_p entries in
    (-p, p)) by the dense front end: the support, then the weight-one
    cascade on dense masks, then the echelon form of what is left.
    Reference for ``exactlin._null_basis``, which runs the same steps on
    the index triples of the nonzero entries."""
    fk = field._kernel
    width = a.shape[1]
    sub, on = reference_on_support(a)
    rest, rest_cols, peeled = reference_peel_unit_rows(sub, on)
    den, rest_piv = 1, []
    if rest.shape[0]:
        w, den, rest_piv = fk.echelon(rest)
    piv = rest_cols[rest_piv]
    is_free = np.ones(width, dtype=bool)
    is_free[peeled] = False
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    out = _zeros(field, (width, free.size))
    out[free, np.arange(free.size)] = den
    rest_free = np.flatnonzero(is_free[rest_cols])
    if rest_piv and rest_free.size:
        out[np.ix_(piv, np.searchsorted(free, rest_cols[rest_free]))] = fk.normalize(
            -_back_substitute(fk, w, rest_piv, w[:len(rest_piv), rest_free]))
    return Mat._of(field, *_lowest(out, den))


def reference_combination(field, rows, cols, coeffs, mats):
    """``sum c_k * M_k`` as a running sum of scaled matrices."""
    acc = Mat.zeros(field, rows, cols)
    for c, m in zip(coeffs, mats):
        acc = acc + m.scaled(c)
    return acc


def jordan_shift(field, sizes):
    """The nilpotent Jordan matrix with blocks of the given sizes (ones on
    the superdiagonal of each block)."""
    n = sum(sizes)
    rows = [[field.zero] * n for _ in range(n)]
    off = 0
    for a in sizes:
        for k in range(1, a):
            rows[off + k - 1][off + k] = field.one
        off += a
    return Mat(field, n, n, rows)


def reference_nilpotent_hom_basis(s, s_target):
    """Basis of ``{g : g @ s == s_target @ g}`` for nilpotent s, s_target:
    every Jordan-block intertwiner h, a 0/1 matrix built entry by entry, is
    mapped back to the original bases as P_t h P_s^-1, with the Jordan bases
    of ``reference_jordan_nilpotent``.  Reference for
    ``exactlin.nilpotent_hom_basis``, which solves in Jordan coordinates
    and maps back only the final basis."""
    field = s.field
    p_src, sizes_src = reference_jordan_nilpotent(s)
    p_tgt, sizes_tgt = reference_jordan_nilpotent(s_target)
    p_src_inv = p_src.inverse()
    n_src, n_tgt = s.rows, s_target.rows
    out = []
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


def intertwiner_system(params, pairs):
    """Linear conditions on x for ``g = sum x_c * g_c`` to intertwine every pair.

    Column c stacks, pair by pair, the row-major entries of
    ``g_c @ s - s2 @ g_c`` for the pairs ``(s, s2)``, so the kernel of the
    result holds the coefficients of every g with ``g @ s == s2 @ g``.
    ``params`` and ``pairs`` are nonempty.
    """
    field = params[0].field
    e, d = params[0].shape
    return Mat.hcat(field, len(pairs) * e * d, [
        Mat.vcat(field, 1, [(g @ s - s2 @ g).reshape(e * d, 1) for s, s2 in pairs])
        for g in params])


def reference_hom_pencil(field, e_dim, d_dim, pairs):
    """Solutions g (e x d) of g S_k = S'_k g, each basis element built from
    its own kernel column by a running sum, over matrix units when no pair
    is nilpotent, else over ``reference_nilpotent_hom_basis`` of the first
    nilpotent pair.  Reference for ``rep.hom_space`` on the one-vertex
    modules with M(a_k) = S_k and N(a_k) = S'_k, which solves the
    Kronecker system of I ⊗ S_k^T - S'_k ⊗ I and reshapes its kernel
    columns, or else the pencil in Jordan coordinates with
    ``exactlin.nilpotent_hom_basis``."""
    nil_idx = None
    for i, (s, sp) in enumerate(pairs):
        if nilpotency_index(s) is not None and nilpotency_index(sp) is not None:
            nil_idx = i
            break
    if nil_idx is None:
        params = [Mat.unit(field, e_dim, d_dim, i, j)
                  for i in range(e_dim) for j in range(d_dim)]
        rest = pairs
    else:
        s, sp = pairs[nil_idx]
        params = reference_nilpotent_hom_basis(s, sp)
        rest = [p for i, p in enumerate(pairs) if i != nil_idx]
    if not params:
        return []
    if not rest:
        return params
    ker = intertwiner_system(params, rest).kernel()
    return [reference_combination(field, e_dim, d_dim,
                                  [ker.entry(i, j) for i in range(ker.rows)], params)
            for j in range(ker.cols)]


def reference_is_indecomposable(m, seed, trials=32):
    """The indecomposability test with the seeded split search first: all
    ``trials`` draws run before the trace radical is computed, also when
    End(M) is local.  Reference for ``rep.is_indecomposable``, which
    certifies locality before drawing a trial."""
    if m.is_zero():
        return IndecVerdict("no", None, "zero module (decomposes to the empty sum)")
    field = m.field
    hom = hom_space(m, m)
    if hom.dim == 1:
        return IndecVerdict("yes", detail="End is one-dimensional")
    totals = reference_totals(hom)
    rng = random.Random(f"indec:{seed}")
    extension_seen = False
    for _ in range(trials):
        coords = [field.random_scalar(rng) for _ in range(hom.dim)]
        phi = totals.combine(Mat.column(field, coords))[0]
        factors = factor_polynomial(field, phi.minimal_polynomial())
        if len(factors) >= 2:
            e = _idempotent_matrix_from_minpoly(field, factors, phi)
            if e is not None:
                return IndecVerdict("no", reference_blocks(m, e),
                                    "idempotent from a split minimal polynomial")
        elif factors and len(factors[0][0]) > 2:
            extension_seen = True
    rad = reference_natural_trace_radical(m, totals)
    if rad is None:
        if field.char == 0 or field.char > hom.dim:
            rad = ReferenceEndAnalysis(m).radical_coords()
        if rad is None:
            return IndecVerdict("inconclusive", None,
                                "radical not certifiable over this field")
    codim = hom.dim - len(rad)
    if codim == 1:
        return IndecVerdict("yes", detail="End local: dim End/rad = 1")
    detail = ("End/rad is a division ring larger than the ground field"
              if extension_seen else
              f"no idempotent found; dim End/rad = {codim}")
    return IndecVerdict("inconclusive", None, detail)


# -- the coprime split by hand ----------------------------------------------
#
# Reference for ``rep._idempotent_matrix_from_minpoly``, and for exactlin's
# polynomial product, division and extended gcd: the same split with the
# products and the plain extended Euclidean algorithm written out on
# ascending field coefficients, one field operation at a time.

def _reference_poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _reference_poly_divmod(field, a, b):
    a = list(a)
    b = _reference_poly_trim(list(b))
    inv = field.inv(b[-1])
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _reference_poly_trim(a):
        a = _reference_poly_trim(a)
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = field.mul(a[-1], inv)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = field.sub(a[k + i], field.mul(c, bc))
        a = a[:-1]
    return q, _reference_poly_trim(a)


def _reference_poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field_add(field, out[i + j], field.mul(x, y))
    return out


def _reference_poly_sub(field, a, b):
    n = max(len(a), len(b))
    return _reference_poly_trim([field.sub(a[i] if i < len(a) else field.zero,
                                           b[i] if i < len(b) else field.zero)
                                 for i in range(n)])


def _reference_poly_gcdext(field, a, b):
    """(g, u, v) with u a + v b = g, g monic."""
    r0, r1 = _reference_poly_trim(list(a)), _reference_poly_trim(list(b))
    u0, u1 = [field.one], []
    v0, v1 = [], [field.one]
    while r1:
        q, r = _reference_poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _reference_poly_sub(field, u0, _reference_poly_mul(field, q, u1))
        v0, v1 = v1, _reference_poly_sub(field, v0, _reference_poly_mul(field, q, v1))
    if r0:
        inv = field.inv(r0[-1])
        r0, u0, v0 = ([field.mul(inv, c) for c in p] for p in (r0, u0, v0))
    return r0, u0, v0


def reference_idempotent_from_minpoly(field, factors, phi_total):
    """e = v g(phi) for u f^m + v g = 1, f^m the first factor's power and g
    the product of the others; None unless e is a nontrivial idempotent."""
    fac0, mult0 = factors[0]
    f_part = [field.one]
    for _ in range(mult0):
        f_part = _reference_poly_mul(field, f_part, fac0)
    g_part = [field.one]
    for fac, mult in factors[1:]:
        for _ in range(mult):
            g_part = _reference_poly_mul(field, g_part, fac)
    g, _, v = _reference_poly_gcdext(field, f_part, g_part)
    if len(g) != 1:
        return None
    e = _poly_eval_matrix(field, _reference_poly_mul(field, v, g_part), phi_total)
    n = phi_total.rows
    if e @ e == e and not e.is_zero() and e != Mat.identity(field, n):
        return e
    return None


# -- the radical of End(M) behind characteristic gates -------------------------
#
# References for ``rep.end_radical``: the module trace form, run only when the
# characteristic is 0 or exceeds dim M, then the regular trace form from
# structure constants, run only when it exceeds dim End, with the radical
# certified by multiplying it out until the products vanish.

def _reference_independent_rows(field, rows):
    """The rows each independent of the rows before them."""
    if not rows:
        return []
    return [list(rows[k]) for k in Mat.from_rows(field, rows).T.pivot_columns()]


class ReferenceEndAnalysis:
    """Structure constants and radical of End(M): ``regular[i]`` holds, as
    rows, the matrix of left multiplication by basis element i."""

    def __init__(self, m):
        field, basis = m.field, hom_space(m, m).basis
        self.field, self.dim = field, len(basis)
        self.regular = []
        if not basis:
            return
        flat_len = sum(d * d for d in m.dims.values())
        flat = Mat.hcat(field, flat_len, [flatten_morphism(field, f) for f in basis])
        rhs = Mat.hcat(field, flat_len, [flatten_morphism(field, morphism_compose(f, g))
                                         for f in basis for g in basis])
        rows = flat.solve_matrix(rhs).row_list()
        d = self.dim
        self.regular = [[row[i * d:(i + 1) * d] for row in rows] for i in range(d)]

    def multiply(self, a, b):
        f = self.field
        out = [f.zero] * self.dim
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            reg = self.regular[i]
            for k in range(self.dim):
                acc = out[k]
                row = reg[k]
                for j, bj in enumerate(b):
                    if bj != 0 and row[j] != 0:
                        acc = field_add(f, acc, f.mul(ai, f.mul(row[j], bj)))
                out[k] = acc
        return out

    def trace_gram(self):
        """Gram matrix of (a, b) -> tr(regular[a] @ regular[b])."""
        regs = [Mat.from_rows(self.field, reg) for reg in self.regular]
        return Mat.from_rows(self.field, reference_trace_pairing(regs, regs))

    def radical_coords(self):
        """Radical basis via the regular trace form; None when the
        characteristic is too small to certify it."""
        f = self.field
        if f.char and f.char <= self.dim:
            return None
        rad = self.trace_gram().kernel().T.row_list()
        # certify nilpotency of the span (iterate products until zero)
        span = [list(r) for r in rad]
        steps = 0
        while span and steps <= self.dim:
            nxt = [self.multiply(a, b) for a in span for b in rad]
            span = _reference_independent_rows(f, nxt)
            steps += 1
        return None if span else rad


def reference_natural_trace_radical(m, totals):
    """Radical coordinates of End(M) via the trace form on the module, when
    the characteristic is zero or exceeds dim M; each radical element is
    certified nilpotent."""
    field = m.field
    if field.char and field.char <= m.total_dim:
        return None
    ker = Mat.from_rows(field, reference_trace_pairing(totals.mats, totals.mats)).kernel()
    if any(nilpotency_index(phi) is None for phi in totals.combine(ker)):
        return None
    return ker.T.row_list()


def reference_end_radical(m):
    """The radical as ``rep.end_radical`` returns it, coefficient columns,
    from the gated module route and then the gated regular route; None when
    neither gate lets a route certify it."""
    field = m.field
    hom = hom_space(m, m)
    totals = reference_totals(hom)
    rad = reference_natural_trace_radical(m, totals)
    if rad is None and (field.char == 0 or field.char > hom.dim):
        rad = ReferenceEndAnalysis(m).radical_coords()
    if rad is None:
        return None
    return Mat.hcat(field, hom.dim, [Mat.column(field, r) for r in rad])


def reference_in_sincere_subcategory(m, seed):
    """Sincerity from the complete ``rep.decompose``, summands grouped by
    isomorphism.  Reference for ``rep.in_sincere_subcategory``, which stops
    at the first piece with a smaller support and groups nothing."""
    if m.is_zero():
        return True
    all_vertices = set(m.bound_quiver.quiver.vertices)
    dec = decompose(m, seed)
    for rep, _ in dec:
        if support(rep) != all_vertices:
            return False
    if not dec.certified:
        raise InconclusiveError("decomposition not certified; sincerity undecided")
    return True


def reference_find_invertible_in_span(basis, trials, seed):
    """The invertible-combination search one candidate at a time: each unit
    vector, then the all-ones vector, then ``trials`` seeded draws, each
    combined by a running sum.  Reference for
    ``exactlin.find_invertible_in_span``, which reuses the basis elements
    and draws every later candidate from one stacked ``Span``."""
    basis = list(basis)
    if not basis:
        return None
    field = basis[0].field
    n = basis[0].rows
    if n == 0:
        return [field.zero] * len(basis), basis[0]

    def check(coeffs):
        combo = reference_combination(field, n, n, coeffs, basis)
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


def reference_echelon_qq(rows):
    """Reduced echelon over the rationals with a ``Fraction`` operation per
    entry: the pivot row is scaled by the inverse of its pivot and every
    other row loses the multiple that clears the pivot column.  Returns
    (rows, pivot columns).  Reference for ``exactlin._echelon_qq``, which
    eliminates on integer rows and builds the ``Fraction`` entries once."""
    w = [list(r) for r in rows]
    m = len(w)
    n = len(w[0]) if m else 0
    piv = []
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


def reference_matmul_qq(a, b):
    """The product of two 2-D arrays of ``Fraction`` entries as a list of
    rows, summing ``Fraction`` products and skipping zero entries.
    Reference for the rational kernel's product, which multiplies integer
    matrices over a common denominator and divides each entry once."""
    cols = b.shape[1]
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
    out = []
    for row in a.tolist():
        acc = [Fraction(0)] * cols
        for x, terms in zip(row, nonzero):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(acc)
    return out


def reference_echelon_fp(rows, p, reduced=False):
    """Row echelon form mod p of integer rows, one Python-int operation per
    entry: the pivot of each column is its first nonzero entry at or below
    the current row, swapped up and scaled to one, and every row below (and
    with ``reduced`` every row above too) loses the multiple that clears the
    pivot column.  Returns (rows, pivot columns).  Reference for
    ``exactlin._echelon_fp``, whose float64 arithmetic must be exact for
    every prime below ``Field.prime``'s cap."""
    w = [[x % p for x in row] for row in rows]
    m = len(w)
    n = len(w[0]) if m else 0
    piv = []
    for c in range(n):
        r = len(piv)
        if r >= m:
            break
        sel = next((i for i in range(r, m) if w[i][c]), None)
        if sel is None:
            continue
        w[r], w[sel] = w[sel], w[r]
        inv = pow(w[r][c], -1, p)
        w[r] = [x * inv % p for x in w[r]]
        for i in range(0 if reduced else r + 1, m):
            f = w[i][c]
            if f and i != r:
                w[i] = [(x - f * y) % p for x, y in zip(w[i], w[r])]
        piv.append(c)
    return w, piv


def reference_matmul_fp(a, b, p):
    """The product mod p of two integer matrices given as lists of rows,
    summed on Python ints and reduced once."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def reference_hom_space(m, n):
    """All intertwiners m -> n from one kernel: the unknowns are every f_v,
    row-major, in vertex order, and arrow a contributes the rows of
    vec(f_t M(a) - N(a) f_s) = (I ⊗ M(a)^T) vec(f_t) - (N(a) ⊗ I) vec(f_s),
    built with ``Mat.kron``.  No arrow is contracted and nothing is cached.
    Reference for ``rep.hom_space``; returns the basis as {vertex: Mat}."""
    field = m.field
    q = m.bound_quiver.quiver
    offsets, nvars = {}, 0
    for v in q.vertices:
        offsets[v] = nvars
        nvars += n.dims[v] * m.dims[v]
    blocks, nrows = [], 0
    for a in q.arrows:
        s, t = a.source, a.target
        blocks.append((nrows, offsets[t],
                       Mat.identity(field, n.dims[t]).kron(m.mats[a.name].T)))
        blocks.append((nrows, offsets[s],
                       -n.mats[a.name].kron(Mat.identity(field, m.dims[s]))))
        nrows += n.dims[t] * m.dims[s]
    ker = Mat.assemble(field, nrows, nvars, blocks).kernel()
    return [{v: ker.submatrix(range(offsets[v], offsets[v] + n.dims[v] * m.dims[v]), [j])
             .reshape(n.dims[v], m.dims[v]) for v in q.vertices}
            for j in range(ker.cols)]


def certify_images(seed="certify-pencils", field=F101):
    """The images of two random 1-dimensional modules under the witness that
    ``covering_criterion`` finds for ``three_loop_rad2`` at radius 2, as in
    the benchmark's certify round (over F101): 28-dimensional one-vertex
    modules whose loops are nilpotent of Jordan type J_2^14."""
    spec = parse_quiver_spec(fixture_text("three_loop_rad2.quiver"))
    cert, _ = covering_criterion(spec.covering, 2, field=field, seed=seed)
    rng = random.Random(seed)
    return [eval_tensor(cert.bimodule, FreeAlgModule(Mat.random(field, 1, 1, rng),
                                                     Mat.random(field, 1, 1, rng)))
            for _ in range(2)]


def k3_witness_image(k3_table, dim, seed="k3-pencils"):
    """The image of a random ``dim``-dimensional module under the rank-28
    sincere K3 witness over the table's field whose dimension is the full
    28 * dim."""
    w = sincere_witness_for_K3(k3_table)
    field = k3_table.field
    rng = random.Random(f"{seed}:{dim}")
    while True:
        v = FreeAlgModule(Mat.random(field, dim, dim, rng), Mat.random(field, dim, dim, rng))
        img = eval_tensor(w, v)
        if img.total_dim == 28 * dim:
            return img


def fresh_copy(m):
    """m with every matrix rebuilt from its entries: equal to m, sharing no
    ``Mat`` object and so no cached hash, Jordan frame, side or Hom basis."""
    return Representation(m.bound_quiver, m.field, m.dims,
                          {a: Mat.from_rows(m.field, x.row_list()) if x.rows and x.cols
                           else Mat.zeros(m.field, x.rows, x.cols) for a, x in m.mats.items()},
                          check=False)


def reference_check_preservation(sources, images, seed, pair_stream, max_pairs):
    """``wildness.check_preservation`` rebuilt from its docstring: the
    indecomposability checks with ``reference_is_indecomposable`` and the
    isomorphism checks with ``reference_are_isomorphic``, on a pair stream
    of its own.  Returns both counts, the sorted pairs and the seed of every
    verdict drawn, in sorted order."""
    seeds = []

    def indecomposable(m, s):
        seeds.append(s)
        return reference_is_indecomposable(m, s).verdict

    def isomorphic(m, n, s):
        seeds.append(s)
        return reference_are_isomorphic(m, n, DEFAULT_TRIALS, s).verdict

    indec = CheckCounts()
    for i in range(len(sources)):
        if indecomposable(sources[i], f"{seed}:in:{i}") == "yes":
            out = indecomposable(images[i], f"{seed}:out:{i}")
            indec.record(None if out == "inconclusive" else out == "yes")
    stream = list(itertools.combinations(range(len(sources)), 2))
    random.Random(f"{pair_stream}:{seed}").shuffle(stream)
    pairs = sorted(stream[:max_pairs])
    iso = CheckCounts()
    for i, j in pairs:
        got = {isomorphic(sources[i], sources[j], f"{seed}:pin:{i}:{j}"),
               isomorphic(images[i], images[j], f"{seed}:pout:{i}:{j}")}
        iso.record(None if "inconclusive" in got else len(got) == 1)
    return indec, iso, pairs, sorted(seeds)


def reference_target_side(m, contracted):
    """m's half of the contracted Hom equations as a target, built alone:
    the arrows named in ``contracted`` are contracted in order, each folding
    the tree of its target's root onto its source's root, A_w <- A_w P'(a)
    for each moved vertex w, with P'(a) = A_t^-1 M(a) A_s and A_t inverted
    afresh each time.  Returns the transforms A_v of folded vertices and
    P'(a) for every other arrow.  Reference for ``rep._Side``, which keeps
    one side for both roles and never inverts a transform."""
    q = m.bound_quiver.quiver
    root = {v: v for v in q.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tf = {}

    def transform(v):
        return tf.get(v, Mat.identity(m.field, m.dims[v]))

    def pencil(a):
        return transform(a.target).inverse() @ m.mats[a.name] @ transform(a.source)

    for name in contracted:
        a = q.arrow(name)
        r1, r2 = find(a.source), find(a.target)
        x = pencil(a)
        for w in [w for w in q.vertices if find(w) == r2]:
            tf[w] = transform(w) @ x
        root[r2] = r1
    return tf, {a.name: pencil(a) for a in q.arrows if a.name not in contracted}


# -- projective presentations, Ext^1 and tau^-, entry by entry ----------------
#
# References for ``tilting.projective_presentation``,
# ``ext1_dim_via_presentation`` and ``ar_translate_inverse``, which put
# every projective sum on one (slot, path) basis and build each map with one
# product per vertex.  Here each projective is built on its own and summed,
# each map is filled cell by cell, and every lookup enumerates the paths again.

def _reference_sorted_paths(q, source, target):
    maxlen = len(q.vertices) + 1
    plist = [p for p in _enumerate_paths(q, maxlen) if p.source == source and p.target == target]
    plist.sort(key=lambda p: (len(p), p.arrows))
    return plist


def reference_projective_rep(bq, field, vertex):
    """The projective at a vertex: basis all paths from the vertex."""
    q = bq.quiver
    by_vertex = {v: _reference_sorted_paths(q, vertex, v) for v in q.vertices}
    index = {}
    for v, plist in by_vertex.items():
        for i, p in enumerate(plist):
            index[(p.target, p.arrows)] = i
    dims = {v: len(by_vertex[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        rows = [[field.zero] * dims[a.source] for _ in range(dims[a.target])]
        for j, p in enumerate(by_vertex[a.source]):
            rows[index[(a.target, (a.name,) + p.arrows)]][j] = field.one
        mats[a.name] = Mat.from_rows(field, rows) if dims[a.target] and dims[a.source] \
            else Mat.zeros(field, dims[a.target], dims[a.source])
    return Representation(bq, field, dims, mats, check=False)


def _reference_projective_sum(bq, field, mults):
    """The sum of projectives with multiplicities, by chained direct sums;
    returns (module, slots)."""
    reps, slots = [], []
    for v in bq.quiver.vertices:
        for c in range(mults.get(v, 0)):
            reps.append(reference_projective_rep(bq, field, v))
            slots.append((v, c))
    if not reps:
        return zero_rep(bq, field), []
    total = reps[0]
    for r in reps[1:]:
        total = direct_sum(total, r)
    return total, slots


def _reference_morphism_from_generators(bq, field, p_sum, slots, target, generator_images):
    """The morphism out of a projective sum with the given generator
    images, cell by cell."""
    q = bq.quiver
    out = {}
    for t in q.vertices:
        col_entries = [[field.zero] * p_sum.dims[t] for _ in range(target.dims[t])]
        base = 0
        for idx, (v, c) in enumerate(slots):
            plist = _reference_sorted_paths(q, v, t)
            for k, p in enumerate(plist):
                img = target.path_matrix(p) @ generator_images[idx]
                for i in range(target.dims[t]):
                    col_entries[i][base + k] = img.entry(i, 0)
            base += len(plist)
        out[t] = Mat.from_rows(field, col_entries) if target.dims[t] and p_sum.dims[t] \
            else Mat.zeros(field, target.dims[t], p_sum.dims[t])
    return out


def _reference_slot_offsets(bq, slots):
    """Column index of each slot's generator inside its vertex space."""
    q = bq.quiver
    off_by_vertex = {v: 0 for v in q.vertices}
    offs = []
    for (v, c) in slots:
        offs.append(off_by_vertex[v])
        for t in q.vertices:
            off_by_vertex[t] += len(_reference_sorted_paths(q, v, t))
    return offs


def _reference_cover(m, p_sum, slots, tops):
    images = [tops[v].submatrix(range(tops[v].rows), [c]) for v, c in slots]
    return _reference_morphism_from_generators(m.bound_quiver, m.field, p_sum, slots, m, images)


def reference_projective_presentation(m):
    """The minimal projective presentation as (p0_mults, p1_mults, P0, P1,
    phi), with P0 and P1 modules and phi the map P1 -> P0 per vertex."""
    bq, field = m.bound_quiver, m.field
    tops = _top_lift_basis(m)
    p0_mults = {v: tops[v].cols for v in bq.quiver.vertices}
    p0, slots0 = _reference_projective_sum(bq, field, p0_mults)
    eps = _reference_cover(m, p0, slots0, tops)
    ker_basis = {v: eps[v].kernel() for v in bq.quiver.vertices}
    ker_mats = {}
    for a in bq.quiver.arrows:
        ker_mats[a.name] = ker_basis[a.target].solve_matrix(
            p0.mats[a.name] @ ker_basis[a.source])
    kernel = Representation(bq, field, {v: ker_basis[v].cols for v in bq.quiver.vertices},
                            ker_mats, check=False)
    tops_k = _top_lift_basis(kernel)
    p1_mults = {v: tops_k[v].cols for v in bq.quiver.vertices}
    p1, slots1 = _reference_projective_sum(bq, field, p1_mults)
    assert p1.total_dim == kernel.total_dim
    cover1 = _reference_cover(kernel, p1, slots1, tops_k)
    phi = {v: ker_basis[v] @ cover1[v] for v in bq.quiver.vertices}
    return p0_mults, p1_mults, p0, p1, phi


def reference_ext1_dim_via_presentation(m, n):
    """dim Ext^1(M, N) as the cokernel of Hom(P0, N) -> Hom(P1, N), the map
    built column by column from one morphism per unit generator image."""
    p0_mults, p1_mults, p0, p1, phi = reference_projective_presentation(m)
    bq, field = m.bound_quiver, m.field
    _, slots0 = _reference_projective_sum(bq, field, p0_mults)
    _, slots1 = _reference_projective_sum(bq, field, p1_mults)
    hom_p1 = sum(n.dims[v] for v, _ in slots1)
    if hom_p1 == 0:
        return 0
    offs = _reference_slot_offsets(bq, slots1)
    cols = []
    for j0, (v0, c0) in enumerate(slots0):
        for b in range(n.dims[v0]):
            gen_images = [Mat.unit(field, n.dims[v0], 1, b, 0) if j == j0
                          else Mat.zeros(field, n.dims[v], 1)
                          for j, (v, c) in enumerate(slots0)]
            g = _reference_morphism_from_generators(bq, field, p0, slots0, n, gen_images)
            vals = []
            for j1, (v1, c1) in enumerate(slots1):
                gen_col = Mat.unit(field, p1.dims[v1], 1, offs[j1], 0)
                img = g[v1] @ (phi[v1] @ gen_col)
                vals.extend(img.entry(i, 0) for i in range(n.dims[v1]))
            cols.append(vals)
    mat = Mat.from_rows(field, [[cols[j][i] for j in range(len(cols))]
                                for i in range(hom_p1)]) if cols else \
        Mat.zeros(field, hom_p1, 0)
    return hom_p1 - mat.rank()


def _reference_decode(bq, slots, vertex, col):
    """A column of a projective sum at a vertex as (slot, (coef, path))."""
    out = []
    idx = 0
    for j, (v, c) in enumerate(slots):
        for p in _reference_sorted_paths(bq.quiver, v, vertex):
            coef = col.entry(idx, 0)
            if coef != 0:
                out.append((j, (coef, p)))
            idx += 1
    return out


def _reference_path_on_generator(bq, field, p_sum, slots, slot_idx, path):
    """The basis column of path . (slot generator) inside the projective sum."""
    idx = 0
    for j, (v, c) in enumerate(slots):
        plist = _reference_sorted_paths(bq.quiver, v, path.target)
        if j == slot_idx:
            k = [p.arrows for p in plist].index(path.arrows)
            return Mat.unit(field, p_sum.dims[path.target], 1, idx + k, 0)
        idx += len(plist)
    raise ValueError("slot not found")


def _reference_complement_units(col):
    """The j whose unit vectors extend the columns of ``col`` to a basis:
    the pivot columns of [col | I] past col."""
    ident = Mat.identity(col.field, col.rows)
    return [p - col.cols for p in Mat.hcat(col.field, col.rows, [col, ident]).pivot_columns()
            if p >= col.cols]


def reference_ar_translate_inverse(m):
    """tau^- M as the cokernel of the transposed presentation of the dual,
    each transposed entry decoded, reversed and placed one at a time, and
    each cokernel arrow solved one column at a time."""
    bq, field = m.bound_quiver, m.field
    if m.is_zero():
        raise ValueError("tau^- of the zero module is undefined")
    for v in bq.quiver.vertices:
        inj = injective_rep(bq, field, v)
        if inj.dim_vector() == m.dim_vector():
            if are_isomorphic(m, inj, seed="tau-inj").verdict == "yes":
                raise ValueError("tau^- is undefined on injective modules")
    opp = BoundQuiver(bq.quiver.opposite(), [], nilbound=bq.nilbound)
    p0_mults, p1_mults, _, p1_opp, phi = reference_projective_presentation(_dual_rep(m, opp))
    p0_back, slots0 = _reference_projective_sum(bq, field, p0_mults)
    p1_back, slots1 = _reference_projective_sum(bq, field, p1_mults)
    offs1 = _reference_slot_offsets(opp, slots1)
    gen_images = []
    for j0, (v0, c0) in enumerate(slots0):
        col_entries = [field.zero] * p1_back.dims[v0]
        for j1, (v1, c1) in enumerate(slots1):
            img = phi[v1] @ Mat.unit(field, p1_opp.dims[v1], 1, offs1[j1], 0)
            for jj0, (coef, opp_path) in _reference_decode(opp, slots0, v1, img):
                if jj0 != j0:
                    continue
                word = tuple(reversed(opp_path.arrows))
                orig = bq.quiver.path(word) if word else bq.quiver.trivial_path(v1)
                vec = _reference_path_on_generator(bq, field, p1_back, slots1, j1, orig)
                col_entries = [field_add(field, a, field.mul(coef, vec.entry(i, 0)))
                               for i, a in enumerate(col_entries)]
        gen_images.append(Mat.from_rows(field, [[x] for x in col_entries])
                          if p1_back.dims[v0] else Mat.zeros(field, 0, 1))
    psi = _reference_morphism_from_generators(bq, field, p0_back, slots0, p1_back, gen_images)
    dims, proj = {}, {}
    for v in bq.quiver.vertices:
        col = psi[v].column_space()
        d = p1_back.dims[v]
        comp_cols = _reference_complement_units(col)
        cur = Mat.hcat(field, d, [col, Mat.identity(field, d).submatrix(range(d), comp_cols)])
        dims[v] = len(comp_cols)
        proj[v] = (cur, col.cols, comp_cols)
    mats = {}
    for a in bq.quiver.arrows:
        s, t = a.source, a.target
        basis_t, rad_t, comp_t = proj[t]
        rows = [[field.zero] * dims[s] for _ in range(dims[t])]
        for jj, j in enumerate(proj[s][2]):
            x = p1_back.mats[a.name] @ Mat.unit(field, p1_back.dims[s], 1, j, 0)
            coords = basis_t.solve(x)
            for ii in range(len(comp_t)):
                rows[ii][jj] = coords.entry(rad_t + ii, 0)
        mats[a.name] = Mat.from_rows(field, rows) if dims[t] and dims[s] \
            else Mat.zeros(field, dims[t], dims[s])
    return Representation(bq, field, dims, mats, check=False)



@dataclass
class CartanData:
    """Cartan matrix (columns are projective dimension vectors), the Coxeter
    matrix and its inverse, exact over Q, in the row-vector convention
    d -> d * Phi."""

    quiver: Quiver
    cartan: Mat                 # C[j][i] = number of paths i -> j
    coxeter: Mat                # Phi = -C^{-T} C, row-vector action
    coxeter_inv: Mat

    def apply_coxeter_inverse(self, d: Sequence[int]) -> tuple[int, ...]:
        (image,) = (Mat.from_rows(QQ, [list(d)]) @ self.coxeter_inv).row_list()
        if any(x.denominator != 1 for x in image):
            raise ValueError("Coxeter image is not integral")
        return tuple(int(x) for x in image)


def cartan_coxeter(q):
    """Exact Cartan/Coxeter matrices of an acyclic quiver; a quiver with an
    oriented cycle raises ``CyclicQuiverError``.  Reference for the
    dimension vectors of the AR translates in the tilting tests.

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

@pytest.fixture(scope="session")
def f101():
    return F101


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def a2_bq():
    return BoundQuiver(line_quiver(2), [], nilbound=2)


@pytest.fixture(scope="session")
def k2_bq():
    return BoundQuiver(kronecker_quiver(2), [], nilbound=2)


@pytest.fixture(scope="session")
def k3_bq():
    return k3_bound_quiver()


@pytest.fixture(scope="session")
def k3_table(k3_bq):
    return build_algebra_table(k3_bq, F101)


@pytest.fixture(scope="session")
def dual_numbers_bq():
    q = loop_quiver(1)
    return BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))])], nilbound=2)


@pytest.fixture(scope="session")
def three_loop_bq():
    return loop_square_zero(3)


@pytest.fixture(scope="session")
def free_bq():
    return BoundQuiver(loop_quiver(2), [], nilbound=3)


def search_concealed(bq, field, depth):
    """Bounded search for preprojective tilting modules with a projective
    summand over a minimal wild hereditary quiver: each with its
    endomorphism-algebra presentation, ``(candidate, bound quiver, table)``.
    Not exhaustive beyond the depth."""
    if not is_minimal_wild_hereditary(bq.quiver):
        raise ValueError("search requires a minimal wild hereditary quiver")
    pool = enumerate_preprojectives(bq, field, depth)
    return [(cand, *endomorphism_algebra(cand))
            for cand in tilting_candidates(pool, len(bq.quiver.vertices))]


def reference_end_presentation(candidate):
    """The bound quiver of ``tilting.endomorphism_algebra`` for a tilting
    candidate, with the nilpotency degree of rad End(T) found by composing
    unreduced spanning lists of radical maps, rad^(m+1) = rad * rad^m, until
    a power is zero, and each path evaluated by composing its arrows' maps.
    Reference for reading the degree and the relations off one evaluation
    of the arrow paths by length."""
    reps = candidate.reps()
    field = reps[0].field
    n = len(reps)
    homs = {(i, j): hom_space(reps[j], reps[i]) for i in range(n) for j in range(n)}

    # radical blocks: off-diagonal blocks entirely; diagonal blocks are the
    # radicals of the local rings End(T_i)
    rad_basis = {}
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
    arrow_maps = {}
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
        nxt = {key: [] for key in cur_layer}
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
    by_st = {}
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

    return BoundQuiver(quiver, relations, nilbound=max(2, nilpotency))
