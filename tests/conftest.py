import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wildrank.exactlin import (Field, F101, Mat, QQ, Span, intertwiner_system,
                               nilpotency_index, nilpotent_hom_basis, _back_substitute, _zeros)
from wildrank.rep import (EndAnalysis, IndecVerdict, _blocks_from_total,
                          _idempotent_matrix_from_minpoly, _natural_trace_radical,
                          factor_polynomial, hom_space)
from wildrank.quiver import (BoundQuiver, Quiver, build_algebra_table,
                             k3_bound_quiver, kronecker_quiver, line_quiver,
                             loop_quiver, loop_square_zero, make_relation)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXDIR, name)) as fh:
        return fh.read()


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
                                block[ridx][base + u * dv + v] = field.add(
                                    block[ridx][base + u * dv + v],
                                    field.mul(coef, field.mul(lu, rv)))
    return block


def reference_entry_matrix_on(w, tensor, module):
    """A witness action evaluated at a source module, entry by entry: block
    (i, j) of the result is sum_k A_k[i, j] * act(b_k) for the tensor
    sum_k A_k (x) b_k, where a word acts as the product of the module's x
    and y in word order and a basis path by its path matrix.  Reference for
    the Kronecker form sum_k A_k kron act(b_k) behind ``eval_tensor``."""
    field, r = w.field, w.rank
    if hasattr(module, "x"):
        n = module.dim

        def act(word):
            acc = Mat.identity(field, n)
            for letter in word:
                acc = acc @ (module.x if letter == "x" else module.y)
            return acc
    else:
        n = module.total_dim

        def act(k):
            return module.element_action(w.source.basis_element(k))
    rows = [[field.zero] * (r * n) for _ in range(r * n)]
    for key, a in tensor.items():
        m = act(key)
        for i in range(r):
            for j in range(r):
                c = a.entry(i, j)
                for u in range(n):
                    for v in range(n):
                        rows[i * n + u][j * n + v] = field.add(
                            rows[i * n + u][j * n + v], field.mul(c, m.entry(u, v)))
    return Mat(field, r * n, r * n, rows)


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
        return stacked.hstack(cand).rank() > stacked.rank()

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


def reference_trace_pairing(lefts, rights):
    """The traces tr(lefts[i] @ rights[j]), one product and one trace per
    pair, as rows.  Reference for ``exactlin.trace_form``; this double loop
    built the Gram matrix of ``rep._natural_trace_radical`` and the pairing
    of ``rep.are_isomorphic``."""
    return [[(a @ b).trace() for b in rights] for a in lefts]


def reference_pairing_witness(h_mn, h_nm):
    """The trace-pairing decision of ``rep.are_isomorphic`` as a double
    loop: the first basis index i of Hom(M, N) with some tr(g . f_i) != 0
    whose map is invertible (None when there is none), and whether any
    pairing was nonzero."""
    any_nonzero = False
    for i, f in enumerate(h_mn.total_matrices()):
        for g in h_nm.total_matrices():
            if (g @ f).trace() != 0:
                any_nonzero = True
                if all(blk.is_invertible() for blk in h_mn.basis[i].values()):
                    return i, True
    return None, any_nonzero


def reference_regular_trace_gram(end):
    """Gram matrix of (a, b) -> tr L(ab) for an ``rep.EndAnalysis``, one
    product ab and one regular matrix L(ab) = sum_l (ab)_l regular[l] per
    pair.  Reference for ``EndAnalysis.trace_gram``."""
    f, dim = end.field, end.dim
    gram = [[f.zero] * dim for _ in range(dim)]
    units = [[f.one if k == i else f.zero for k in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod = end.multiply(units[i], units[j])
            lm = Mat.lincomb(f, dim, dim, prod,
                             [Mat.from_rows(f, reg) for reg in end.regular])
            gram[i][j] = lm.trace()
    return Mat.from_rows(f, gram)


def reference_kernel(a):
    """The right null space basis that is the identity on the free columns,
    from an echelon form of the whole matrix, zero rows and zero columns
    included.  Reference for ``Mat.kernel``, which eliminates only the
    nonzero rows and columns."""
    fk = a.field._kernel
    w, piv = fk.echelon(a._entries)
    pivset = set(piv)
    free = [c for c in range(a.cols) if c not in pivset]
    out = _zeros(a.field, a.cols, len(free))
    out[free, range(len(free))] = a.field.one
    if piv and free:
        out[piv] = fk.normalize(-_back_substitute(fk, w, piv, w[:len(piv), free]))
    return Mat(a.field, a.cols, len(free), out)


def reference_combination(field, rows, cols, coeffs, mats):
    """``sum c_k * M_k`` as a running sum of scaled matrices."""
    acc = Mat.zeros(field, rows, cols)
    for c, m in zip(coeffs, mats):
        acc = acc + m.scaled(c)
    return acc


def reference_hom_pencil(field, e_dim, d_dim, pairs):
    """Solutions g (e x d) of g S_k = S'_k g, each basis element built from
    its own kernel column by a running sum, over matrix units when no pair
    is nilpotent.  Reference for ``rep._hom_pencil``, which then solves the
    Kronecker-sum system I ⊗ S_k^T - S'_k ⊗ I and reshapes its kernel
    columns, and otherwise builds every element with one ``Span`` product."""
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
        params = nilpotent_hom_basis(s, sp)
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
    totals = Span(field, m.total_dim, m.total_dim, hom.total_matrices())
    rng = random.Random(f"indec:{seed}")
    extension_seen = False
    for _ in range(trials):
        coords = [field.random_scalar(rng) for _ in range(hom.dim)]
        phi = totals.combine(Mat.column(field, coords))[0]
        factors = factor_polynomial(field, phi.minimal_polynomial())
        if len(factors) >= 2:
            e = _idempotent_matrix_from_minpoly(field, factors, phi)
            if e is not None:
                return IndecVerdict("no", _blocks_from_total(m, e),
                                    "idempotent from a split minimal polynomial")
        elif factors and len(factors[0][0]) > 2:
            extension_seen = True
    rad = _natural_trace_radical(m, totals)
    if rad is None:
        if field.char == 0 or field.char > hom.dim:
            rad = EndAnalysis(m).radical_coords()
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
