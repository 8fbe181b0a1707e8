"""Bound quivers, finite-dimensional path algebras, and hereditary type.

A path word is stored in composition order: ``(a2, a1)`` means "apply a1
first", and is serialized as ``a2*a1``.  Relations are admissible: every
term is a path of length at least two, and all terms of a relation are
parallel (same source and same target).

The quotient algebra kQ/I is materialized as an :class:`AlgebraTable` whose
basis consists of residue classes of paths of length below the nilpotency
bound L.  An element of the table is a dict ``{basis index: scalar}`` with
zero coefficients dropped; normal forms and structure constants have the
same form.  Admissibility (every length-L path lies in the relation ideal)
is verified constructively: each length-L path must lie in the exact span
of untruncated products u*r*v of relation generators.  The check is sound
(those products are genuine ideal elements) and conservative; presentations
that need cancellation outside the inspected window are rejected rather
than silently accepted.

Each (source, target) stratum is reduced once, on sparse rows
(``_sparse_rref``): the relation span first, on which admissibility is
checked, then the same reduction continues with the unit rows of the paths
of length >= L.  Tables stay on sparse rows rather than ``Mat`` because the
rows are short and few: one ``Mat.kernel`` per table took 0.15-0.29 ms
per benchmark table against 0.04-0.06 ms, and 0.78 s against 0.11 s for
the inhomogeneous window of the edge-case tests (2-core VM).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactlin import Field

__all__ = ["AdmissibilityError", "AlgebraTable", "BoundQuiver", "Path", "Quiver", "Relation",
           "RepType", "build_algebra_table", "classify_hereditary", "euler_form",
           "factor_quiver", "is_minimal_wild_hereditary", "k3_bound_quiver", "loop_quiver",
           "serialize_quiver_spec"]

DEFAULT_NILBOUND_SLACK = 2


class AdmissibilityError(ValueError):
    """The relation set does not certify a finite-dimensional quotient."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path in a quiver; ``arrows`` in composition order (first applied last)."""

    source: str
    target: str
    arrows: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


class Quiver:
    """A finite directed multigraph with named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]] | Sequence[Arrow]):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        parsed = []
        for a in arrows:
            if isinstance(a, Arrow):
                parsed.append(a)
            else:
                name, src, tgt = a
                parsed.append(Arrow(str(name), str(src), str(tgt)))
        self.arrows: tuple[Arrow, ...] = tuple(parsed)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name}: endpoint not a declared vertex")
        self._by_name = {a.name: a for a in self.arrows}

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    def has_loops(self) -> bool:
        return any(a.source == a.target for a in self.arrows)

    def trivial_path(self, v: str) -> Path:
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v}")
        return Path(v, v, ())

    def path(self, arrow_names: Sequence[str]) -> Path:
        """Build a path from arrow names in composition order (apply last first)."""
        if not arrow_names:
            raise ValueError("use trivial_path for empty paths")
        arrs = [self.arrow(n) for n in arrow_names]
        for later, earlier in zip(arrs, arrs[1:]):
            if earlier.target != later.source:
                raise ValueError(f"non-composable word at {later.name}*{earlier.name}")
        return Path(arrs[-1].source, arrs[0].target, tuple(arrow_names))

    def is_connected(self) -> bool:
        return len(self._component_vertices()) <= 1

    def full_subquiver(self, keep_vertices: Iterable[str]) -> "Quiver":
        keep = set(keep_vertices)
        return Quiver([v for v in self.vertices if v in keep],
                      [a for a in self.arrows if a.source in keep and a.target in keep])

    def connected_components(self) -> list["Quiver"]:
        """Full subquivers on the components of the underlying graph, ordered
        by their first vertex."""
        return [self.full_subquiver(comp) for comp in self._component_vertices()]

    def _component_vertices(self) -> list[list[str]]:
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a in self.arrows:
            parent[find(a.source)] = find(a.target)
        comps: dict[str, list[str]] = {}
        for v in self.vertices:
            comps.setdefault(find(v), []).append(v)
        return list(comps.values())

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Quiver) and other.vertices == self.vertices
                and other.arrows == self.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class Relation:
    """A parallel linear combination of paths of length >= 2."""

    terms: tuple[tuple[Fraction, Path], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty relation")
        src = self.terms[0][1].source
        tgt = self.terms[0][1].target
        for coef, path in self.terms:
            if coef == 0:
                raise ValueError("zero coefficient in relation")
            if len(path) < 2:
                raise ValueError(f"relation term {path} shorter than 2 (not admissible)")
            if path.source != src or path.target != tgt:
                raise ValueError("relation terms are not parallel")

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target

    def max_length(self) -> int:
        return max(len(p) for _, p in self.terms)

    def min_length(self) -> int:
        return min(len(p) for _, p in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"{c}*{p}" for c, p in self.terms)


class BoundQuiver:
    """A quiver with admissible relations and a nilpotency bound L.

    L is the length at which all paths must fall into the relation ideal;
    this is verified when the algebra table is built, not at construction.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Relation], nilbound: Optional[int] = None):
        self.quiver = quiver
        self.relations = tuple(relations)
        if nilbound is None:
            nilbound = len(quiver.arrows) + DEFAULT_NILBOUND_SLACK
        if nilbound < 1:
            raise ValueError("nilbound must be positive")
        self.nilbound = int(nilbound)
        for rel in self.relations:
            for _, path in rel.terms:
                # re-validate composability against this quiver
                quiver.path(path.arrows)

    def is_hereditary(self) -> bool:
        return not self.relations

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoundQuiver) and other.quiver == self.quiver
                and other.relations == self.relations and other.nilbound == self.nilbound)

    def __hash__(self):
        return hash((self.quiver, self.relations, self.nilbound))

    def __repr__(self) -> str:
        return (f"BoundQuiver({len(self.quiver.vertices)}v, {len(self.quiver.arrows)}a, "
                f"{len(self.relations)} relations, L={self.nilbound})")


def serialize_quiver_spec(bq: BoundQuiver, name: str,
                          field: Optional[Field] = None,
                          weights: Optional[dict] = None) -> str:
    """The canonical quiver-spec text of ``bq`` (the grammar of
    ``cli.parse_quiver_spec``); parse-serialize round-trips exactly."""
    lines = [f"quiver {name}"]
    if field is not None:
        lines.append(f"field {field.spec}")
    if bq.quiver.vertices:
        lines.append("vertex " + " ".join(bq.quiver.vertices))
    for a in bq.quiver.arrows:
        w = ""
        if weights and a.name in weights:
            w = " weight " + ",".join(str(x) for x in weights[a.name])
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}{w}")
    for rel in bq.relations:
        terms = []
        for coef, path in rel.terms:
            terms.append(f"{coef}*" + "*".join(path.arrows))
        lines.append("relation " + " + ".join(terms))
    lines.append(f"nilbound {bq.nilbound}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# algebra table
# ---------------------------------------------------------------------------

class AlgebraTable:
    """Finite-dimensional quotient path algebra with explicit structure constants.

    ``basis`` holds residue classes of paths of length < L, the product
    table is closed, and the identity is the sum of the vertex idempotents.
    An element is a dict ``{basis index: scalar}`` with zero coefficients
    dropped, the form of the normal forms and of :meth:`product_entry`.
    The table computes its basis and normal forms from ``bq`` itself
    (``_present``, which checks admissibility), so it presents ``bq``.
    """

    def __init__(self, bq: BoundQuiver, field: Field):
        self.bound_quiver = bq
        self.field = field
        basis, normal_forms = _present(bq, field)
        self.basis = tuple(basis)
        self.dimension = len(basis)
        self._index = {(p.source, p.target, p.arrows): i for i, p in enumerate(basis)}
        self._normal_forms = normal_forms      # (src, tgt, arrows) -> {basis_idx: coeff}
        self._products: dict[tuple[int, int], dict[int, object]] = {}
        self._build_products()

    # -- construction helpers ------------------------------------------------

    def _normal_form_of_word(self, source: str, target: str, arrows: tuple[str, ...]):
        if len(arrows) >= self.bound_quiver.nilbound:
            return {}
        key = (source, target, arrows)
        nf = self._normal_forms.get(key)
        if nf is None:
            raise ValueError(f"path {arrows} not found in enumeration")
        return nf

    def _build_products(self):
        f = self.field
        for i, p in enumerate(self.basis):
            for j, q in enumerate(self.basis):
                if q.target != p.source:
                    continue
                arrows = p.arrows + q.arrows
                nf = self._normal_form_of_word(q.source, p.target, arrows)
                if nf:
                    self._products[(i, j)] = nf

    # -- public surface --------------------------------------------------------

    def product_entry(self, i: int, j: int) -> dict:
        """Structure constants of basis[i] * basis[j] (sparse; empty = zero)."""
        return self._products.get((i, j), {})

    def basis_index(self, path: Path) -> Optional[int]:
        return self._index.get((path.source, path.target, path.arrows))

    def basis_path(self, i: int) -> Path:
        return self.basis[i]

    def idempotent(self, vertex: str) -> dict:
        i = self.basis_index(Path(vertex, vertex, ()))
        if i is None:
            raise ValueError(f"no idempotent for vertex {vertex}")
        return {i: self.field.one}

    def one(self) -> dict:
        """The sum of the vertex idempotents."""
        return {i: self.field.one for i, p in enumerate(self.basis) if not p.arrows}

    def arrow_element(self, name: str) -> dict:
        a = self.bound_quiver.quiver.arrow(name)
        return self.path_element(Path(a.source, a.target, (name,)))

    def path_element(self, path: Path) -> dict:
        """The normal form of the path, in basis order."""
        return dict(sorted(self._normal_form_of_word(path.source, path.target,
                                                     path.arrows).items()))

    def __repr__(self) -> str:
        return f"AlgebraTable(dim={self.dimension}, field={self.field})"


def _enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All paths of length <= max_len, grouped by length then lexicographic."""
    by_len: list[list[Path]] = [[q.trivial_path(v) for v in q.vertices]]
    out_arrows: dict[str, list[Arrow]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        out_arrows[a.source].append(a)
    for _ in range(max_len):
        nxt = []
        for p in by_len[-1]:
            for a in out_arrows[p.target]:
                nxt.append(Path(p.source, a.target, (a.name,) + p.arrows))
        by_len.append(nxt)
        if not nxt:
            break
    return [p for level in by_len for p in level]


def build_algebra_table(bq: BoundQuiver, field: Field) -> AlgebraTable:
    """The basis and structure constants of kQ/I: ``AlgebraTable(bq, field)``."""
    return AlgebraTable(bq, field)


def _relation_rows(bq: BoundQuiver, field: Field, paths: list[Path], window: int,
                   st_cols: dict[tuple[str, str], dict[tuple, int]]) -> dict:
    """The products u.r.v of every relation r with enumerated paths u and v
    of total length len(u) + (longest term of r) + len(v) <= ``window``, as
    sparse rows {column: nonzero scalar of ``field``} over the columns
    ``st_cols`` of their stratum, per stratum, in the order (r, u, v) of
    ``paths``; a product that is zero over ``field`` gives no row.

    ``paths`` is sorted by length (``_enumerate_paths``), so the u that fit
    come first among the paths from r's target, and for each u the v that
    fit come first among the paths into r's source: the loops visit those
    pairs only, in the order of the full double loop over all pairs.
    """
    prefix: dict[str, list[Path]] = {}
    suffix: dict[str, list[Path]] = {}
    for p in paths:
        prefix.setdefault(p.source, []).append(p)   # paths starting at v (for right factors)
        suffix.setdefault(p.target, []).append(p)   # paths ending at v (for left factors)
    lengths = {v: [len(p) for p in ps] for v, ps in suffix.items()}
    span_rows: dict[tuple[str, str], list[dict[int, object]]] = {k: [] for k in st_cols}
    for rel in bq.relations:
        maxlen = rel.max_length()
        ends, ends_len = suffix.get(rel.source, []), lengths.get(rel.source, [])
        for u in prefix.get(rel.target, []):
            room = window - maxlen - len(u)
            if room < 0:
                break
            for v in ends[:bisect.bisect_right(ends_len, room)]:
                key = (v.source, u.target)
                cols = st_cols[key]
                row: dict[int, Fraction] = {}
                for coef, term in rel.terms:
                    word = u.arrows + term.arrows + v.arrows
                    idx = cols[word]
                    row[idx] = row.get(idx, Fraction(0)) + coef
                coerced = {}
                for k2, c in row.items():
                    if c != 0:
                        cc = field.coerce(c)
                        if cc != 0:
                            coerced[k2] = cc
                if coerced:
                    span_rows[key].append(coerced)
    return span_rows


def _present(bq: BoundQuiver, field: Field) -> tuple[list[Path], dict]:
    """The basis of kQ/I and the normal form of every enumerated path.

    Raises :class:`AdmissibilityError` when some path of length L cannot be
    certified to lie in the relation ideal.
    """
    q = bq.quiver
    L = bq.nilbound
    if bq.relations:
        homogeneous = all(r.max_length() == r.min_length() for r in bq.relations)
        window = L if homogeneous else L + max(r.max_length() for r in bq.relations)
    else:
        window = L
    paths = _enumerate_paths(q, window)

    # stratify by (source, target); columns ordered long-to-short so that
    # normal forms rewrite long paths into shorter ones
    strata: dict[tuple[str, str], list[Path]] = {}
    for p in paths:
        strata.setdefault((p.source, p.target), []).append(p)
    st_cols: dict[tuple[str, str], dict[tuple, int]] = {}
    for key, plist in strata.items():
        plist.sort(key=lambda p: (-len(p), p.arrows))
        st_cols[key] = {p.arrows: i for i, p in enumerate(plist)}

    # every length-L path must be certified inside the span of untruncated
    # generator products; collect those products per stratum
    span_rows = _relation_rows(bq, field, paths, window, st_cols)

    # per stratum: reduce the generator span once and check admissibility on
    # it, then continue the same reduction with unit vectors for all paths of
    # length >= L, so that normal forms never mention them
    table_rows: dict[tuple[str, str], list[tuple[int, dict[int, object]]]] = {}
    basis: list[Path] = []
    for key, plist in strata.items():
        cols = st_cols[key]
        span = _sparse_rref(span_rows[key], field)
        for p in plist:
            if len(p) == L and _reduce_vector({cols[p.arrows]: field.one}, span, field):
                raise AdmissibilityError(
                    f"path {p} of length {L} is not certified to lie in the "
                    f"relation ideal; tighten the relations or raise nilbound")
        red = _sparse_rref([{cols[p.arrows]: field.one} for p in plist if len(p) >= L],
                           field, span)
        table_rows[key] = red
        pivots = {piv for piv, _ in red}
        basis += [p for p in plist if cols[p.arrows] not in pivots and len(p) < L]

    basis.sort(key=lambda p: (len(p), p.source, p.target, p.arrows))
    idx_of = {}
    for i, p in enumerate(basis):
        idx_of[(p.source, p.target, p.arrows)] = i

    normal_forms: dict = {}
    for key, plist in strata.items():
        red = table_rows[key]
        col_to_path = {st_cols[key][p.arrows]: p for p in plist}
        for p in plist:
            col = st_cols[key][p.arrows]
            rem = _reduce_vector({col: field.one}, red, field)
            nf = {}
            for c2, coef in rem.items():
                bp = col_to_path[c2]
                bi = idx_of.get((bp.source, bp.target, bp.arrows))
                if bi is None:
                    raise AdmissibilityError(
                        f"normal form of {p} involves non-basis path {bp}")
                nf[bi] = coef
            normal_forms[(p.source, p.target, p.arrows)] = nf
    return basis, normal_forms


def _sparse_rref(rows: list[dict[int, object]], field: Field,
                 reduced: Sequence[tuple[int, dict[int, object]]] = ()
                 ) -> list[tuple[int, dict[int, object]]]:
    """Reduced echelon of sparse rows; returns [(pivot_col, row)] sorted by pivot.

    ``reduced`` is the result of an earlier call: the reduction continues
    from it, and since the reduced echelon form is unique the result is the
    one for all the rows together."""
    reduced = list(reduced)
    for row in rows:
        row = _reduce_vector(dict(row), reduced, field)
        if not row:
            continue
        piv = min(row)
        inv = field.inv(row[piv])
        row = {c: field.mul(inv, v) for c, v in row.items()}
        for i, (opiv, orow) in enumerate(reduced):
            if piv in orow:
                reduced[i] = (opiv, _reduce_vector(orow, [(piv, row)], field))
        reduced.append((piv, row))
    reduced.sort(key=lambda t: t[0])
    return reduced


def _reduce_vector(vec: dict[int, object], reduced, field: Field) -> dict[int, object]:
    out = dict(vec)
    for piv, row in reduced:
        f = out.get(piv)
        if f is None or f == 0:
            continue
        for c, v in row.items():
            nv = field.sub(out.get(c, field.zero), field.mul(f, v))
            if nv == 0:
                out.pop(c, None)
            else:
                out[c] = nv
    return {c: v for c, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# factor quivers
# ---------------------------------------------------------------------------

def factor_quiver(bq_src: BoundQuiver, keep_vertices: Iterable[str],
                  keep_arrows: Iterable[str]) -> BoundQuiver:
    """Pass to a factor quiver: drop vertices/arrows, substitute zero for
    excluded arrows in every relation, and drop vanished terms."""
    kv = set(keep_vertices)
    ka = set(keep_arrows)
    q = bq_src.quiver
    unknown_v = kv - set(q.vertices)
    if unknown_v:
        raise ValueError(f"unknown vertices in keep set: {sorted(unknown_v)}")
    unknown_a = ka - {a.name for a in q.arrows}
    if unknown_a:
        raise ValueError(f"unknown arrows in keep set: {sorted(unknown_a)}")
    for name in ka:
        a = q.arrow(name)
        if a.source not in kv or a.target not in kv:
            raise ValueError(
                f"arrow {name} is incident to a removed vertex; factor keep-sets "
                f"must exclude all arrows touching removed vertices")
    new_q = Quiver([v for v in q.vertices if v in kv],
                   [a for a in q.arrows if a.name in ka])
    new_rels = []
    for rel in bq_src.relations:
        terms = [(c, p) for c, p in rel.terms if all(x in ka for x in p.arrows)]
        if terms:
            new_rels.append(Relation(tuple(terms)))
    return BoundQuiver(new_q, new_rels, nilbound=bq_src.nilbound)


# ---------------------------------------------------------------------------
# Euler form and hereditary classification
# ---------------------------------------------------------------------------

class RepType(Enum):
    FINITE = "Finite"
    TAME = "Tame"
    WILD = "Wild"


def euler_form(q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum d_i e_i - sum over arrows d_source * e_target: over a
    hereditary algebra, dim Hom(M, N) - dim Ext^1(M, N) for dimension
    vectors d of M and e of N."""
    for x in (d, e):
        if len(x) != len(q.vertices):
            raise ValueError(f"dimension vector length {len(x)} != {len(q.vertices)} vertices")
    pos = {v: i for i, v in enumerate(q.vertices)}
    total = sum(int(x) * int(y) for x, y in zip(d, e))
    for a in q.arrows:
        total -= int(d[pos[a.source]]) * int(e[pos[a.target]])
    return total


def symmetrized_tits_matrix(q: Quiver) -> list[list[int]]:
    """Integer symmetric matrix B with <d, d> = (1/2) d B d^T for loop-free q."""
    n = len(q.vertices)
    pos = {v: i for i, v in enumerate(q.vertices)}
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 2
    for a in q.arrows:
        i, j = pos[a.source], pos[a.target]
        if i == j:
            b[i][i] -= 2
        else:
            b[i][j] -= 1
            b[j][i] -= 1
    return b


def _leading_minors(b: list[list[int]]) -> list[int]:
    """The leading principal minors D_1, D_2, ... of the integer matrix B,
    up to the first one that is <= 0 (all n when every one is positive).

    One Bareiss pass without row swaps: after k steps the pivot w[k][k] is
    D_(k+1), so every division is by a positive earlier pivot, and
    Sylvester's identity makes each quotient an integer minor of B.
    """
    n = len(b)
    w = [list(row) for row in b]
    minors = []
    prev = 1
    for k in range(n):
        piv = w[k][k]
        minors.append(piv)
        if piv <= 0:
            break
        rk = w[k]
        for i in range(k + 1, n):
            ri = w[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - f * rk[j]) // prev
        prev = piv
    return minors


def classify_hereditary(q: Quiver) -> RepType:
    """Finite / Tame / Wild via exact definiteness of the symmetrized Tits form,
    read from one Bareiss pass over its leading principal minors.

    The form is positive definite (finite) iff D_1, ..., D_n > 0.  For a
    connected loop-free quiver, B is a symmetric generalized Cartan matrix,
    and it is positive semidefinite and singular (tame) iff D_1, ..., D_(n-1)
    > 0 and D_n = 0.  If so, B|_(n-1) is positive definite, so by Cauchy
    interlacing B has at most one eigenvalue <= 0, which det B = 0 makes 0.
    Conversely every proper principal minor of a semidefinite singular B is
    positive (Kac, *Infinite Dimensional Lie Algebras*, ch. 4): if x is a
    null vector of a proper principal block, then |x|^T B |x| <= x^T B x = 0
    as off-diagonal entries are <= 0, so |x| is a null vector of B; but
    connectedness gives a vertex next to the support of |x| and outside
    it, where B|x| is negative.  Anything else is indefinite (wild).

    Requires a connected, loop-free quiver; split other inputs into
    components (or remove loops) before calling.
    """
    if q.has_loops():
        raise ValueError("classification requires a loop-free quiver")
    if not q.vertices:
        raise ValueError("classification requires a nonempty quiver")
    if not q.is_connected():
        raise ValueError("classification requires a connected quiver; classify components separately")
    minors = _leading_minors(symmetrized_tits_matrix(q))
    if len(minors) < len(q.vertices) or minors[-1] < 0:
        return RepType.WILD
    return RepType.FINITE if minors[-1] > 0 else RepType.TAME


def is_minimal_wild_hereditary(q: Quiver) -> bool:
    """Wild, and every proper one-vertex-deleted full subquiver has only
    finite or tame connected components."""
    if classify_hereditary(q) != RepType.WILD:
        return False
    for v in q.vertices:
        rest = q.full_subquiver([u for u in q.vertices if u != v])
        for comp in rest.connected_components():
            if comp.vertices and classify_hereditary(comp) == RepType.WILD:
                return False
    return True


# ---------------------------------------------------------------------------
# standard examples
# ---------------------------------------------------------------------------

def kronecker_quiver(arrow_count: int = 2) -> Quiver:
    """Two vertices 1 -> 2 joined by the given number of parallel arrows."""
    names = ["a", "b", "c", "d", "e", "f", "g", "h"]
    return Quiver(["1", "2"], [(names[i], "1", "2") for i in range(arrow_count)])


def k3_bound_quiver() -> BoundQuiver:
    """The three-arrow Kronecker quiver as a bound quiver (hereditary)."""
    return BoundQuiver(kronecker_quiver(3), [], nilbound=2)


def loop_quiver(loops: int = 1) -> Quiver:
    names = ["x", "y", "z", "w", "u", "v"]
    return Quiver(["v"], [(names[i], "v", "v") for i in range(loops)])
