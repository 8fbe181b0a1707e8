"""Galois coverings presented by free-abelian arrow gradings.

A grading of the arrows by Z^m with homogeneous relations presents a
covering with torsion-free Galois group Z^m.  A finite box cuts a window:
the factor quiver whose vertices are (base vertex, grade) pairs, with
relations lifted per base point and truncated by the zero-substitution rule
whenever a lift leaves the box.

The pushdown bimodule is free over the window algebra with one generator
per window vertex; base idempotents route generators by fiber and base
arrows route along lifted arrows.  Tensoring with it is the pushdown
functor (Bongartz and Gabriel, Invent. Math. 65, 1982) in the coordinates
of the direct assembly, so ``verify_pushdown`` checks their agreement by
exact equality; whether the pushdown preserves indecomposability and
isomorphism classes on sincere window modules is verified by sampling.
The covering criterion searches boxes for a window that is minimal wild
hereditary (or is user-designated wild concealed with a
supplied witness) and emits a rank certificate: window size times the
window's sincere-subcategory witness rank.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactlin import Field, Mat
from .quiver import (BoundQuiver, Path, Quiver, Relation, build_algebra_table,
                     is_minimal_wild_hereditary)
from .rep import (InconclusiveError, Representation, SamplingStarvation,
                  in_sincere_subcategory, sample_representation, shared_solves)
from .wildness import (CertStep, CheckCounts, CheckedReport, WitnessBimodule,
                       WitnessCertificate, bound_quiver_hash, check_preservation,
                       compose_witness, eval_tensor, sincere_witness_for_K3,
                       _from_entries, _k3_shape, _same_algebra)

__all__ = ["CoveringSpec", "InhomogeneousRelation", "WindowDesignation", "build_window",
           "covering_criterion", "verify_pushdown"]


def _grade_str(g: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in g)


class InhomogeneousRelation(ValueError):
    """A relation whose term ``term`` (an index) has another weight than its
    first term under a grading."""

    def __init__(self, relation: Relation, term: int):
        self.relation, self.term = relation, term
        super().__init__(f"relation {relation} is not homogeneous under the grading")


class CoveringSpec:
    """An arrow grading by Z^m defining a Galois covering of the base."""

    def __init__(self, base: BoundQuiver, group_rank: int,
                 weights: dict[str, tuple[int, ...]]):
        if group_rank < 1:
            raise ValueError("group rank must be >= 1")
        self.base = base
        self.group_rank = int(group_rank)
        self.weights = {}
        for a in base.quiver.arrows:
            w = tuple(int(x) for x in weights.get(a.name, (0,) * group_rank))
            if len(w) != group_rank:
                raise ValueError(f"weight of arrow {a.name} has length {len(w)}, "
                                 f"expected {group_rank}")
            self.weights[a.name] = w
        for rel in base.relations:
            ws = [self.path_weight(p) for _, p in rel.terms]
            for k, w in enumerate(ws):
                if w != ws[0]:
                    raise InhomogeneousRelation(rel, k)

    def path_weight(self, path: Path) -> tuple[int, ...]:
        total = [0] * self.group_rank
        for name in path.arrows:
            for i, x in enumerate(self.weights[name]):
                total[i] += x
        return tuple(total)


@dataclass
class Window:
    """A finite factor quiver of the cover, cut from a box of grades."""

    covering: CoveringSpec
    box: tuple[tuple[int, int], ...]
    bound_quiver: BoundQuiver
    pi_vertices: dict[str, str]
    lifted: dict[tuple[str, tuple[int, ...]], str]
    # the pushdown bimodule per field, built on first use; its source is
    # the window's algebra table (``pushdown_bimodule``)
    _bimodules: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    def vertex_count(self) -> int:
        return len(self.bound_quiver.quiver.vertices)

    def fiber(self, base_vertex: str) -> list[str]:
        return sorted(v for v, b in self.pi_vertices.items() if b == base_vertex)

    def lifts(self, base_arrow: str) -> list:
        """The window arrows over a base arrow."""
        q = self.bound_quiver.quiver
        return [q.arrow(name) for (a, _), name in self.lifted.items() if a == base_arrow]


def _box_points(box) -> list[tuple[int, ...]]:
    ranges = [range(lo, hi + 1) for lo, hi in box]
    return [tuple(p) for p in itertools.product(*ranges)]


def _add(g, w):
    return tuple(a + b for a, b in zip(g, w))


def build_window(cov: CoveringSpec, box: Sequence[tuple[int, int]]) -> Window:
    """Cut the finite factor quiver over a product of grade intervals."""
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != cov.group_rank:
        raise ValueError("box rank does not match the group rank")
    for lo, hi in box:
        if lo > hi:
            raise ValueError("empty box interval")
    points = _box_points(box)
    pset = set(points)
    base_q = cov.base.quiver
    vnames = {}
    for v in base_q.vertices:
        for g in points:
            vnames[(v, g)] = f"{v}@{_grade_str(g)}"
    arrows = []
    lifted = {}
    for a in base_q.arrows:
        w = cov.weights[a.name]
        for g in points:
            h = _add(g, w)
            if h in pset:
                name = f"{a.name}@{_grade_str(g)}"
                arrows.append((name, vnames[(a.source, g)], vnames[(a.target, h)]))
                lifted[(a.name, g)] = name
    order = [vnames[(v, g)] for v in base_q.vertices for g in points]
    q = Quiver(order, arrows)
    relations = []
    for rel in cov.base.relations:
        for g in points:
            terms = []
            for coef, path in rel.terms:
                cur = g
                word_rev = []
                ok = True
                for name in reversed(path.arrows):   # application order
                    key = (name, cur)
                    if key not in lifted:
                        ok = False
                        break
                    word_rev.append(lifted[key])
                    cur = _add(cur, cov.weights[name])
                if ok:
                    word = tuple(reversed(word_rev))
                    terms.append((coef, q.path(word)))
            if terms:
                relations.append(Relation(tuple(terms)))
    bq = BoundQuiver(q, relations, nilbound=cov.base.nilbound)
    pi_vertices = {vnames[(v, g)]: v for (v, g) in vnames}
    return Window(cov, box, bq, pi_vertices, lifted)


# ---------------------------------------------------------------------------
# pushdown
# ---------------------------------------------------------------------------

def pushdown_bimodule(w: Window, field: Field) -> WitnessBimodule:
    """Free bimodule of rank |window vertices| realizing the pushdown.

    Its slots are the window vertices, sorted.  Base vertex b acts by the
    sum of E_ss (x) e_s over s in fiber(b), base arrow a by the sum of
    E_ts (x) l over its lifts l: s -> t.  Like every witness, the bimodule
    is checked on construction to kill the base relations; a relation that
    does not act as zero means the grading does not present a covering.

    Evaluated at a window module n it gives ``pushdown(w, n)`` exactly.  The
    raw coordinates of the tensor product are slot-major, block s of n
    within slot s.  The raw action of b is a 0/1 diagonal, and those of
    different base vertices do not overlap, so ``eval_tensor`` lists b's
    coordinates in ascending order: slot by slot in the order of
    ``w.fiber(b)``, block s of n within slot s, which are ``pushdown``'s
    offsets.  The raw action of a lift l: s -> t puts ``n.mats[l]`` in the
    rows of block t of slot t and the columns of block s of slot s: the
    block (t, s) that ``pushdown`` assembles for a.

    Built once per window and field, and memoised on the window, so its
    source is also the window's one algebra table over ``field``.
    """
    cached = w._bimodules.get(field)
    if cached is not None:
        return cached
    base_table = build_algebra_table(w.covering.base, field)
    window_table = build_algebra_table(w.bound_quiver, field)
    slot_of = {v: i for i, v in enumerate(sorted(w.bound_quiver.quiver.vertices))}
    r = len(slot_of)
    vertices = {bv: _from_entries(field, [(slot_of[s], slot_of[s], window_table.idempotent(s))
                                          for s in w.fiber(bv)])
                for bv in w.covering.base.quiver.vertices}
    arrows = {a.name: _from_entries(field, [(slot_of[lift.target], slot_of[lift.source],
                                             window_table.arrow_element(lift.name))
                                            for lift in w.lifts(a.name)])
              for a in w.covering.base.quiver.arrows}
    w._bimodules[field] = WitnessBimodule(base_table, window_table, r, vertices, arrows)
    return w._bimodules[field]


def pushdown(w: Window, n: Representation) -> Representation:
    """Direct assembly of the pushdown, the sum over fibers: base vertex b
    gets n over ``w.fiber(b)`` in that order, and base arrow a has block
    (t, s) ``n.mats[l]`` for each lift l: s -> t.  Equal, matrix for matrix,
    to evaluation through ``pushdown_bimodule`` (proved there)."""
    if n.bound_quiver != w.bound_quiver:
        raise ValueError("representation is not over the window")
    base = w.covering.base
    dims, offs = {}, {}
    for bv in base.quiver.vertices:
        dims[bv] = 0
        for s in w.fiber(bv):
            offs[s] = dims[bv]
            dims[bv] += n.dims[s]
    # the lifts of an arrow have distinct sources, so their blocks do not overlap
    mats = {a.name: Mat.assemble(n.field, dims[a.target], dims[a.source],
                                 [(offs[lift.target], offs[lift.source], n.mats[lift.name])
                                  for lift in w.lifts(a.name)])
            for a in base.quiver.arrows}
    return Representation(base, n.field, dims, mats, check=True)


@dataclass
class PushdownReport(CheckedReport):
    """Sampled verification of pushdown preservation on sincere modules."""

    samples: int
    max_total_dim: int
    seed: object
    field: str
    starved: bool
    rejected: int
    indecomposability: CheckCounts
    iso_classes: CheckCounts
    bimodule_agreement: CheckCounts
    pair_count: int
    notes: tuple = ()

    @property
    def checks(self) -> list[tuple[str, CheckCounts]]:
        return [("indecomposability-preservation", self.indecomposability),
                ("iso-class-preservation", self.iso_classes),
                ("bimodule-agreement", self.bimodule_agreement)]

    @property
    def valid(self) -> bool:
        return super().valid and not self.starved

    def to_text(self) -> str:
        return self._text([f"pushdown-verification samples {self.samples} max-total-dim "
                           f"{self.max_total_dim} seed {self.seed} field {self.field}",
                           f"rejected-nonsincere {self.rejected} "
                           f"starved {str(self.starved).lower()}",
                           f"pairs-checked {self.pair_count}"])


@shared_solves()
def verify_pushdown(w: Window, samples: int, max_total_dim: int, seed,
                    field: Optional[Field] = None) -> PushdownReport:
    """Sample sincere window modules; check that the pushdown preserves
    indecomposability and isomorphism classes and agrees with evaluation
    through the pushdown bimodule.  Preservation is sampled evidence;
    agreement is exact, the same dims and arrow matrices (proved in
    ``pushdown_bimodule``), so a mismatch fails and is never inconclusive."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    field = field if field is not None else Field.prime(101)
    rng = random.Random(f"pushdown:{seed}")
    bq = w.bound_quiver
    nv = len(bq.quiver.vertices)
    per = max(1, max_total_dim // max(nv, 1))
    bimod = pushdown_bimodule(w, field)
    mods: list[Representation] = []
    rejected = 0
    starved = False
    attempts = 0
    budget = samples * 60
    while len(mods) < samples and attempts < budget:
        attempts += 1
        dims = {v: rng.randint(1, per) for v in bq.quiver.vertices}
        try:
            cand = sample_representation(bq, field, dims, rng, budget=40)
        except SamplingStarvation:
            rejected += 1
            continue
        try:
            if in_sincere_subcategory(cand, f"{seed}:sinc:{attempts}"):
                mods.append(cand)
            else:
                rejected += 1
        except InconclusiveError:
            rejected += 1
    if len(mods) < samples:
        starved = True

    agree = CheckCounts()
    images = []
    for n in mods:
        direct = pushdown(w, n)
        images.append(direct)
        via = eval_tensor(bimod, n)
        agree.record(via.dims == direct.dims and via.mats == direct.mats)
    indec, iso, pairs = check_preservation(mods, images, seed, "pushdown-pairs", 200)
    notes = ("restricted to the sincere subcategory of the window",)
    return PushdownReport(samples=len(mods), max_total_dim=max_total_dim, seed=seed,
                          field=repr(field), starved=starved, rejected=rejected,
                          indecomposability=indec, iso_classes=iso,
                          bimodule_agreement=agree,
                          pair_count=len(pairs), notes=notes)


# ---------------------------------------------------------------------------
# covering criterion
# ---------------------------------------------------------------------------

def _boxes_up_to(group_rank: int, radius: int):
    """Finite boxes ordered by volume then lexicographically."""
    intervals = []
    for lo in range(-radius, 1):
        for hi in range(0, radius + 1):
            intervals.append((lo, hi))
    boxes = []
    for combo in itertools.product(intervals, repeat=group_rank):
        vol = 1
        for lo, hi in combo:
            vol *= hi - lo + 1
        boxes.append((vol, combo))
    boxes.sort(key=lambda t: (t[0], t[1]))
    return [b for _, b in boxes]


@dataclass
class WindowDesignation:
    """User designation of a window as wild concealed, with its witness."""

    box: tuple[tuple[int, int], ...]
    witness: WitnessBimodule
    description: str = "user-designated wild concealed window"


def covering_criterion(cov: CoveringSpec, search_radius: int,
                       field: Optional[Field] = None, seed=0,
                       designation: Optional[WindowDesignation] = None
                       ) -> Optional[tuple[WitnessCertificate, Window]]:
    """Search windows up to the radius for a certified wild window.

    Success: a window that is connected minimal wild hereditary of
    three-arrow Kronecker shape (built-in sincere witness), or the
    user-designated window with a supplied sincere witness.  The emitted
    bound is |window vertices| x (witness rank).  Returns ``(certificate,
    window)``, or None when no certifiable window is found; that is not a
    tameness claim.
    """
    field = field if field is not None else Field.prime(101)
    if designation is not None:
        window = build_window(cov, designation.box)
        cert = _certificate_from_window(cov, window, field, seed,
                                        designation.witness,
                                        criterion="user-designated wild concealed window")
        return cert, window
    for box in _boxes_up_to(cov.group_rank, search_radius):
        window = build_window(cov, box)
        q = window.bound_quiver.quiver
        if not window.bound_quiver.is_hereditary():
            continue
        if q.has_loops() or not q.vertices or not q.is_connected():
            continue
        if not is_minimal_wild_hereditary(q):
            continue
        try:
            _k3_shape(window.bound_quiver)
        except ValueError:
            # minimal wild hereditary window without a built-in sincere
            # witness; report nothing rather than an unverified bound
            continue
        witness = sincere_witness_for_K3(pushdown_bimodule(window, field).source)
        cert = _certificate_from_window(cov, window, field, seed, witness,
                                        criterion="minimal wild hereditary window "
                                                  "(vertex-deletion criterion)")
        return cert, window
    return None


def _certificate_from_window(cov: CoveringSpec, window: Window, field: Field,
                             seed, witness: WitnessBimodule,
                             criterion: str) -> WitnessCertificate:
    pd = pushdown_bimodule(window, field)
    if not _same_algebra(witness.target, pd.source):
        raise ValueError("witness target does not match the window algebra")
    composite = compose_witness(pd, witness)
    k = window.vertex_count()
    steps = (
        CertStep("explicit-bimodule", witness.rank,
                 "sincere-subcategory witness over the window algebra"),
        CertStep("covering-rule", k,
                 f"pushdown of window box {list(window.box)} with {k} vertices"),
    )
    notes = (
        f"window criterion: {criterion}",
        "symbolic form: bound = |window vertices| * b where b is the least "
        "sincere-subcategory witness rank over minimal wild concealed algebras "
        "(b kept symbolic; 10 is its conjectured cap on window size)",
    )
    return WitnessCertificate(
        target_desc=f"base algebra of the covering (dim {composite.target.dimension})",
        target_hash=bound_quiver_hash(cov.base),
        target_dim=composite.target.dimension,
        bound=witness.rank * k,
        steps=steps,
        field_desc=repr(field),
        seed=seed,
        target_kind="algebra",
        notes=notes,
        bimodule=composite,
        target_bq=cov.base,
    )
