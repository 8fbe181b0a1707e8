"""Representation varieties: tangent, orbit and parameter estimates.

For a dimension vector d the variety of relation-satisfying arrow tuples
carries a base-change action of the product of general linear groups.  The
number of parameters of a stratum is estimated per dimension vector as
(local dimension) - (orbit dimension), where the orbit dimension of a point
is sum(d_i^2) - dim End and the record uses the most generic sampled orbit.
Local dimensions are exact coordinate counts for hereditary algebras and
Jacobian tangent upper bounds otherwise; every report carries the heuristic
marker.  These are desk-scale probes, not proofs: sampled lower evidence
and tangent upper bounds, labeled as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .exactlin import Field, Mat
from .quiver import BoundQuiver
from .rep import (Representation, SamplingStarvation, check_relations,
                  hom_space, relation_jacobian, sample_representation, shared_solves)

__all__ = ["stratum_probe"]


@dataclass
class RepVarietyPoint:
    """A relation-satisfying point of the representation variety."""

    bq: BoundQuiver
    rep: Representation

    def __post_init__(self):
        if self.rep.bound_quiver != self.bq:
            raise ValueError("representation lives over a different bound quiver")
        bad = [str(rel) for rel, ok in check_relations(self.rep) if not ok]
        if bad:
            raise ValueError(f"relations violated at the point: {bad}")


def arrow_coordinate_count(bq: BoundQuiver, dims: dict[str, int]) -> int:
    return sum(dims.get(a.target, 0) * dims.get(a.source, 0)
               for a in bq.quiver.arrows)


def tangent_dimension(p: RepVarietyPoint) -> int:
    """Kernel dimension of the Jacobian of the relation equations at p.

    An upper bound for the local dimension at singular or non-reduced
    points; equals the full coordinate count for hereditary algebras.
    """
    bq = p.bq
    rep = p.rep
    field = rep.field
    nvars = arrow_coordinate_count(bq, rep.dims)
    offsets = {}
    off = 0
    for a in bq.quiver.arrows:
        offsets[a.name] = off
        off += rep.dims[a.target] * rep.dims[a.source]
    jac = Mat.vcat(field, nvars, [relation_jacobian(field, rel, rep.mats, rep.dims,
                                                    offsets, nvars)
                                  for rel in bq.relations])
    return nvars - jac.rank()


def orbit_dimension(p: RepVarietyPoint) -> int:
    """sum d_i^2 - dim End, the base-change orbit dimension at the point."""
    rep = p.rep
    squares = sum(d * d for d in rep.dims.values())
    return squares - hom_space(rep, rep).dim


@dataclass
class DimVectorRecord:
    dims: tuple[int, ...]
    sampled: int
    starved: bool
    tangent: Optional[int]          # local dimension used (min at max orbit)
    orbit: Optional[int]            # most generic sampled orbit dimension
    estimate: Optional[int]
    exact_local: bool

    def to_text(self) -> str:
        if self.starved:
            return (f"d={list(self.dims)} sampled {self.sampled} "
                    f"STARVED (no relation-satisfying points found)")
        kind = "exact" if self.exact_local else "upper-bound"
        return (f"d={list(self.dims)} sampled {self.sampled} local {self.tangent} "
                f"({kind}) orbit {self.orbit} estimate {self.estimate}")


@dataclass
class StratumReport:
    """Per-dimension-vector records and the aggregate parameter estimate."""

    n: int
    field: str
    seed: object
    samples_per_d: int
    records: list[DimVectorRecord]
    hereditary: bool

    @property
    def aggregate(self) -> Optional[int]:
        vals = [r.estimate for r in self.records if r.estimate is not None]
        return max(vals) if vals else None

    @property
    def any_starved(self) -> bool:
        return any(r.starved for r in self.records)

    def verdict_at_most(self) -> Optional[bool]:
        """Whether the aggregate estimate is at most ``n``; None without one."""
        agg = self.aggregate
        if agg is None:
            return None
        return agg <= self.n

    def _verdict(self) -> str:
        v = self.verdict_at_most()
        return "<= n" if v else "> n" if v is not None else "unknown"

    def summary(self) -> str:
        """The one-line verdict of the stratum, as ``wildrank variety``
        prints it under ``summary``."""
        est = self.aggregate if self.aggregate is not None else "none"
        extra = " (starvation in some strata)" if self.any_starved else ""
        return f"n {self.n} estimate {est} verdict {self._verdict()}{extra}"

    def to_text(self) -> str:
        marker = ("exact local dimensions (hereditary)" if self.hereditary
                  else "tangent upper bounds (bound quiver)")
        lines = [
            f"variety-probe n {self.n} field {self.field} seed {self.seed} "
            f"samples-per-d {self.samples_per_d}",
            f"marker heuristic sampled estimate; {marker}",
        ]
        for r in self.records:
            lines.append(r.to_text())
        agg = self.aggregate
        lines.append(f"aggregate {agg if agg is not None else 'none'}")
        lines.append(f"verdict {self._verdict()}")
        return "\n".join(lines)


def _dimension_vectors(k: int, n: int):
    """All k-part compositions of n (nonnegative), lexicographic."""
    if k == 0:
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _dimension_vectors(k - 1, n - first):
            yield (first,) + rest


def parameter_estimate(bq: BoundQuiver, field: Field, n: int,
                       samples_per_d: int = 8, seed=0) -> StratumReport:
    """Sampled parameter-count estimate for all dimension vectors of total n.

    Per dimension vector: sample relation-satisfying points, record the most
    generic orbit dimension met and the local dimension there (exact for
    hereditary, Jacobian upper bound otherwise); the record's estimate is
    local - orbit and the aggregate is the maximum.  Deterministic per seed;
    each record is reproducible from (seed, algebra, d) alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = bq.quiver.vertices
    hereditary = bq.is_hereditary()
    records = []
    for dims_tuple in _dimension_vectors(len(vertices), n):
        dims = dict(zip(vertices, dims_tuple))
        rng = random.Random(f"variety:{seed}:{dims_tuple}")
        pts: list[RepVarietyPoint] = []
        starved = False
        for _ in range(samples_per_d):
            try:
                rep = sample_representation(bq, field, dims, rng, budget=60)
            except SamplingStarvation:
                starved = True
                continue
            pts.append(RepVarietyPoint(bq, rep))
        if not pts:
            records.append(DimVectorRecord(dims_tuple, 0, True, None, None, None,
                                           hereditary))
            continue
        orbit_max = None
        best_tangent = None
        for p in pts:
            od = orbit_dimension(p)
            loc = (arrow_coordinate_count(bq, p.rep.dims) if hereditary
                   else tangent_dimension(p))
            if orbit_max is None or od > orbit_max:
                orbit_max = od
                best_tangent = loc
            elif od == orbit_max and loc < best_tangent:
                best_tangent = loc
        records.append(DimVectorRecord(dims_tuple, len(pts), False,
                                       best_tangent, orbit_max,
                                       best_tangent - orbit_max, hereditary))
    return StratumReport(n=n, field=repr(field), seed=seed,
                         samples_per_d=samples_per_d, records=records,
                         hereditary=hereditary)


@shared_solves()
def stratum_probe(bq: BoundQuiver, field: Field, n_max: int,
                  samples_per_d: int = 8, seed=0) -> list[StratumReport]:
    """Run parameter_estimate for n = 1..n_max; each report's ``summary``
    is its verdict.

    Verdicts are heuristic: sampling gives lower evidence, tangents upper
    bounds; a bound-quiver "<= n" verdict is one-sided (the upper bound
    itself is <= n).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [parameter_estimate(bq, field, n, samples_per_d=samples_per_d, seed=seed)
            for n in range(1, n_max + 1)]
