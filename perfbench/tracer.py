"""Per-layer spans for wildrank, attached from outside the package.

Each span wraps one function of a wildrank module. Modules import each
other by name (``from .rep import hom_space``), so a span replaces the
function at every binding site: every wildrank module global and every
class attribute that holds the original object. Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts the originals back.

A span records ``calls`` and ``self_s``: its wall time minus the time of
the wrapped calls it made. Self times therefore partition the time that
some span covers, and their sum never exceeds the traced wall time.
Spans stay in memory; :meth:`Tracer.metrics` reads them out at the end.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

# span name -> (module, attribute). ``Class.method`` names a class attribute.
SPANS = {
    "exactlin.echelon": ("exactlin", "_echelon_fp"),
    "exactlin.elim_q": ("exactlin", "_echelon_qq"),
    "exactlin.find_invertible": ("exactlin", "find_invertible_in_span"),
    "exactlin.jordan": ("exactlin", "jordan_nilpotent"),
    "exactlin.nilpotent_hom_basis": ("exactlin", "nilpotent_hom_basis"),
    "rep.hom_space": ("rep", "hom_space"),
    "rep.is_indecomposable": ("rep", "is_indecomposable"),
    "rep.are_isomorphic": ("rep", "are_isomorphic"),
    "rep.factor_polynomial": ("rep", "factor_polynomial"),
    "rep.sample_representation": ("rep", "sample_representation"),
    "rep.in_sincere_subcategory": ("rep", "in_sincere_subcategory"),
    "wildness.eval_tensor": ("wildness", "eval_tensor"),
    "wildness.compose_witness": ("wildness", "compose_witness"),
    "wildness.sincere_witness": ("wildness", "sincere_witness_for_K3"),
    "covering.build_window": ("covering", "build_window"),
    "covering.pushdown": ("covering", "pushdown"),
    "covering.pushdown_bimodule": ("covering", "pushdown_bimodule"),
    "quiver.classify_hereditary": ("quiver", "classify_hereditary"),
    "quiver.is_connected": ("quiver", "Quiver.is_connected"),
    "quiver.build_algebra_table": ("quiver", "build_algebra_table"),
    "tilting.ar_translate_inverse": ("tilting", "ar_translate_inverse"),
    "tilting.is_tilting": ("tilting", "is_tilting"),
    "tilting.endomorphism_algebra": ("tilting", "endomorphism_algebra"),
    "modvariety.tangent_dimension": ("modvariety", "tangent_dimension"),
    "modvariety.orbit_dimension": ("modvariety", "orbit_dimension"),
    "cli.parse_quiver_spec": ("cli", "parse_quiver_spec"),
}

# Counted, not timed: a span on every construction would cost more than
# the constructor it measures.
COUNTERS = {"exactlin.mat.constructed": ("exactlin", "Mat.__init__")}


def echelon_flops(m: int, n: int, r: int) -> float:
    """Field operations of a rank-``r`` echelon form of an ``m x n`` matrix,
    computed from the shapes (leading terms, as in the FFLAS-FFPACK cost
    model): 2mnr - r^2(m + n) + 2r^3/3."""
    return max(0.0, 2.0 * m * n * r - r * r * (m + n) + 2.0 * r ** 3 / 3.0)


class Span:
    __slots__ = ("calls", "self_s", "raised", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float):
        self.extra[key] = self.extra.get(key, 0.0) + value


def _observe_echelon(span: Span, args, result):
    m, n = args[0].shape
    span.add("cells", m * n)
    span.add("flops", echelon_flops(m, n, len(result[1])))


def _observe_find_invertible(span: Span, args, result):
    span.add("hits", result is not None)


def _observe_indecomposable(span: Span, args, result):
    span.add("decided", result.verdict != "inconclusive")


def _observe_isomorphic(span: Span, args, result):
    span.add("trace_pairing", "pairing" in result.detail)


OBSERVERS: dict[str, Callable] = {
    "exactlin.echelon": _observe_echelon,
    "exactlin.find_invertible": _observe_find_invertible,
    "rep.is_indecomposable": _observe_indecomposable,
    "rep.are_isomorphic": _observe_isomorphic,
}


def _resolve(modules: dict, target: tuple[str, str]):
    """Return ``(owner, attribute, original)`` for a ``(module, name)`` pair."""
    mod, name = target
    owner = modules[mod]
    if "." in name:
        cls, name = name.split(".")
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


def _binding_sites(owner, name: str, original) -> list[tuple[object, str]]:
    """Every wildrank module global bound to ``original``, plus ``owner.name``."""
    sites = [(owner, name)]
    if isinstance(owner, type):
        return sites
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "wildrank" or modname.startswith("wildrank.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original and (mod, attr) != (owner, name):
                sites.append((mod, attr))
    return sites


class Tracer:
    """Install spans and counters on the wildrank ``modules`` (name -> module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = {name: Span() for name in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self.sites: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def _span_wrapper(self, name: str, fn):
        span = self.spans[name]
        observe: Optional[Callable] = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dt = clock() - t0
                span.self_s += dt - stack.pop()
                span.calls += 1
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patched:
            return
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for name, target in table.items():
                owner, attr, original = _resolve(self.modules, target)
                sites = _binding_sites(owner, attr, original)
                wrapper = make(name, original)
                for site, site_attr in sites:
                    setattr(site, site_attr, wrapper)
                    self._patched.append((site, site_attr, original))
                self.sites[name] = len(sites)

    def uninstall(self):
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def self_total(self) -> float:
        return sum(s.self_s for s in self.spans.values())

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<span>.calls``, ``<span>.self_s`` and the
        derived ratios, plus the counters."""
        out: dict[str, float] = {}
        for name, s in self.spans.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
        ech = self.spans["exactlin.echelon"]
        out["exactlin.echelon.cells"] = ech.extra.get("cells", 0.0)
        out["exactlin.echelon.flop_rate"] = (
            ech.extra.get("flops", 0.0) / ech.self_s / 1e9 if ech.self_s else 0.0)
        for name, key, metric in (
                ("exactlin.find_invertible", "hits", "hit_ratio"),
                ("rep.is_indecomposable", "decided", "decided_share"),
                ("rep.are_isomorphic", "trace_pairing", "trace_pairing_share")):
            s = self.spans[name]
            out[f"{name}.{metric}"] = s.extra.get(key, 0.0) / s.calls if s.calls else 0.0
        out["rep.sample_representation.raised"] = self.spans["rep.sample_representation"].raised
        out.update(self.counts)
        return out
