"""Command-line surface: quiver-spec files, certificates, reports.

Quiver-spec grammar (line oriented; blank lines and ``#`` comments allowed):

    quiver <name>
    field Q | Fp <p>
    vertex <id> [<id> ...]
    arrow <name>: <src> -> <tgt> [weight <int>,<int>,...]
    relation <coef>*<aN>*...*<a1> [+ <coef>*... ]
    nilbound <L>

Paths compose right to left: ``b*a`` applies a first.  Arrow weights make
the file a covering spec (the grading must leave every relation
homogeneous).  Exit codes: 0 success, 2 parse or semantic error, 3 no
window found, 4 verification failure, 5 inconclusive-dominated run.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exactlin import Field, Mat
from .quiver import (BoundQuiver, Quiver, Relation, RepType,
                     build_algebra_table, classify_hereditary,
                     is_minimal_wild_hereditary, AdmissibilityError)


class SpecError(ValueError):
    """Parse or semantic error with a position."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class ParsedSpec:
    name: str
    field: Field
    bound_quiver: BoundQuiver
    covering: Optional[object]      # CoveringSpec when weights are present
    weights: Optional[dict]


def _split_cols(text: str, sep: str, col: int,
                maxsplit: int = -1) -> list[tuple[str, int]]:
    """Split ``text`` at ``sep``, at most ``maxsplit`` times; each stripped
    piece with its column.

    ``col`` is the column of ``text[0]`` in its line; a piece's column is
    that of its first non-blank character.
    """
    out = []
    for piece in text.split(sep, maxsplit):
        out.append((piece.strip(), col + len(piece) - len(piece.lstrip())))
        col += len(piece) + len(sep)
    return out


def _tokens(line: str) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of a line, each with its column."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_field(ln: int, tokens: list[tuple[str, int]]) -> Field:
    """The field of a ``field Q | field Fp <prime>`` line."""
    parts = [t for t, _ in tokens]
    if len(parts) == 2 and parts[1] == "Q":
        return Field.rationals()
    if len(parts) == 3 and parts[1] == "Fp":
        try:
            return Field.prime(int(parts[2]))
        except ValueError as e:
            raise SpecError(ln, tokens[2][1], str(e))
    raise SpecError(ln, 1, "expected: field Q | field Fp <prime>")


def _scalar(field: Field, ln: int, col: int, text: str, what: str) -> Fraction:
    """The number ``text`` at (ln, col), which must have a value in ``field``."""
    try:
        x = Fraction(text)
        field.coerce(x)
    except (ValueError, ZeroDivisionError):
        raise SpecError(ln, col, f"bad {what} {text!r} over {field!r}")
    return x


#: the ``weight`` keyword of an arrow line: a whole token after the target
_WEIGHT_KEYWORD = re.compile(r"->\s*\S+\s+(weight)(?!\S)")


def parse_quiver_spec(text: str) -> ParsedSpec:
    """Parse the line-oriented quiver-spec format; unknown keys rejected."""
    name = None
    field: Optional[Field] = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    weights: dict[str, tuple[int, ...]] = {}
    relation_lines: list[tuple[int, str, int]] = []
    nilbound: Optional[int] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokens(line)
        parts = [t for t, _ in tokens]
        key = parts[0]
        if key == "quiver":
            if len(parts) != 2:
                raise SpecError(ln, 1, "expected: quiver <name>")
            name = parts[1]
        elif key == "field":
            field = _parse_field(ln, tokens)
        elif key == "vertex":
            if len(parts) < 2:
                raise SpecError(ln, 1, "expected: vertex <id> [...]")
            for v, v_col in tokens[1:]:
                if v in vertices:
                    raise SpecError(ln, v_col, f"duplicate vertex {v}")
                vertices.append(v)
        elif key == "arrow":
            start = line.index(key) + len(key)
            pieces = _split_cols(line[start:], ":", start + 1, 1)
            if len(pieces) != 2:
                raise SpecError(ln, 1, "expected: arrow <name>: <src> -> <tgt>")
            (aname, aname_col), (spec, spec_col) = pieces
            wt = None
            keyword = _WEIGHT_KEYWORD.search(spec)
            if keyword:
                at = keyword.start(1)
                wt_text = spec[at + len("weight"):].strip()
                spec = spec[:at].strip()
                try:
                    wt = tuple(int(x) for x in wt_text.split(","))
                except ValueError:
                    raise SpecError(ln, spec_col + at, f"bad weight tuple {wt_text!r}")
            ends = _split_cols(spec, "->", spec_col, 1)
            if len(ends) != 2:
                raise SpecError(ln, 1, "expected: arrow <name>: <src> -> <tgt>")
            (src, src_col), (tgt, tgt_col) = ends
            if not aname or not src or not tgt:
                raise SpecError(ln, 1, "expected: arrow <name>: <src> -> <tgt>")
            if any(a[0] == aname for a in arrows):
                raise SpecError(ln, aname_col, f"duplicate arrow {aname}")
            for v, v_col, what in ((src, src_col, "source"), (tgt, tgt_col, "target")):
                if v not in vertices:
                    raise SpecError(ln, v_col,
                                    f"arrow {aname}: undeclared {what} vertex {v}")
            arrows.append((aname, src, tgt))
            if wt is not None:
                weights[aname] = wt
        elif key == "relation":
            start = line.index(key) + len(key)
            relation_lines.append((ln, line[start:], start + 1))
        elif key == "nilbound":
            if len(parts) != 2:
                raise SpecError(ln, 1, "expected: nilbound <L>")
            try:
                nilbound = int(parts[1])
            except ValueError:
                raise SpecError(ln, tokens[1][1], "nilbound must be an integer")
            if nilbound < 1:
                raise SpecError(ln, tokens[1][1], "nilbound must be positive")
        else:
            raise SpecError(ln, 1, f"unknown key {key!r}")
    if not vertices:
        raise SpecError(1, 1, "the spec declares no vertex")
    if name is None:
        name = "unnamed"
    if field is None:
        field = Field.prime(101)
    quiver = Quiver(vertices, arrows)
    relations = []
    for ln, body, body_col in relation_lines:
        terms = []
        for term_text, term_col in _split_cols(body, "+", body_col):
            if not term_text:
                raise SpecError(ln, term_col, "empty relation term")
            pieces = _split_cols(term_text, "*", term_col)
            if len(pieces) < 2:
                raise SpecError(ln, term_col,
                                "relation term needs a coefficient and arrows: c*a2*a1")
            coef = _scalar(field, ln, pieces[0][1], pieces[0][0], "coefficient")
            word = [w for w, _ in pieces[1:]]
            for w, w_col in pieces[1:]:
                if not any(a[0] == w for a in arrows):
                    raise SpecError(ln, w_col, f"unknown arrow {w!r} in relation")
            try:
                path = quiver.path(word)
            except ValueError as e:
                raise SpecError(ln, pieces[1][1], str(e))
            terms.append((coef, path))
        try:
            relations.append(Relation(tuple(terms)))
        except ValueError as e:
            raise SpecError(ln, 1, str(e))
    try:
        bq = BoundQuiver(quiver, relations, nilbound=nilbound)
    except ValueError as e:
        raise SpecError(1, 1, str(e))
    covering = None
    if weights:
        from .covering import CoveringSpec
        ranks = {len(w) for w in weights.values()}
        if len(ranks) != 1:
            raise SpecError(1, 1, "arrow weights have inconsistent lengths")
        m = ranks.pop()
        try:
            covering = CoveringSpec(bq, m, weights)
        except ValueError as e:
            raise SpecError(1, 1, f"covering semantic error: {e}")
    return ParsedSpec(name, field, bq, covering, weights or None)


def serialize_quiver_spec(bq: BoundQuiver, name: str,
                          field: Optional[Field] = None,
                          weights: Optional[dict] = None) -> str:
    """Canonical serialization; parse-serialize round-trips exactly."""
    lines = [f"quiver {name}"]
    if field is not None:
        lines.append("field Q" if field.char == 0 else f"field Fp {field.char}")
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
# representation (module) files
# ---------------------------------------------------------------------------

def serialize_representation(rep, name: str, quiver_name: str) -> str:
    """Module file: dims and row-major matrices with exact entries."""
    lines = [f"module {name}", f"over {quiver_name}"]
    f = rep.field
    lines.append("field Q" if f.char == 0 else f"field Fp {f.char}")
    for v in rep.bound_quiver.quiver.vertices:
        lines.append(f"dim {v} {rep.dims[v]}")
    for a in rep.bound_quiver.quiver.arrows:
        m = rep.mats[a.name]
        rows = [" ".join(str(m.entry(i, j)) for j in range(m.cols))
                for i in range(m.rows)]
        lines.append(f"matrix {a.name} " + " ; ".join(rows))
    return "\n".join(lines) + "\n"


def parse_representation(text: str, bq: BoundQuiver):
    """Parse a module file (the format of ``serialize_representation``) over
    ``bq``; returns ``(name, Representation)``.

    Every malformed input raises a positioned ``SpecError``.  Entries are
    read once the whole file is, over its ``field`` line (F101 without one).
    """
    from .rep import Representation
    q = bq.quiver
    name = "unnamed"
    field: Optional[Field] = None
    dims: dict[str, int] = {}
    # arrow -> (line, column of its name, rows of (entry text, column))
    mats_raw: dict[str, tuple[int, int, list[list[tuple[str, int]]]]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokens(line)
        key = tokens[0][0]
        if key == "module":
            name = tokens[1][0] if len(tokens) > 1 else name
        elif key == "over":
            pass
        elif key == "field":
            field = _parse_field(ln, tokens)
        elif key == "dim":
            if len(tokens) != 3:
                raise SpecError(ln, 1, "expected: dim <vertex> <d>")
            (v, v_col), (d_text, d_col) = tokens[1:]
            if v not in q.vertices:
                raise SpecError(ln, v_col, f"unknown vertex {v!r}")
            try:
                dims[v] = int(d_text)
            except ValueError:
                dims[v] = -1
            if dims[v] < 0:
                raise SpecError(ln, d_col, f"dimension must be a nonnegative integer, got {d_text!r}")
        elif key == "matrix":
            if len(tokens) < 2:
                raise SpecError(ln, 1, "expected: matrix <arrow> <row> ; <row> ...")
            aname, a_col = tokens[1]
            if aname not in {a.name for a in q.arrows}:
                raise SpecError(ln, a_col, f"unknown arrow {aname!r}")
            start = a_col - 1 + len(aname)
            rows = [[(x, col + x_col - 1) for x, x_col in _tokens(row)]
                    for row, col in _split_cols(line[start:], ";", start + 1)]
            mats_raw[aname] = (ln, a_col, [r for r in rows if r])
        else:
            raise SpecError(ln, 1, f"unknown key {key!r}")
    if field is None:
        field = Field.prime(101)
    mats = {}
    for aname, (ln, a_col, rows) in mats_raw.items():
        a = q.arrow(aname)
        shape = (dims.get(a.target, 0), dims.get(a.source, 0))
        if rows and (len(rows) != shape[0] or any(len(r) != shape[1] for r in rows)):
            raise SpecError(ln, a_col, f"arrow {aname}: matrix rows do not form the "
                                       f"{shape[0]}x{shape[1]} matrix its dims ask for")
        if rows:
            mats[aname] = Mat.from_rows(field, [[_scalar(field, ln, col, x, "entry")
                                                 for x, col in row] for row in rows])
    try:
        return name, Representation(bq, field, dims, mats)
    except ValueError as e:
        raise SpecError(1, 1, str(e))


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertStep:
    rule: str              # explicit-bimodule | compose | factor-rule | morita-rule | covering-rule
    rank_factor: int       # multiplicative contribution to the bound (1 for factor-rule)
    note: str = ""


class Derivation:
    """Bound arithmetic of a certificate: the bound is the product of the
    rank factors of its ``steps``, so it can be recomputed from them alone."""

    def recompute_bound(self) -> int:
        return math.prod(s.rank_factor for s in self.steps)

    def check_arithmetic(self) -> bool:
        return self.recompute_bound() == self.bound


@dataclass
class CertificateDoc(Derivation):
    """Textual certificate with a stable field order; round-trips exactly."""

    name: str
    algebra_desc: str
    algebra_hash: str
    algebra_dim: int
    target_kind: str
    field_desc: str
    seed: str
    steps: list[CertStep]
    bound: int
    verification: str                       # single summary line or "none"
    notes: list[str]
    version: str = __version__

    def to_text(self) -> str:
        lines = [
            "wildrank-certificate 1",
            f"name {self.name}",
            f"algebra {self.algebra_desc}",
            f"algebra-hash {self.algebra_hash}",
            f"algebra-dim {self.algebra_dim}",
            f"target-kind {self.target_kind}",
            f"field {self.field_desc}",
            f"seed {self.seed}",
        ]
        for s in self.steps:
            lines.append(f"step {s.rule} factor {s.rank_factor} note {s.note}")
        lines.append(f"bound {self.bound}")
        lines.append(f"verification {self.verification}")
        for n in self.notes:
            lines.append(f"note {n}")
        lines.append(f"toolkit-version {self.version}")
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CertificateDoc:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "wildrank-certificate 1":
        raise SpecError(1, 1, "not a wildrank certificate")
    kv = {}
    key_line = {}
    steps = []
    notes = []

    def integer(ln: int, col: int, text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise SpecError(ln, col, f"{what} must be an integer, got {text!r}")

    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "step":
            rule, _, tail = rest.partition(" factor ")
            factor_text, _, note = tail.partition(" note ")
            factor = integer(ln, len(line) - len(tail) + 1, factor_text, "step factor")
            steps.append(CertStep(rule.strip(), factor, note))
        elif key == "note":
            notes.append(rest)
        else:
            kv[key] = rest
            key_line[key] = (ln, len(key) + 2)
    try:
        return CertificateDoc(
            name=kv["name"],
            algebra_desc=kv["algebra"],
            algebra_hash=kv["algebra-hash"],
            algebra_dim=integer(*key_line["algebra-dim"], kv["algebra-dim"], "algebra-dim"),
            target_kind=kv["target-kind"],
            field_desc=kv["field"],
            seed=kv["seed"],
            steps=steps,
            bound=integer(*key_line["bound"], kv["bound"], "bound"),
            verification=kv["verification"],
            notes=notes,
            version=kv.get("toolkit-version", __version__),
        )
    except KeyError as e:
        raise SpecError(1, 1, f"certificate missing field {e}")


def certificate_doc(cert, name: str, verification_summary: str) -> CertificateDoc:
    return CertificateDoc(
        name=name,
        algebra_desc=cert.target_desc,
        algebra_hash=cert.target_hash,
        algebra_dim=cert.target_dim,
        target_kind=cert.target_kind,
        field_desc=cert.field_desc,
        seed=str(cert.seed),
        steps=list(cert.steps),
        bound=cert.bound,
        verification=verification_summary,
        notes=list(cert.notes),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(text: str) -> tuple[str, int]:
    try:
        spec = parse_quiver_spec(text)
    except SpecError as e:
        return (f"error: {e}", 2)
    bq = spec.bound_quiver
    lines = [f"quiver {spec.name}: {len(bq.quiver.vertices)} vertices, "
             f"{len(bq.quiver.arrows)} arrows, {len(bq.relations)} relations"]
    if not bq.is_hereditary():
        lines.append("bound quiver with relations - hereditary trichotomy unavailable")
        try:
            table = build_algebra_table(bq, spec.field)
            lines.append(f"algebra dimension {table.dimension} over {spec.field!r}")
        except AdmissibilityError as e:
            return ("\n".join(lines + [f"error: {e}"]), 2)
        return ("\n".join(lines), 0)
    for comp in bq.quiver.connected_components():
        label = "[" + " ".join(comp.vertices) + "]"
        if comp.has_loops():
            lines.append(f"component {label}: has loops - infinite-dimensional "
                         f"hereditary algebra, trichotomy unavailable")
            continue
        rep_type = classify_hereditary(comp)
        extra = ""
        if rep_type == RepType.WILD:
            flag = is_minimal_wild_hereditary(comp)
            extra = f", minimal wild hereditary: {'yes' if flag else 'no'} " \
                    f"(vertex-deletion criterion)"
        lines.append(f"component {label}: {rep_type.value}{extra}")
    return ("\n".join(lines), 0)


def inconclusive_dominated(report) -> bool:
    """More than half of the performed checks were inconclusive."""
    checked = report.checked_total
    return bool(checked) and report.inconclusive_total * 2 > checked


def _merged_summary(reports) -> str:
    passed = failed = inconclusive = samples = 0
    for r in reports:
        if r is None:
            continue
        counts = [r.indecomposability, r.iso_classes]
        if hasattr(r, "hom_dims"):
            counts.append(r.hom_dims)
        if hasattr(r, "bimodule_agreement"):
            counts.append(r.bimodule_agreement)
        if getattr(r, "sincere", None) is not None:
            counts.append(r.sincere)
        for c in counts:
            passed += c.passed
            failed += c.failed
            inconclusive += c.inconclusive
        samples += r.samples
    return f"samples {samples} pass {passed} fail {failed} inconclusive {inconclusive}"


def cmd_certify(text: str, radius: int = 2, samples: int = 30, max_dim: int = 1,
                seed=0, pushdown_samples: int = 30, pushdown_max_dim: int = 6,
                out_path: Optional[str] = None,
                debug_corrupt_witness: bool = False) -> tuple[str, int]:
    from .covering import CoveringSpec, covering_criterion, verify_pushdown
    from .wildness import WitnessBimodule, verify_witness
    try:
        spec = parse_quiver_spec(text)
    except SpecError as e:
        return (f"error: {e}", 2)
    cov = spec.covering
    if cov is None:
        try:
            cov = CoveringSpec(spec.bound_quiver, 1, {})
        except ValueError as e:
            return (f"error: {e}", 2)
    got = covering_criterion(cov, radius, field=spec.field, seed=seed)
    if got is None:
        return (f"no certifiable wild window found within radius {radius} "
                f"(this is not a tameness claim)", 3)
    cert, window = got
    witness = cert.bimodule
    if debug_corrupt_witness:
        action = dict(witness.action)
        for i, p in enumerate(witness.target.basis):
            if p.arrows:
                action[i] = {}
        witness = WitnessBimodule(witness.target, witness.source, witness.rank,
                                  action, full=False)
    report_w = verify_witness(witness, samples=samples, max_dim=max_dim,
                              seed=seed, check_sincere=0)
    report_p = verify_pushdown(window, samples=pushdown_samples,
                               max_total_dim=pushdown_max_dim, seed=seed,
                               field=spec.field)
    summary = _merged_summary([report_w, report_p])
    doc = certificate_doc(cert, spec.name, summary)
    lines = [doc.to_text().rstrip("\n"), "", report_w.to_text(), "", report_p.to_text()]
    output = "\n".join(lines)
    if not report_w.valid or not report_p.valid:
        return (output + "\nverification FAILED", 4)
    if inconclusive_dominated(report_w):
        return (output + "\ninconclusive-dominated run", 5)
    if not doc.check_arithmetic():
        return (output + "\ncertificate arithmetic recheck FAILED", 4)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc.to_text())
    return (output, 0)


def cmd_variety(text: str, nmax: int = 2, samples: int = 8, seed=0) -> tuple[str, int]:
    from .modvariety import stratum_probe
    try:
        spec = parse_quiver_spec(text)
    except SpecError as e:
        return (f"error: {e}", 2)
    try:
        probes = stratum_probe(spec.bound_quiver, spec.field, nmax,
                               samples_per_d=samples, seed=seed)
    except ValueError as e:
        return (f"error: {e}", 2)
    lines = [f"variety report for {spec.name} (heuristic; see markers)"]
    for n, rep, line in probes:
        lines.append("")
        lines.append(rep.to_text())
    lines.append("")
    lines.append("summary")
    for n, rep, line in probes:
        lines.append(line.to_text())
    return ("\n".join(lines), 0)


def cmd_tilt(text: str, depth: int = 1) -> tuple[str, int]:
    from .tilting import (CyclicQuiverError, TiltingCandidate, endomorphism_algebra,
                          enumerate_preprojectives, is_tilting)
    import itertools as it
    try:
        spec = parse_quiver_spec(text)
    except SpecError as e:
        return (f"error: {e}", 2)
    bq = spec.bound_quiver
    if not bq.is_hereditary():
        return ("error: tilting analysis needs a hereditary (relation-free) quiver", 2)
    try:
        pool = enumerate_preprojectives(bq, spec.field, depth)
    except CyclicQuiverError as e:
        return (f"error: {e}", 2)
    lines = [f"preprojectives of {spec.name} up to depth {depth}:"]
    for p in pool:
        lines.append(f"  tau^-{p.shift} P({p.projective_vertex}): "
                     f"dim {list(p.rep.dim_vector())} sincere {'yes' if p.sincere else 'no'}")
    n = len(bq.quiver.vertices)
    lines.append("tilting candidates (with at least one projective summand):")
    found = 0
    for combo in it.combinations(range(len(pool)), n):
        items = [pool[i] for i in combo]
        if not any(x.shift == 0 for x in items):
            continue
        cand = TiltingCandidate(items)
        if not is_tilting(cand):
            continue
        found += 1
        lines.append(f"  tilting: {' + '.join(cand.labels())}")
        try:
            pres, table = endomorphism_algebra(cand, spec.field)
            spec_text = serialize_quiver_spec(pres, f"end_{spec.name}_{found}",
                                              field=spec.field)
            lines.append(f"    End dimension {table.dimension}; presentation:")
            for sl in spec_text.rstrip("\n").splitlines():
                lines.append(f"      {sl}")
        except ValueError as e:
            lines.append(f"    End presentation failed: {e}")
    if not found:
        lines.append("  none found at this depth")
    return ("\n".join(lines), 0)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="wildrank",
                                     description="bound-quiver wildness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="hereditary trichotomy per component")
    p_classify.add_argument("spec")

    p_certify = sub.add_parser("certify", help="covering criterion rank certificate")
    p_certify.add_argument("spec")
    p_certify.add_argument("--radius", type=int, default=2)
    p_certify.add_argument("--samples", type=int, default=30)
    p_certify.add_argument("--max-dim", type=int, default=1)
    p_certify.add_argument("--seed", default="0")
    p_certify.add_argument("--pushdown-samples", type=int, default=30)
    p_certify.add_argument("--pushdown-max-dim", type=int, default=6)
    p_certify.add_argument("--out", default=None)
    p_certify.add_argument("--debug-corrupt-witness", action="store_true",
                           help="negative-path fixture: corrupt the witness before verification")

    p_variety = sub.add_parser("variety", help="module-variety parameter probe")
    p_variety.add_argument("spec")
    p_variety.add_argument("--nmax", type=int, default=2)
    p_variety.add_argument("--samples", type=int, default=8)
    p_variety.add_argument("--seed", default="0")

    p_tilt = sub.add_parser("tilt", help="preprojectives and tilting candidates")
    p_tilt.add_argument("spec")
    p_tilt.add_argument("--depth", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        text = _read(args.spec)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "classify":
        out, code = cmd_classify(text)
    elif args.command == "certify":
        out, code = cmd_certify(text, radius=args.radius, samples=args.samples,
                                max_dim=args.max_dim, seed=args.seed,
                                pushdown_samples=args.pushdown_samples,
                                pushdown_max_dim=args.pushdown_max_dim,
                                out_path=args.out,
                                debug_corrupt_witness=args.debug_corrupt_witness)
    elif args.command == "variety":
        out, code = cmd_variety(text, nmax=args.nmax, samples=args.samples,
                                seed=args.seed)
    else:
        out, code = cmd_tilt(text, depth=args.depth)
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
