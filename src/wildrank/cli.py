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
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exactlin import Field, Mat
from .quiver import (BoundQuiver, Quiver, Relation, RepType,
                     build_algebra_table, classify_hereditary,
                     is_minimal_wild_hereditary, serialize_quiver_spec, AdmissibilityError)
from .rep import Representation
from .modvariety import stratum_probe
from .tilting import (CyclicQuiverError, endomorphism_algebra, enumerate_preprojectives,
                      tilting_candidates)
from .wildness import (CertStep, CheckCounts, WitnessCertificate,
                       verify_witness)
from .covering import CoveringSpec, InhomogeneousRelation, covering_criterion, verify_pushdown

__all__ = ["cmd_certify", "cmd_tilt", "cmd_variety", "main", "parse_certificate",
           "parse_quiver_spec", "parse_representation", "serialize_representation"]


#: most arrow names the paths of a parsed spec's presentation may hold
#: together (``BoundQuiver.path_letters``): about 8 MB of path tuples alone;
#: a larger nilbound is refused before a path is enumerated
MAX_PATH_LETTERS = 10 ** 6


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
    covering: Optional[CoveringSpec]    # when weights are present
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
    """The field of a ``field Q | field Fp <prime>`` line, the inverse of
    ``Field.spec``."""
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


def _once(first_line: dict[str, int], key: str, ln: int) -> None:
    """Record ``key`` as set on line ``ln``; a repeat is a ``SpecError`` there."""
    if key in first_line:
        raise SpecError(ln, 1, f"repeated key {key!r}; first on line {first_line[key]}")
    first_line[key] = ln


def parse_quiver_spec(text: str) -> ParsedSpec:
    """Parse the line-oriented quiver-spec format; unknown and repeated keys rejected."""
    name = "unnamed"
    field = Field.prime(101)
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    weights: dict[str, tuple[int, ...]] = {}
    relation_lines: list[tuple[int, str, int]] = []
    nilbound: Optional[int] = None
    nilbound_at = (1, 1)
    first_line: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokens(line)
        parts = [t for t, _ in tokens]
        key = parts[0]
        if key in ("quiver", "field", "nilbound"):
            _once(first_line, key, ln)
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
                first = next(iter(weights.items()), None)
                if first is not None and len(first[1]) != len(wt):
                    raise SpecError(ln, spec_col + at,
                                    f"arrow weights have inconsistent lengths: {len(wt)} here, "
                                    f"{len(first[1])} on arrow {first[0]}")
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
            nilbound_at = (ln, tokens[1][1])
        else:
            raise SpecError(ln, 1, f"unknown key {key!r}")
    if not vertices:
        raise SpecError(1, 1, "the spec declares no vertex")
    quiver = Quiver(vertices, arrows)
    relations, term_cols = [], []
    for ln, body, body_col in relation_lines:
        terms = []
        term_cols.append([])
        for term_text, term_col in _split_cols(body, "+", body_col):
            term_cols[-1].append(term_col)
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
    if bq.path_letters(MAX_PATH_LETTERS) > MAX_PATH_LETTERS:
        raise SpecError(*nilbound_at,
                        f"nilbound {bq.nilbound} is too large: the paths of length at most "
                        f"{bq.window()} hold more than {MAX_PATH_LETTERS} arrows")
    covering = None
    if weights:
        try:
            covering = CoveringSpec(bq, len(next(iter(weights.values()))), weights)
        except InhomogeneousRelation as e:
            k = relations.index(e.relation)
            raise SpecError(relation_lines[k][0], term_cols[k][e.term],
                            f"covering semantic error: {e}")
    return ParsedSpec(name, field, bq, covering, weights or None)


# ---------------------------------------------------------------------------
# representation (module) files
# ---------------------------------------------------------------------------

def serialize_representation(rep, name: str, quiver_name: str) -> str:
    """Module file: dims and row-major matrices with exact entries."""
    lines = [f"module {name}", f"over {quiver_name}", f"field {rep.field.spec}"]
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

    Every malformed input, a repeated ``module``, ``over``, ``field``,
    ``dim <v>`` or ``matrix <a>`` line too, raises a positioned
    ``SpecError``.  Entries are read once the whole file is, over its
    ``field`` line (F101 without one).
    """
    q = bq.quiver
    name = "unnamed"
    field = Field.prime(101)
    dims: dict[str, int] = {}
    # arrow -> (line, column of its name, rows of (entry text, column))
    mats_raw: dict[str, tuple[int, int, list[list[tuple[str, int]]]]] = {}
    first_line: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokens(line)
        key = tokens[0][0]
        if key in ("module", "over", "field"):
            _once(first_line, key, ln)
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
            _once(first_line, f"dim {v}", ln)
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
            _once(first_line, f"matrix {aname}", ln)
            start = a_col - 1 + len(aname)
            rows = [[(x, col + x_col - 1) for x, x_col in _tokens(row)]
                    for row, col in _split_cols(line[start:], ";", start + 1)]
            mats_raw[aname] = (ln, a_col, [r for r in rows if r])
        else:
            raise SpecError(ln, 1, f"unknown key {key!r}")
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

#: the keys of a certificate file that appear once; ``step`` and ``note``
#: lines may repeat
_CERT_KEYS = ("name", "algebra", "algebra-hash", "algebra-dim", "target-kind", "field",
              "seed", "bound", "verification", "toolkit-version")


def parse_certificate(text: str) -> WitnessCertificate:
    """Read a certificate file (``WitnessCertificate.to_text``); unknown and
    repeated keys are rejected."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "wildrank-certificate 1":
        raise SpecError(1, 1, "not a wildrank certificate")
    kv = {}
    first_line: dict[str, int] = {}
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
        elif key not in _CERT_KEYS:
            raise SpecError(ln, 1, f"unknown key {key!r}")
        else:
            _once(first_line, key, ln)
            kv[key] = rest

    def value(key: str) -> int:
        return integer(first_line[key], len(key) + 2, kv[key], key)

    try:
        return WitnessCertificate(
            name=kv["name"],
            target_desc=kv["algebra"],
            target_hash=kv["algebra-hash"],
            target_dim=value("algebra-dim"),
            target_kind=kv["target-kind"],
            field_desc=kv["field"],
            seed=kv["seed"],
            steps=tuple(steps),
            bound=value("bound"),
            verification=kv["verification"],
            notes=tuple(notes),
            version=kv.get("toolkit-version", __version__),
        )
    except KeyError as e:
        raise SpecError(1, 1, f"certificate missing field {e}")


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
    """The samples and the check counts of ``reports``, summed."""
    counts = sum((r.counts for r in reports), CheckCounts())
    return f"samples {sum(r.samples for r in reports)} {counts.as_text()}"


def cmd_certify(text: str, radius: int = 2, samples: int = 30, max_dim: int = 1,
                seed=0, pushdown_samples: int = 30, pushdown_max_dim: int = 6,
                out_path: Optional[str] = None) -> tuple[str, int]:
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
    report_w = verify_witness(cert.bimodule, samples=samples, max_dim=max_dim,
                              seed=seed, check_sincere=0)
    report_p = verify_pushdown(window, samples=pushdown_samples,
                               max_total_dim=pushdown_max_dim, seed=seed,
                               field=spec.field)
    summary = _merged_summary([report_w, report_p])
    doc = replace(cert, name=spec.name, verification=summary)
    lines = [doc.to_text().rstrip("\n"), "", report_w.to_text(), "", report_p.to_text()]
    output = "\n".join(lines)
    if not report_w.valid or not report_p.valid:
        return (output + "\nverification FAILED", 4)
    if not doc.check_arithmetic():
        return (output + "\ncertificate arithmetic recheck FAILED", 4)
    if inconclusive_dominated(report_w):
        return (output + "\ninconclusive-dominated run", 5)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(doc.to_text())
        except OSError as e:
            return (output + f"\nerror: cannot write the certificate to {out_path}: "
                             f"{e.strerror or e}", 2)
    return (output, 0)


def cmd_variety(text: str, nmax: int = 2, samples: int = 8, seed=0) -> tuple[str, int]:
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
    for rep in probes:
        lines += ["", rep.to_text()]
    lines += ["", "summary"] + [rep.summary() for rep in probes]
    return ("\n".join(lines), 0)


def cmd_tilt(text: str, depth: int = 1) -> tuple[str, int]:
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
    lines.append("tilting candidates (with at least one projective summand):")
    found = 0
    for found, cand in enumerate(tilting_candidates(pool, len(bq.quiver.vertices)), start=1):
        lines.append(f"  tilting: {' + '.join(cand.labels())}")
        try:
            pres, table = endomorphism_algebra(cand)
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


def _at_least(low: int):
    """An argparse type: an ``int`` of at least ``low``, else a usage error
    (exit 2 with a message naming the option)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="wildrank",
                                     description="bound-quiver wildness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="hereditary trichotomy per component")
    p_classify.add_argument("spec")

    p_certify = sub.add_parser("certify", help="covering criterion rank certificate")
    p_certify.add_argument("spec")
    positive, non_negative = _at_least(1), _at_least(0)
    p_certify.add_argument("--radius", type=non_negative, default=2)
    p_certify.add_argument("--samples", type=positive, default=30)
    p_certify.add_argument("--max-dim", type=positive, default=1)
    p_certify.add_argument("--seed", default="0")
    p_certify.add_argument("--pushdown-samples", type=positive, default=30)
    p_certify.add_argument("--pushdown-max-dim", type=positive, default=6)
    p_certify.add_argument("--out", default=None)

    p_variety = sub.add_parser("variety", help="module-variety parameter probe")
    p_variety.add_argument("spec")
    p_variety.add_argument("--nmax", type=positive, default=2)
    p_variety.add_argument("--samples", type=positive, default=8)
    p_variety.add_argument("--seed", default="0")

    p_tilt = sub.add_parser("tilt", help="preprojectives and tilting candidates")
    p_tilt.add_argument("spec")
    p_tilt.add_argument("--depth", type=non_negative, default=1)

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
                                out_path=args.out)
    elif args.command == "variety":
        out, code = cmd_variety(text, nmax=args.nmax, samples=args.samples,
                                seed=args.seed)
    else:
        out, code = cmd_tilt(text, depth=args.depth)
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
