from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import F101, fixture_text, make_relation, QQ, rep_from_lists

from wildrank.cli import (SpecError, cmd_certify, cmd_classify, cmd_tilt, cmd_variety,
                          parse_certificate, parse_quiver_spec,
                          parse_representation, serialize_quiver_spec,
                          serialize_representation)
import wildrank.cli as cli_module
import wildrank.tilting as tilting_module
from wildrank.covering import covering_criterion
from wildrank.wildness import (CertStep, CheckCounts, WitnessBimodule, WitnessCertificate,
                               WitnessReport)


def test_parse_minimal_spec():
    spec = parse_quiver_spec("quiver pt\nfield Q\nvertex v\nnilbound 1\n")
    assert spec.name == "pt" and spec.field.char == 0
    assert len(spec.bound_quiver.quiver.vertices) == 1


def test_parse_three_loop_fixture():
    spec = parse_quiver_spec(fixture_text("three_loop_rad2.quiver"))
    assert spec.field.char == 101
    assert len(spec.bound_quiver.relations) == 9
    assert spec.covering is not None
    assert spec.covering.group_rank == 1


def test_parse_errors_positioned():
    with pytest.raises(SpecError) as e:
        parse_quiver_spec("vertex a\narrow f: a -> b\n")
    assert e.value.line == 2 and "undeclared" in str(e.value)
    with pytest.raises(SpecError):
        parse_quiver_spec("frobnicate 3\n")
    with pytest.raises(SpecError) as e2:
        parse_quiver_spec("vertex a\narrow f: a -> a\nrelation 1*f + x\n")
    assert e2.value.line == 3
    with pytest.raises(SpecError):
        parse_quiver_spec("field Fp 4\n")


def test_relation_errors_point_at_the_token():
    # columns count from the start of the line, at the offending token
    head = "quiver r\nfield Fp 101\nvertex v\narrow x: v -> v\n"
    for rel, col, token, what in (
            ("relation 1*x*x + 1*q*x", 20, "q", "unknown arrow"),
            ("relation 1*x*x + 2*x*x +  zz*x", 27, "zz", "bad coefficient"),
            ("relation 1*x*x + 1/101*x*x", 18, "1/101", "bad coefficient"),
            ("  relation 1*x * q*x", 18, "q", "unknown arrow"),
            ("relation 1*x*x + x", 18, "x", "needs a coefficient")):
        with pytest.raises(SpecError) as e:
            parse_quiver_spec(head + rel + "\n")
        assert (e.value.line, e.value.col) == (5, col) and what in str(e.value)
        assert rel[col - 1:].startswith(token)


def test_vertex_and_arrow_errors_point_at_the_token():
    # columns come from the token's own position, not its first textual match
    head = "quiver r\nvertex v\n"
    for line, col, token, what in (
            ("arrow f: v -> a", 15, "a", "undeclared target vertex a"),
            ("arrow av: a -> v", 11, "a", "undeclared source vertex a"),
            ("vertex b b", 10, "b", "duplicate vertex b"),
            ("  vertex w x w", 14, "w", "duplicate vertex w"),
            ("arrow w: v -> v\narrow w: v -> v", 7, "w", "duplicate arrow w"),
            ("arrow weight: v -> v weight 1,x", 22, "weight", "bad weight tuple"),
            ("nilbound nil", 10, "nil", "nilbound must be an integer")):
        with pytest.raises(SpecError) as e:
            parse_quiver_spec(head + line + "\n")
        bad = line.splitlines()[-1]
        assert (e.value.line, e.value.col) == (2 + len(line.splitlines()), col)
        assert what in str(e.value) and bad[col - 1:].startswith(token)


def test_grading_errors_point_at_their_arrow_or_relation():
    head = "# a graded spec\nquiver w\nvertex v\narrow x: v -> v weight 1\n"
    # the first arrow whose weight length differs from the first weighted
    # arrow's, at its weight keyword; an unweighted arrow in between is fine
    lengths = head + "arrow y: v -> v\narrow z: v -> v  weight 1,0\nnilbound 2\n"
    # the relation's own line, at its first term of another weight
    grading = head + ("arrow y: v -> v weight 2\nrelation 1*x*x\n"
                      "relation 1*x*x + -1*x*y + 1*y*x\nnilbound 3\n")
    for text, line, col, token, what in (
            (lengths, 6, 18, "weight 1,0",
             "arrow weights have inconsistent lengths: 2 here, 1 on arrow x"),
            (grading, 7, 18, "-1*x*y", "relation 1*x*x + -1*x*y + 1*y*x is not homogeneous")):
        with pytest.raises(SpecError) as e:
            parse_quiver_spec(text)
        assert (e.value.line, e.value.col) == (line, col) and what in str(e.value)
        assert text.splitlines()[line - 1][col - 1:].startswith(token)
        out, code = cmd_certify(text, radius=1, samples=1, max_dim=1, seed="0")
        assert code == 2 and out.startswith(f"error: line {line}, col {col}: ")


def test_weight_keyword_is_a_whole_token():
    head = "quiver w\nfield Fp 101\nvertex weightless v\n"
    spec = parse_quiver_spec(head + "arrow f: weightless -> v weight 1\n")
    assert spec.weights == {"f": (1,)}
    assert [(a.source, a.target) for a in spec.bound_quiver.quiver.arrows] == [("weightless", "v")]
    # a bad tuple still points at its weight keyword
    for line, col in (("arrow f: weightless -> v weight 1,x", 26),
                      ("arrow f: weightless -> v  weight", 27),
                      ("arrow f: v -> weightless weight a", 26)):
        with pytest.raises(SpecError) as e:
            parse_quiver_spec(head + line + "\n")
        assert (e.value.line, e.value.col) == (4, col) and "bad weight tuple" in str(e.value)
        assert line[col - 1:].startswith("weight ") or line[col - 1:] == "weight"


def test_a_nilbound_too_large_to_enumerate_exits_2_at_its_token(tmp_path, monkeypatch):
    # three loops at nilbound 999999999999 would list 3^L paths: refused
    # while parsing, at the number, before a path is enumerated
    import wildrank.quiver as quiver_module
    monkeypatch.setattr(quiver_module, "_enumerate_paths",
                        lambda *args: pytest.fail("paths enumerated"))
    base = fixture_text("three_loop_rad2.quiver")
    text = base.replace("nilbound 2", "nilbound 999999999999")
    line = next(k for k, x in enumerate(text.splitlines(), 1) if x.startswith("nilbound"))
    with pytest.raises(SpecError) as e:
        parse_quiver_spec(text)
    assert (e.value.line, e.value.col) == (line, 10) and "nilbound 999999999999" in str(e.value)
    out, code = cmd_classify(text)
    assert code == 2 and out.startswith(f"error: line {line}, col 10")
    spec = tmp_path / "big.quiver"
    spec.write_text(text)
    from wildrank.cli import main
    assert main(["classify", str(spec)]) == 2
    # the bound is on the arrows the paths hold: nilbound 10 (841,450 of
    # them) parses, 11 does not, and one loop is refused too; an acyclic
    # quiver's paths stop, whatever the nilbound
    assert parse_quiver_spec(base.replace("nilbound 2", "nilbound 10")).bound_quiver.nilbound == 10
    with pytest.raises(SpecError):
        parse_quiver_spec(base.replace("nilbound 2", "nilbound 11"))
    with pytest.raises(SpecError):
        parse_quiver_spec("quiver l\nvertex v\narrow x: v -> v\nnilbound 999999999999\n")
    acyclic = "quiver a\nvertex v w\narrow x: v -> w\nnilbound 999999999999\n"
    assert parse_quiver_spec(acyclic).bound_quiver.path_letters(cli_module.MAX_PATH_LETTERS) == 3


def test_indented_lines_parse_like_flush_ones():
    text = "quiver r\nvertex v\narrow x: v -> v\nrelation 1*x*x\nnilbound 2\n"
    indented = "\n".join("  " + line for line in text.splitlines()) + "\n"
    assert parse_quiver_spec(indented).bound_quiver == parse_quiver_spec(text).bound_quiver


def test_coefficient_undefined_over_field_exits_2(tmp_path):
    # 1/101 has no value in F101: a positioned error, not a ZeroDivisionError
    text = "quiver d\nfield Fp 101\nvertex v\narrow x: v -> v\nrelation 1/101*x*x\nnilbound 2\n"
    with pytest.raises(SpecError) as e:
        parse_quiver_spec(text)
    assert e.value.line == 5 and "1/101" in str(e.value)
    out, code = cmd_classify(text)
    assert code == 2 and out.startswith("error: line 5")
    spec = tmp_path / "d.quiver"
    spec.write_text(text)
    from wildrank.cli import main
    assert main(["classify", str(spec)]) == 2
    # the same coefficient is fine over Q
    assert parse_quiver_spec(text.replace("Fp 101", "Q")).bound_quiver.relations


def test_empty_spec_rejected():
    for text in ("", "# only a comment\n\nquiver none\nfield Q\n"):
        with pytest.raises(SpecError):
            parse_quiver_spec(text)
        out, code = cmd_classify(text)
        assert code == 2 and out.startswith("error:")


def test_certificate_non_integer_factor_rejected():
    text = WitnessCertificate(
        name="demo", target_desc="x", target_hash="00", target_dim=1,
        target_kind="algebra", field_desc="F101", seed="0",
        steps=(CertStep("explicit-bimodule", 3, "w"),), bound=3,
        verification="none", notes=()).to_text()
    # columns point at the value itself, not at its first textual match
    for bad, line, col in ((text.replace("factor 3", "factor 2.5"), 9, 31),
                           (text.replace("factor 3", "factor e"), 9, 31),
                           (text.replace("bound 3", "bound 2.5"), 10, 7),
                           (text.replace("bound 3", "bound bound"), 10, 7),
                           (text.replace("algebra-dim 1", "algebra-dim one"), 5, 13)):
        with pytest.raises(SpecError) as e:
            parse_certificate(bad)
        assert e.value.line == line and "integer" in str(e.value)
        assert e.value.col == col


def test_inhomogeneous_weights_rejected():
    text = ("quiver bad\nvertex v\narrow x: v -> v weight 1\n"
            "arrow y: v -> v weight 2\nrelation 1*x*x + -1*y*x\nnilbound 4\n")
    with pytest.raises(SpecError) as e:
        parse_quiver_spec(text)
    assert "homogeneous" in str(e.value)


def test_round_trip_canonical():
    for name in ("three_loop_rad2.quiver", "k3.quiver", "a2.quiver",
                 "loop_x2.quiver", "k2.quiver"):
        spec = parse_quiver_spec(fixture_text(name))
        canon = serialize_quiver_spec(spec.bound_quiver, spec.name, spec.field,
                                      spec.weights)
        spec2 = parse_quiver_spec(canon)
        canon2 = serialize_quiver_spec(spec2.bound_quiver, spec2.name,
                                       spec2.field, spec2.weights)
        assert canon == canon2
        assert spec.bound_quiver == spec2.bound_quiver


def test_representation_file_round_trip(k2_bq, f101):
    from wildrank.rep import Representation, are_isomorphic
    rep = rep_from_lists(k2_bq, f101, {"1": 1, "2": 2},
                         {"a": [[1], [2]], "b": [[3], [4]]})
    text = serialize_representation(rep, "m", "k2")
    name, back = parse_representation(text, k2_bq)
    assert name == "m"
    assert back.dim_vector() == rep.dim_vector()
    assert are_isomorphic(rep, back, seed=0).verdict == "yes"
    assert serialize_representation(back, "m", "k2") == text


#: a module over the Kronecker quiver 1 => 2 with dims (2, 1): a and b are 1 x 2
K2_MODULE = "module m\nover k2\nfield Fp 101\ndim 1 2\ndim 2 1\nmatrix a 1 2\nmatrix b 3 4\n"


@pytest.mark.parametrize("line, bad, col", [
    (3, "field", 1),
    (3, "field Fp 4", 10),
    (4, "dim 1 x", 7),
    (4, "dim 1 -2", 7),
    (4, "dim 7 2", 5),
    (4, "dim 1", 1),
    (6, "matrix a 1 q", 12),
    (6, "matrix a 1 1/0", 12),
    (6, "matrix a 1 1/101", 12),
    (6, "matrix a 1 2 3", 8),
    (6, "matrix a 1 ; 2", 8),
    (6, "matrix z 1 2", 8),
    (6, "matrix", 1),
    (6, "frobnicate", 1),
])
def test_representation_errors_positioned(k2_bq, line, bad, col):
    lines = K2_MODULE.splitlines()
    lines[line - 1] = bad
    with pytest.raises(SpecError) as e:
        parse_representation("\n".join(lines), k2_bq)
    assert (e.value.line, e.value.col) == (line, col), str(e.value)


@pytest.mark.parametrize("text, line, key, first", [
    *((K2_MODULE + repeat + "\n", 8, key, first) for repeat, key, first in (
        ("module n", "module", 1), ("over k3", "over", 2), ("field Q", "field", 3),
        ("dim 1 1", "dim 1", 4), ("matrix a 5 7", "matrix a", 6))),
    # a later line overrode the first: [[7]], and 1/2 accepted over F101
    ("dim 1 1\ndim 2 1\nmatrix a 5\nmatrix a 7\n", 4, "matrix a", 3),
    ("field Fp 101\nfield Q\ndim 1 1\ndim 2 1\nmatrix a 1/2\n", 2, "field", 1),
], ids=["module", "over", "field", "dim", "matrix", "matrix-override", "field-override"])
def test_representation_single_valued_keys_appear_once(k2_bq, text, line, key, first):
    with pytest.raises(SpecError) as e:
        parse_representation(text, k2_bq)
    assert (e.value.line, e.value.col) == (line, 1)
    assert e.value.message == f"repeated key {key!r}; first on line {first}"


@pytest.mark.parametrize("first, repeat", [
    ("quiver a", "quiver b"), ("field Fp 7", "field Q"), ("nilbound 3", "nilbound 2"),
])
def test_spec_single_valued_keys_appear_once(first, repeat):
    text = f"vertex v\n{first}\narrow x: v -> v\n{repeat}\n"
    with pytest.raises(SpecError) as e:
        parse_quiver_spec(text)
    assert (e.value.line, e.value.col) == (4, 1)
    assert e.value.message == f"repeated key {first.split()[0]!r}; first on line 2"
    for cmd in (cmd_classify, cmd_certify, cmd_variety, cmd_tilt):
        assert cmd(text) == (f"error: {e.value}", 2)


def test_representation_semantic_errors(k2_bq, dual_numbers_bq):
    # dims declared after the matrices still fix their shapes
    text = "dim 1 1\nmatrix a 1 ; 2\nmatrix b 3 ; 4\ndim 2 2\n"
    assert parse_representation(text, k2_bq)[1].dim_vector() == (1, 2)
    with pytest.raises(SpecError) as e:
        parse_representation(text.replace("dim 2 2", "dim 2 3"), k2_bq)
    assert (e.value.line, e.value.col) == (2, 8)
    # a module violating a relation of its bound quiver
    with pytest.raises(SpecError) as e:
        parse_representation("dim v 1\nmatrix x 1\n", dual_numbers_bq)
    assert (e.value.line, e.value.col) == (1, 1) and "relations violated" in str(e.value)


def test_cmd_classify_outputs():
    out, code = cmd_classify(fixture_text("k3.quiver"))
    assert code == 0 and "Wild" in out and "minimal wild hereditary: yes" in out
    out, code = cmd_classify(fixture_text("k2.quiver"))
    assert code == 0 and "Tame" in out
    out, code = cmd_classify(fixture_text("a2.quiver"))
    assert code == 0 and "Finite" in out
    out, code = cmd_classify(fixture_text("three_loop_rad2.quiver"))
    assert code == 0 and "trichotomy unavailable" in out
    out, code = cmd_classify("vertex a\narrow f: a -> b\n")
    assert code == 2


def test_certificate_round_trip_bit_exact():
    text = _certificate_text()
    back = parse_certificate(text)
    assert back.to_text() == text
    assert back.check_arithmetic()
    assert back.recompute_bound() == 56


def test_certificate_unknown_or_repeated_key_rejected():
    text = _certificate_text()
    # a line inserted after ``verification`` (line 12) is refused at line 13
    for extra, what in (("bound 9", "repeated key 'bound'"),
                        ("bogus whatever", "unknown key 'bogus'"),
                        ("name other", "repeated key 'name'"),
                        ("wildrank-certificate 1", "unknown key 'wildrank-certificate'")):
        lines = text.splitlines()
        lines.insert(12, extra)
        with pytest.raises(SpecError) as e:
            parse_certificate("\n".join(lines) + "\n")
        assert (e.value.line, e.value.col) == (13, 1) and what in str(e.value)
    # a second bound and an unknown key together: the first of them is reported
    lines = text.splitlines()
    lines[12:12] = ["bound 9", "bogus whatever"]
    with pytest.raises(SpecError) as e:
        parse_certificate("\n".join(lines))
    assert e.value.line == 13 and "bound" in str(e.value)
    # step and note lines may repeat
    doc = parse_certificate(text)
    assert len(doc.steps) == 2 and doc.bound == 56


def test_covering_certificate_parses_back_to_its_own_class():
    spec = parse_quiver_spec(fixture_text("three_loop_rad2.quiver"))
    cert, _ = covering_criterion(spec.covering, 2, field=spec.field, seed=0)
    text = cert.to_text()
    back = parse_certificate(text)
    assert type(back) is type(cert) is WitnessCertificate
    assert back.to_text() == text
    assert back.check_arithmetic() and back.bound == 56


def test_certificate_arithmetic_mismatch_detected():
    doc = parse_certificate(WitnessCertificate(
        name="demo", target_desc="x", target_hash="00", target_dim=1,
        target_kind="algebra", field_desc="F101", seed="0",
        steps=(CertStep("explicit-bimodule", 3, "w"),), bound=9,
        verification="none", notes=()).to_text())
    assert not doc.check_arithmetic()


def test_cmd_variety_k2_and_determinism():
    text = fixture_text("k2.quiver")
    out, code = cmd_variety(text, nmax=2, samples=6, seed=5)
    assert code == 0 and "verdict <= n" in out
    out2, _ = cmd_variety(text, nmax=2, samples=6, seed=5)
    assert out == out2


def test_cmd_variety_k3_contains_estimate():
    out, code = cmd_variety(fixture_text("k3.quiver"), nmax=2, samples=8,
                            seed=20260811)
    assert code == 0
    assert "d=[1, 1] sampled 8 local 3 (exact) orbit 1 estimate 2" in out


def test_cmd_tilt_outputs():
    out, code = cmd_tilt(fixture_text("k2.quiver"), depth=2)
    assert code == 0
    assert out.count("tau^-") >= 6
    assert "tilting:" in out
    out, code = cmd_tilt(fixture_text("a2.quiver"), depth=0)
    assert code == 0 and "tilting: tau^-0 P(1) + tau^-0 P(2)" in out
    out, code = cmd_tilt(fixture_text("three_loop_rad2.quiver"), depth=1)
    assert code == 2
    out, code = cmd_tilt(fixture_text("k3.quiver"), depth=1)
    assert code == 0 and "End dimension 5" in out


def test_cmd_tilt_tests_each_candidate_once(monkeypatch):
    # k3 at depth 1: five two-element subsets with a projective summand, two
    # of them tilting; their End presentations reuse the verdict
    seen = []
    test = tilting_module.is_tilting
    monkeypatch.setattr(tilting_module, "is_tilting", lambda c: seen.append(c) or test(c))
    out, code = cmd_tilt(fixture_text("k3.quiver"), depth=1)
    assert code == 0 and out.count("End dimension") == 2
    assert len(seen) == len({id(c) for c in seen}) == 5


def test_cmd_tilt_preprojectives_do_not_depend_on_the_prime():
    # the preprojective dimension vectors of the Kronecker quiver K3 are the
    # same over every field; a large prime needs exact elimination to see them
    spec = ("quiver k3\nfield Fp {}\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"
            "arrow c: 1 -> 2\nnilbound 2\n")
    lines = {}
    for p in (101, 1000003):
        out, code = cmd_tilt(spec.format(p), depth=1)
        assert code == 0
        lines[p] = [line.strip() for line in out.splitlines()
                    if line.strip().startswith(("tau^-", "tilting:"))]
    assert lines[1000003] == lines[101]
    assert "tau^-1 P(1): dim [8, 21] sincere yes" in lines[101]
    assert "tau^-1 P(2): dim [3, 8] sincere yes" in lines[101]
    assert lines[101][-2:] == ["tilting: tau^-0 P(1) + tau^-0 P(2)",
                               "tilting: tau^-0 P(1) + tau^-1 P(2)"]


def test_cmd_tilt_rejects_an_oriented_cycle():
    # the preprojective enumeration refuses the cycle; no Cartan data is built
    spec = ("quiver cyc\nfield Fp 101\nvertex 1 2\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 1\nnilbound 2\n")
    out, code = cmd_tilt(spec, depth=1)
    assert code == 2
    assert out == "error: quiver has an oriented cycle"


def test_cmd_certify_no_window():
    out, code = cmd_certify(fixture_text("loop_x2.quiver"), radius=2,
                            samples=4, max_dim=1, seed=1, pushdown_samples=4)
    assert code == 3
    assert "not a tameness claim" in out


def test_cmd_certify_fails_on_a_corrupted_witness(monkeypatch, tmp_path):
    def corrupted(*args, **kwargs):
        # the found witness with every arrow of the target acting as zero
        cert, window = covering_criterion(*args, **kwargs)
        w = cert.bimodule
        bad = WitnessBimodule(w.target, w.source, w.rank, w.vertices,
                              {a: {} for a in w.arrows}, full=False)
        return replace(cert, bimodule=bad), window

    monkeypatch.setattr(cli_module, "covering_criterion", corrupted)
    out_file = tmp_path / "cert.txt"
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=4,
                            max_dim=1, seed=0, pushdown_samples=1, out_path=str(out_file))
    assert code == 4, out
    assert out.endswith("\nverification FAILED")
    assert not out_file.exists()


def _dominated_witness_report(*args, **kwargs):
    """A valid witness report with more inconclusive checks than decided ones."""
    return WitnessReport(samples=1, max_dim=1, seed=0, field="F101", pair_count=0,
                         indecomposability=CheckCounts(1, 0, 3),
                         iso_classes=CheckCounts(), hom_dims=CheckCounts())


def test_cmd_certify_exits_5_on_an_inconclusive_dominated_run(monkeypatch, tmp_path):
    monkeypatch.setattr(cli_module, "verify_witness", _dominated_witness_report)
    out_file = tmp_path / "cert.txt"
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=1,
                            max_dim=1, seed=0, pushdown_samples=1, out_path=str(out_file))
    assert code == 5, out
    assert out.endswith("\ninconclusive-dominated run")
    assert not out_file.exists()


def test_cmd_certify_exits_4_when_the_arithmetic_recheck_fails(monkeypatch, tmp_path):
    # a broken certificate exits 4 also when the run is inconclusive-dominated
    monkeypatch.setattr(WitnessCertificate, "check_arithmetic", lambda self: False)
    for dominated in (False, True):
        if dominated:
            monkeypatch.setattr(cli_module, "verify_witness", _dominated_witness_report)
        out_file = tmp_path / f"cert-{dominated}.txt"
        out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2, samples=2,
                                max_dim=1, seed=0, pushdown_samples=1, out_path=str(out_file))
        assert code == 4, out
        assert out.endswith("\ncertificate arithmetic recheck FAILED")
        assert "verification FAILED" not in out and not out_file.exists()


def test_cmd_certify_parse_error():
    out, code = cmd_certify("arrow f: a -> b\n")
    assert code == 2


def test_inconclusive_domination_rule():
    from wildrank.cli import inconclusive_dominated
    from wildrank.wildness import CheckCounts, WitnessReport

    def rep(passed, inconclusive):
        return WitnessReport(samples=1, max_dim=1, seed=0, field="F101",
                             pair_count=0,
                             indecomposability=CheckCounts(passed, 0, inconclusive),
                             iso_classes=CheckCounts(), hom_dims=CheckCounts())

    assert inconclusive_dominated(rep(passed=1, inconclusive=3))
    assert not inconclusive_dominated(rep(passed=3, inconclusive=1))
    assert not inconclusive_dominated(rep(passed=0, inconclusive=0))


def test_representation_file_rationals(k2_bq, qq):
    from fractions import Fraction
    from wildrank.rep import Representation
    rep = rep_from_lists(k2_bq, qq, {"1": 1, "2": 1},
                         {"a": [[Fraction(1, 2)]], "b": [[-3]]})
    text = serialize_representation(rep, "m", "k2")
    assert "1/2" in text
    _, back = parse_representation(text, k2_bq)
    assert back.mats["a"].entry(0, 0) == Fraction(1, 2)
    assert serialize_representation(back, "m", "k2") == text


def test_main_entry(tmp_path, capsys):
    from wildrank.cli import main
    spec = tmp_path / "k3.quiver"
    spec.write_text(fixture_text("k3.quiver"))
    code = main(["classify", str(spec)])
    captured = capsys.readouterr()
    assert code == 0 and "Wild" in captured.out


@pytest.mark.parametrize("command, fixture, options, kwargs", [
    ("certify", "three_loop_rad2.quiver",
     ["--radius", "3", "--samples", "2", "--max-dim", "2", "--seed", "7",
      "--pushdown-samples", "2", "--pushdown-max-dim", "4"],
     dict(radius=3, samples=2, max_dim=2, seed="7", pushdown_samples=2, pushdown_max_dim=4)),
    ("variety", "k3.quiver", ["--nmax", "1", "--samples", "3", "--seed", "5"],
     dict(nmax=1, samples=3, seed="5")),
    ("tilt", "a2.quiver", ["--depth", "2"], dict(depth=2)),
], ids=["certify", "variety", "tilt"])
def test_main_forwards_every_option(command, fixture, options, kwargs, tmp_path, capsys):
    from wildrank.cli import main
    spec = tmp_path / fixture
    spec.write_text(fixture_text(fixture))
    if command == "certify":
        options += ["--out", str(tmp_path / "main.txt")]
        kwargs["out_path"] = str(tmp_path / "cmd.txt")
    code = main([command, str(spec)] + options)
    printed = capsys.readouterr().out
    cmd = {"certify": cmd_certify, "variety": cmd_variety, "tilt": cmd_tilt}[command]
    out, cmd_code = cmd(fixture_text(fixture), **kwargs)
    assert (printed, code) == (out + "\n", cmd_code)
    if command == "certify":
        assert code == 0
        assert (tmp_path / "main.txt").read_text() == (tmp_path / "cmd.txt").read_text()



@pytest.mark.parametrize("command, fixture, option, value", [
    ("certify", "three_loop_rad2.quiver", "--samples", "0"),
    ("certify", "three_loop_rad2.quiver", "--pushdown-samples", "0"),
    ("certify", "three_loop_rad2.quiver", "--max-dim", "0"),
    ("certify", "three_loop_rad2.quiver", "--pushdown-max-dim", "-3"),
    ("certify", "three_loop_rad2.quiver", "--radius", "-1"),
    ("certify", "three_loop_rad2.quiver", "--samples", "two"),
    ("variety", "k3.quiver", "--samples", "0"),
    ("variety", "k3.quiver", "--nmax", "0"),
    ("tilt", "a2.quiver", "--depth", "-1"),
])
def test_main_rejects_bad_counts(command, fixture, option, value, tmp_path, capsys):
    # a count or dimension below 1, a radius or depth below 0, or no integer
    # at all: a usage error, exit 2 with the option named, before any work
    from wildrank.cli import main
    spec = tmp_path / fixture
    spec.write_text(fixture_text(fixture))
    with pytest.raises(SystemExit) as exc:
        main([command, str(spec), option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {option}:" in captured.err and value in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_main_certify_out_in_a_missing_directory(tmp_path, capsys):
    # the certificate cannot be written: exit 2 naming the path, after the
    # report, with no traceback and no file
    from wildrank.cli import main
    spec = tmp_path / "three_loop_rad2.quiver"
    spec.write_text(fixture_text("three_loop_rad2.quiver"))
    out_path = tmp_path / "missing" / "cert.txt"
    code = main(["certify", str(spec), "--samples", "1", "--pushdown-samples", "1",
                 "--out", str(out_path)])
    printed = capsys.readouterr().out
    assert code == 2
    assert printed.rstrip("\n").splitlines()[-1] == (
        f"error: cannot write the certificate to {out_path}: No such file or directory")
    assert not out_path.exists()

# ---------------------------------------------------------------------------
# fuzzing: malformed text ends in a SpecError, never in another exception
# ---------------------------------------------------------------------------

_TOKENS = ["", " ", "\n", "#", ";", ":", "->", "*", "+", "/", ",", "-", "0", "1", "-2",
           "1/0", "2/3", "101", "4", "x", "a", "v", "1", "Q", "Fp", "weight", "1,0",
           "quiver", "field", "vertex", "arrow", "relation", "nilbound", "module", "dim",
           "matrix", "step", "factor", "note", "bound", "algebra-dim", "\u00e9", "\t"]

_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "copy-line", "drop-line"]),
                            st.integers(0, 10 ** 4),
                            st.one_of(st.sampled_from(_TOKENS), st.text(max_size=6))),
                  min_size=1, max_size=5)

_FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def _mutate(text: str, edits) -> str:
    for kind, at, token in edits:
        lines = text.split("\n")
        if kind == "insert":
            at %= len(text) + 1
            text = text[:at] + token + text[at:]
        elif kind == "delete":
            at %= len(text) + 1
            text = text[:at] + text[at + len(token) + 1:]
        elif kind == "copy-line":
            text = "\n".join(lines + [lines[at % len(lines)]])
        else:
            del lines[at % len(lines)]
            text = "\n".join(lines)
    return text


def _spec_texts():
    return [fixture_text(f"{name}.quiver")
            for name in ("a2", "k2", "k3", "loop_x2", "three_loop_rad2")]


def _module_cases():
    from wildrank.quiver import BoundQuiver, kronecker_quiver, loop_quiver
    k2 = BoundQuiver(kronecker_quiver(2), [], nilbound=2)
    q = loop_quiver(1)
    dual = BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))])], nilbound=2)
    modules = [
        (k2, rep_from_lists(k2, F101, {"1": 2, "2": 1},
                            {"a": [[1, 2]], "b": [[3, 4]]})),
        (k2, rep_from_lists(k2, QQ, {"1": 1, "2": 2},
                            {"a": [[Fraction(1, 2)], [-3]], "b": [[0], [7]]})),
        (dual, rep_from_lists(dual, F101, {"v": 2}, {"x": [[0, 1], [0, 0]]})),
    ]
    return [(bq, serialize_representation(m, "m", "q")) for bq, m in modules]


def _certificate_text():
    return WitnessCertificate(
        name="demo", target_desc="a local algebra", target_hash="ab12",
        target_dim=4, target_kind="algebra", field_desc="F101", seed="7",
        steps=(CertStep("explicit-bimodule", 28, "witness"),
               CertStep("covering-rule", 2, "box [(0, 1)]")),
        bound=56, verification="samples 10 pass 50 fail 0 inconclusive 0",
        notes=("window criterion: test",)).to_text()


@_FUZZ
@given(st.sampled_from(_spec_texts()), _EDITS)
def test_fuzz_quiver_spec_raises_only_spec_errors(text, edits):
    try:
        parse_quiver_spec(_mutate(text, edits))
    except SpecError:
        pass


@_FUZZ
@given(st.sampled_from(_module_cases()), _EDITS)
def test_fuzz_module_raises_only_spec_errors(case, edits):
    bq, text = case
    try:
        parse_representation(_mutate(text, edits), bq)
    except SpecError:
        pass


@_FUZZ
@given(_EDITS)
def test_fuzz_certificate_raises_only_spec_errors(edits):
    try:
        parse_certificate(_mutate(_certificate_text(), edits))
    except SpecError:
        pass
