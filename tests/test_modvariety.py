import random

import pytest

from conftest import (direct_sum, F101, loop_square_zero, make_relation, QQ, reference_kernel,
                      reference_relation_jacobian, rep_from_lists, simple_rep, zero_rep)

import wildrank.rep as rep_module
from wildrank.exactlin import Mat
from wildrank.quiver import BoundQuiver, Quiver, loop_quiver
from wildrank.rep import (SamplingStarvation, hom_space, relation_jacobian,
                          sample_representation, _sample_linear_solve)
from wildrank.modvariety import (RepVarietyPoint, orbit_dimension, parameter_estimate,
                                 stratum_probe, tangent_dimension)


def test_point_validation(dual_numbers_bq, f101):
    good = rep_from_lists(dual_numbers_bq, f101, {"v": 2},
                          {"x": [[0, 0], [1, 0]]})
    RepVarietyPoint(dual_numbers_bq, good)
    with pytest.raises(ValueError):
        bad = rep_from_lists(dual_numbers_bq, f101, {"v": 1},
                             {"x": [[1]]}, )


def test_tangent_examples(k3_bq, dual_numbers_bq, f101):
    p = RepVarietyPoint(k3_bq, rep_from_lists(
        k3_bq, f101, {"1": 1, "2": 1}, {"a": [[1]], "b": [[2]], "c": [[3]]}))
    assert tangent_dimension(p) == 3          # hereditary: full coordinate count
    zero2 = RepVarietyPoint(dual_numbers_bq, rep_from_lists(
        dual_numbers_bq, f101, {"v": 2}, {"x": [[0, 0], [0, 0]]}))
    assert tangent_dimension(zero2) == 4      # Jacobian vanishes at the origin
    empty = RepVarietyPoint(k3_bq, zero_rep(k3_bq, f101))
    assert tangent_dimension(empty) == 0


def _jacobian_quivers():
    two = loop_quiver(2)
    square = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                      ("c", "1", "2"), ("d", "2", "3")])
    return [
        loop_square_zero(3),
        BoundQuiver(two, [make_relation(two, [(1, ("x", "y", "x")), (-2, ("y", "y", "y")),
                                              ("3/2", ("x", "x", "y"))])], nilbound=5),
        BoundQuiver(square, [make_relation(square, [(1, ("b", "a")), (-1, ("d", "c"))])],
                    nilbound=3),
    ]


def _jacobian_points():
    """One nonzero point per spec of ``_jacobian_quivers``, as dims and
    entry lists, where the relations hold and their Jacobian is nonzero: a
    square-zero x, the nilpotent 3 x 3 Jordan block x with y = 0, and the
    commuting square with every arrow 1."""
    return [({"v": 2}, {"x": [[0, 0], [1, 0]]}),
            ({"v": 3}, {"x": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}),
            ({"1": 1, "2": 1, "3": 1}, {a: [[1]] for a in "abcd"})]


@pytest.mark.parametrize("field", [F101, QQ])
def test_tangent_jacobian_matches_entrywise_reference(field):
    rng = random.Random(17)
    checked = 0
    compared = []
    for bq, point in zip(_jacobian_quivers(), _jacobian_points()):
        q = bq.quiver
        for _ in range(6):
            dims = {v: rng.randint(0, 3) for v in q.vertices}
            mats = {a.name: Mat.random(field, dims[a.target], dims[a.source], rng)
                    for a in q.arrows}
            offsets, nvars = {}, 0
            for a in q.arrows:
                offsets[a.name] = nvars
                nvars += dims[a.target] * dims[a.source]
            for rel in bq.relations:
                got = relation_jacobian(field, rel, mats, dims, offsets, nvars)
                assert got.row_list() == reference_relation_jacobian(
                    q, field, rel, mats, dims, offsets, nvars)

        def compare(rep):
            """tangent_dimension is nvars - rank of the reference Jacobian;
            returns that rank."""
            offsets, nvars = {}, 0
            for a in q.arrows:
                offsets[a.name] = nvars
                nvars += rep.dims[a.target] * rep.dims[a.source]
            rows = [row for rel in bq.relations for row in reference_relation_jacobian(
                q, field, rel, rep.mats, rep.dims, offsets, nvars)]
            rank = Mat.from_rows(field, rows).rank() if rows else 0
            assert tangent_dimension(RepVarietyPoint(bq, rep)) == nvars - rank
            return rank

        # at sampled points; the two-loop relation x*y*x - 2*y^3 + 3/2*x*x*y
        # is linear in no arrow, so the sampler is left with plain rejection
        # and starves in almost every draw, skipped here
        compared.append(0)
        for _ in range(3):
            dims = {v: rng.randint(1, 2) for v in q.vertices}
            try:
                rep = sample_representation(bq, field, dims, rng, budget=60)
            except SamplingStarvation:
                continue
            checked += 1
            compare(rep)
            compared[-1] += 1
        # at the hand-built point, where the Jacobian is nonzero
        assert compare(rep_from_lists(bq, field, *point)) > 0
        compared[-1] += 1
    assert checked >= 6
    assert len(compared) == len(_jacobian_quivers()) and all(compared)


@pytest.mark.parametrize("field", [F101, QQ], ids=str)
def test_sample_linear_solve_matches_reference_kernel(field, monkeypatch):
    # the mixed three-term relation is linear in no arrow, so it is rejected
    # on every draw; the commutativity square and x*y - 2*y*y*x (lengths 2
    # and 3, linear in x) are solved
    two = loop_quiver(2)
    mixed = BoundQuiver(two, [make_relation(two, [(1, ("x", "y")), (-2, ("y", "y", "x"))])],
                        nilbound=5)
    specs = _jacobian_quivers()[1:] + [mixed]

    def draw():
        out = []
        for k, bq in enumerate(specs):
            for seed in range(12):
                rng = random.Random(f"linear-solve:{k}:{seed}")
                dims = {v: rng.randint(0, 3) for v in bq.quiver.vertices}
                cand = _sample_linear_solve(bq, field, dims, rng)
                out.append(None if cand is None
                           else {a: x.row_list() for a, x in cand.mats.items()})
        return out

    got = draw()
    monkeypatch.setattr(Mat, "kernel", reference_kernel)
    assert draw() == got
    assert all(s is None for s in got[:12])
    assert sum(s is not None for s in got[12:24]) >= 4
    assert sum(s is not None for s in got[24:]) >= 4


def test_orbit_examples(k3_bq, f101):
    one_vertex = BoundQuiver(Quiver(["v"], []), [], nilbound=1)
    simple = RepVarietyPoint(one_vertex, simple_rep(one_vertex, f101, "v"))
    assert orbit_dimension(simple) == 0       # 1 - 1
    p = RepVarietyPoint(k3_bq, rep_from_lists(
        k3_bq, f101, {"1": 1, "2": 1}, {"a": [[1]], "b": [[2]], "c": [[3]]}))
    assert orbit_dimension(p) == 1            # 2 - dim End = 2 - 1
    ss = simple_rep(one_vertex, f101, "v")
    double = RepVarietyPoint(one_vertex, direct_sum(ss, ss))
    assert orbit_dimension(double) == 0       # 4 - 4


def test_orbit_plus_end_is_squares(k3_bq, dual_numbers_bq, f101):
    import random
    from wildrank.rep import sample_representation
    rng = random.Random(1)
    for bq in (k3_bq, dual_numbers_bq):
        for _ in range(4):
            dims = {v: rng.randint(0, 3) for v in bq.quiver.vertices}
            rep = sample_representation(bq, f101, dims, rng)
            p = RepVarietyPoint(bq, rep)
            squares = sum(d * d for d in rep.dims.values())
            assert orbit_dimension(p) + hom_space(rep, rep).dim == squares


def test_parameter_estimate_k3(k3_bq, f101):
    report = parameter_estimate(k3_bq, f101, 2, samples_per_d=8, seed=20260811)
    rec = next((r for r in report.records if r.dims == (1, 1)), None)
    assert rec is not None and rec.estimate == 2
    assert rec.exact_local
    assert report.aggregate == 2


def test_parameter_estimate_one_vertex(f101):
    bq = BoundQuiver(Quiver(["v"], []), [], nilbound=1)
    for n in range(1, 5):
        report = parameter_estimate(bq, f101, n, samples_per_d=3, seed=1)
        assert report.aggregate == 0


def test_stratum_probe_k2(k2_bq, f101):
    probes = stratum_probe(k2_bq, f101, 3, samples_per_d=8, seed=20260811)
    assert [rep.n for rep in probes] == [1, 2, 3]
    for rep in probes:
        assert rep.verdict_at_most() is True
    # known value at n=2: the one-parameter family contributes exactly 1
    assert probes[1].aggregate == 1
    assert probes[1].summary() == "n 2 estimate 1 verdict <= n"


def test_stratum_probe_dual_numbers(dual_numbers_bq, f101):
    probes = stratum_probe(dual_numbers_bq, f101, 3, samples_per_d=8, seed=3)
    for rep in probes:
        assert rep.verdict_at_most() is True
        assert not rep.hereditary


def test_reports_reproducible(k3_bq, f101):
    a = parameter_estimate(k3_bq, f101, 2, samples_per_d=6, seed=42)
    b = parameter_estimate(k3_bq, f101, 2, samples_per_d=6, seed=42)
    assert a.to_text() == b.to_text()


def test_records_reproducible_per_d(k3_bq, f101):
    # each record depends only on (seed, algebra, d): adding other strata
    # does not disturb it, and more samples never decrease the orbit
    a = parameter_estimate(k3_bq, f101, 2, samples_per_d=4, seed=9)
    b = parameter_estimate(k3_bq, f101, 2, samples_per_d=8, seed=9)
    for rec_a in a.records:
        rec_b = next(r for r in b.records if r.dims == rec_a.dims)
        if rec_a.starved or rec_b.starved:
            continue
        assert rec_b.orbit >= rec_a.orbit
        assert rec_b.estimate <= rec_a.estimate


def test_starvation_reported(f101):
    # x^2 = 0 with an extra incommensurable relation defeats every sampler
    q = loop_quiver(2)
    bq = BoundQuiver(q, [make_relation(q, [(1, ("x", "x"))]),
                         make_relation(q, [(1, ("x", "y")), (1, ("y", "x"))]),
                         make_relation(q, [(1, ("y", "y")), (-1, ("x", "x"))])],
                     nilbound=4)
    report = parameter_estimate(bq, f101, 3, samples_per_d=2, seed=0)
    assert report.any_starved
    assert "STARVED" in report.to_text()
    assert report.summary().endswith(" (starvation in some strata)")


def test_stratum_probe_solves_the_end_system_of_its_zero_points_once(three_loop_bq,
                                                                      monkeypatch):
    # at n = 1 every point of three_loop_rad2 is the zero module on a line,
    # so the orbit dimensions of all its points read one End system
    solves = []
    solve = rep_module._solve_hom_equations
    monkeypatch.setattr(rep_module, "_solve_hom_equations",
                        lambda *args: solves.append(args) or solve(*args))
    (report,) = stratum_probe(three_loop_bq, F101, 1, samples_per_d=8, seed=0)
    assert [r.sampled for r in report.records] == [8] and report.records[0].orbit == 0
    assert len(solves) == 1
