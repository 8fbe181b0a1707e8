"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

from conftest import F101, fixture_text

from wildrank.quiver import (Quiver, RepType, classify_hereditary, euler_form,
                             symmetrized_tits_matrix)
from wildrank.rep import hom_space
from wildrank.wildness import (FactorProvenance, builtin_G,
                               certificate_for_bimodule, bound_via_factor,
                               bound_via_morita, sincere_witness_for_K3,
                               verify_witness)
from wildrank.covering import CoveringSpec, build_window, verify_pushdown
from wildrank.modvariety import parameter_estimate, stratum_probe
from wildrank.tilting import (TiltingCandidate, enumerate_preprojectives,
                              ext1_dim_via_presentation, is_tilting)
from wildrank.cli import cmd_certify, cmd_variety, parse_certificate

SEED = 20260811


def report(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# -- criterion 1: hereditary trichotomy vs exhaustive oracle -----------------

def _int_det(rows):
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _oracle(b):
    n = len(b)
    semidefinite = True
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            d = _int_det([[b[i][j] for j in subset] for i in subset])
            if d < 0:
                return RepType.WILD
            if d == 0:
                semidefinite = False   # not positive definite
    if semidefinite:
        return RepType.FINITE
    # all principal minors >= 0 with some zero: positive semidefinite
    return RepType.TAME


def _connected(n, arrows):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    touched = set()
    for (s, t) in arrows:
        touched.add(s)
        touched.add(t)
        parent[find(s)] = find(t)
    if n == 1:
        return True
    if len(touched) != n:
        return False
    return len({find(i) for i in range(n)}) == 1


def test_criterion_1_trichotomy_oracle():
    t0 = time.time()
    checked = 0
    disagreements = 0
    for n in range(1, 6):
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        max_arrows = 5
        for k in range(0, max_arrows + 1):
            if n > 1 and k < n - 1:
                continue
            for combo in itertools.combinations_with_replacement(slots, k):
                if not _connected(n, combo):
                    continue
                q = Quiver([str(i) for i in range(n)],
                           [(f"e{idx}", str(s), str(t))
                            for idx, (s, t) in enumerate(combo)])
                got = classify_hereditary(q)
                expect = _oracle(symmetrized_tits_matrix(q))
                checked += 1
                if got != expect:
                    disagreements += 1
    elapsed = time.time() - t0
    report(1, disagreements == 0 and elapsed < 120 and checked > 1000,
           f"exhaustive trichotomy agreement on {checked} connected loop-free "
           f"quivers (<=5 vertices, <=5 arrows), {disagreements} disagreements, "
           f"{elapsed:.1f}s")


# -- criterion 2: the rank-2 and rank-28 witnesses over F101 ------------------

def test_criterion_2_witness_pipeline(k3_table):
    t0 = time.time()
    g = builtin_G(k3_table)
    rep_g = verify_witness(g, samples=100, max_dim=3, seed=SEED)
    w = sincere_witness_for_K3(k3_table)
    rep_w = verify_witness(w, samples=100, max_dim=3, seed=SEED, check_sincere=30)
    elapsed = time.time() - t0
    ok = (rep_g.valid and rep_w.valid
          and rep_g.indecomposability.failed == 0 and rep_w.indecomposability.failed == 0
          and rep_g.iso_classes.failed == 0 and rep_w.iso_classes.failed == 0
          and rep_g.hom_dims.failed == 0 and rep_g.hom_dims.passed > 0
          and rep_w.hom_dims.failed == 0 and rep_w.hom_dims.passed > 0
          and rep_w.sincere is not None and rep_w.sincere.passed >= 30
          and rep_w.sincere.failed == 0 and rep_w.sincere.inconclusive == 0
          and elapsed < 300)
    report(2, ok,
           f"rank-2 and rank-28 witnesses: 100 samples each (dim <= 3, F101), "
           f"0 failures, hom equality on {rep_g.hom_dims.passed}+{rep_w.hom_dims.passed} "
           f"checks, {rep_w.sincere.passed} sincere images, {elapsed:.1f}s")


# -- criterion 3: pushdown verification on the two covers ---------------------

def test_criterion_3_pushdown(dual_numbers_bq, three_loop_bq):
    cov_x2 = CoveringSpec(dual_numbers_bq, 1, {"x": (1,)})
    w_x2 = build_window(cov_x2, [(0, 1)])
    rep1 = verify_pushdown(w_x2, samples=50, max_total_dim=6, seed=SEED, field=F101)
    cov_3 = CoveringSpec(three_loop_bq, 1,
                         {a.name: (1,) for a in three_loop_bq.quiver.arrows})
    w_3 = build_window(cov_3, [(0, 1)])
    rep2 = verify_pushdown(w_3, samples=50, max_total_dim=6, seed=SEED, field=F101)
    ok = True
    for rep in (rep1, rep2):
        ok = ok and rep.valid and not rep.starved and rep.samples >= 50
        ok = ok and rep.indecomposability.failed == 0
        ok = ok and rep.iso_classes.failed == 0
        ok = ok and rep.bimodule_agreement.passed == rep.samples
        ok = ok and rep.bimodule_agreement.failed == 0
        ok = ok and rep.bimodule_agreement.inconclusive == 0
    report(3, ok,
           f"pushdown over >= 50 sincere window modules for both covers: "
           f"0 failures; direct assembly agrees with the bimodule on every sample")


# -- criterion 4: certify the three-loop local algebra ------------------------

def test_criterion_4_certify(tmp_path):
    out_file = tmp_path / "cert.txt"
    out, code = cmd_certify(fixture_text("three_loop_rad2.quiver"),
                            radius=2, samples=12, max_dim=1, seed=SEED,
                            pushdown_samples=12, pushdown_max_dim=6,
                            out_path=str(out_file))
    doc = parse_certificate(out_file.read_text())
    ok = (code == 0 and doc.bound == 56 and doc.check_arithmetic()
          and doc.recompute_bound() == 2 * 28
          and "fail 0" in doc.verification)
    report(4, ok,
           f"certificate bound {doc.bound} = 2 x 28, arithmetic recheck ok, "
           f"verification all-pass, exit code {code}")


# -- criterion 5: desk-scale parameter counts ---------------------------------

def test_criterion_5_parameters(k3_bq, k2_bq):
    rep = parameter_estimate(k3_bq, F101, 2, samples_per_d=8, seed=SEED)
    rec = next((r for r in rep.records if r.dims == (1, 1)), None)
    ok = rec is not None and rec.estimate == 2 and rec.estimate > 1
    probes = stratum_probe(k2_bq, F101, 3, samples_per_d=8, seed=SEED)
    for srep in probes:
        ok = ok and srep.verdict_at_most() is True
    report(5, ok,
           f"three-arrow Kronecker at d=(1,1): estimate {rec.estimate} (> 1 = t^2); "
           f"two-arrow Kronecker estimates <= n for all n <= 3, exact arithmetic")


# -- criterion 6: tilting data -------------------------------------------------

def test_criterion_6_tilting(a2_bq, k2_bq, k3_bq):
    pool_k2 = enumerate_preprojectives(k2_bq, F101, 2)
    dims = sorted(p.rep.dim_vector() for p in pool_k2)
    ok = dims == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    for bq in (a2_bq, k2_bq, k3_bq):
        projs = enumerate_preprojectives(bq, F101, 0)
        ok = ok and is_tilting(TiltingCandidate(projs))
    # Euler consistency on >= 50 seeded preprojective pairs, Ext^1 computed
    # independently from projective presentations
    pairs = []
    pool_k3 = enumerate_preprojectives(k3_bq, F101, 1)
    for pool, bq in ((pool_k2, k2_bq), (pool_k3, k3_bq)):
        for p in pool:
            for q in pool:
                pairs.append((bq, p, q))
    rng = random.Random(SEED)
    rng.shuffle(pairs)
    pairs = pairs[:52]
    count = 0
    for bq, p, q in pairs:
        hom_d = hom_space(p.rep, q.rep).dim
        ext_d = ext1_dim_via_presentation(p.rep, q.rep)
        if hom_d - ext_d != euler_form(bq.quiver, p.rep.dim_vector(), q.rep.dim_vector()):
            ok = False
        count += 1
    report(6, ok and count >= 50,
           f"two-arrow Kronecker preprojective sequence matches; T = H tilting "
           f"for all three quivers; Euler consistency on {count} seeded pairs "
           f"with independent Ext^1")


# -- criterion 7: certificate arithmetic ---------------------------------------

def test_criterion_7_certificate_chains(k3_bq, k3_table):
    from wildrank.quiver import factor_quiver
    rng = random.Random(SEED)
    ok = True
    base_cert = certificate_for_bimodule(
        sincere_witness_for_K3(k3_table), k3_bq,
        "three-arrow Kronecker algebra", seed=SEED)
    ident_prov = FactorProvenance(k3_bq, tuple(k3_bq.quiver.vertices),
                                  tuple(a.name for a in k3_bq.quiver.arrows))
    for chain in range(20):
        cert = base_cert
        bound_before = cert.bound
        for _ in range(rng.randint(0, 3)):
            cert = bound_via_factor(cert, ident_prov)
            if cert.bound != bound_before:
                ok = False
        for _ in range(rng.randint(1, 3)):
            d = cert.target_dim + rng.randint(0, 6)
            prev = cert.bound
            cert = bound_via_morita(cert, d)
            if cert.bound < prev:
                ok = False
        if cert.recompute_bound() != cert.bound:
            ok = False
        if not cert.check_arithmetic():
            ok = False
    report(7, ok, "20 randomized derivation chains recompute exactly; "
                  "bounds never decrease under the Morita rule")


# -- criterion 8: determinism ----------------------------------------------------

def test_criterion_8_determinism(k3_table, dual_numbers_bq, k3_bq):
    g = builtin_G(k3_table)
    r1 = verify_witness(g, samples=10, max_dim=2, seed=SEED)
    r2 = verify_witness(g, samples=10, max_dim=2, seed=SEED)
    ok = r1.to_text() == r2.to_text()
    cov = CoveringSpec(dual_numbers_bq, 1, {"x": (1,)})
    w = build_window(cov, [(0, 1)])
    p1 = verify_pushdown(w, samples=10, max_total_dim=4, seed=SEED, field=F101)
    p2 = verify_pushdown(w, samples=10, max_total_dim=4, seed=SEED, field=F101)
    ok = ok and p1.to_text() == p2.to_text()
    e1 = parameter_estimate(k3_bq, F101, 2, samples_per_d=6, seed=SEED)
    e2 = parameter_estimate(k3_bq, F101, 2, samples_per_d=6, seed=SEED)
    ok = ok and e1.to_text() == e2.to_text()
    v1 = cmd_variety(fixture_text("k2.quiver"), nmax=2, samples=6, seed=SEED)
    v2 = cmd_variety(fixture_text("k2.quiver"), nmax=2, samples=6, seed=SEED)
    ok = ok and v1 == v2
    c1 = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2,
                     samples=6, max_dim=1, seed=SEED, pushdown_samples=6)
    c2 = cmd_certify(fixture_text("three_loop_rad2.quiver"), radius=2,
                     samples=6, max_dim=1, seed=SEED, pushdown_samples=6)
    ok = ok and c1 == c2
    report(8, ok, "verification, pushdown, variety and certify reports are "
                  "bit-identical across repeated runs under a fixed seed")
