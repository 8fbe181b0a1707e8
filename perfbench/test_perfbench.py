"""Self-checks of the benchmark, at the smallest ("smoke") size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def wr():
    return worker.import_wildrank(workloads.MODULES)


def test_every_span_resolves_to_a_binding_site(wr):
    t = tracer.Tracer(wr)
    originals = {name: tracer._resolve(wr, target)[2]
                 for name, target in {**tracer.SPANS, **tracer.COUNTERS}.items()}
    t.install()
    try:
        assert set(t.sites) == set(originals)
        assert all(n >= 1 for n in t.sites.values()), t.sites
        # names imported into other modules are wrapped there too
        assert wr["wildness"].hom_space is wr["rep"].hom_space
        assert wr["tilting"].hom_space is wr["rep"].hom_space
        assert wr["rep"].hom_space is not originals["rep.hom_space"]
    finally:
        t.uninstall()
    for name, target in {**tracer.SPANS, **tracer.COUNTERS}.items():
        assert tracer._resolve(wr, target)[2] is originals[name]
    assert wr["wildness"].hom_space is originals["rep.hom_space"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_reports_and_self_time_fits_wall(wr, workload):
    ops = workloads.build(workload, 0, wr, workloads.plan(workload, 0, wr, "smoke"), "smoke")
    plain = worker.run_round(ops)
    t = tracer.Tracer(wr)
    t.install()
    try:
        t0 = time.perf_counter()
        traced = worker.run_round(ops)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    assert all(op["ok"] and op["error"] is None for op in plain + traced)
    assert [op["digest"] for op in traced] == [op["digest"] for op in plain]
    assert sum(s.calls for s in t.spans.values()) > 0
    assert 0.0 <= t.self_total() <= wall


def _digests(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = {}
    for workload in ("small", "certify"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0", "--scale", "smoke"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        (ops,) = json.loads(proc.stdout.strip().splitlines()[-1])["rounds"]
        assert all(op["ok"] and op["error"] is None for op in ops)
        out.update({op["op"]: op["digest"] for op in ops})
    return out


def test_digests_agree_across_hash_seeds():
    assert _digests("0") == _digests("12345")


def test_a_report_without_a_matching_recorded_digest_fails():
    rounds = [[{"op": op, "digest": "d", "ok": True, "error": None}
               for op in ("same", "other", "unrecorded")]]
    attempted, failed, problems = run.check(rounds, {"same": "d", "other": "e",
                                                     "unrecorded": None})
    assert (attempted, failed) == (3, 2)
    assert problems == ["round 0 other: digest differs",
                        "round 0 unrecorded: no recorded digest"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_memory_blow_up_is_a_failed_operation():
    """``cmd_tilt k3 --depth 2`` needs a ~4.5 GB Hom system; under the cap
    it becomes one failed operation instead of taking the host down."""
    script = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1024 << 20, 1024 << 20))
sys.path.insert(0, {HERE!r})
import workloads, worker
wr = worker.import_wildrank(workloads.MODULES)
op = workloads._tilt_op(wr["cli"], "tilt.k3.depth2", workloads.spec_text("k3"), 2)
print(json.dumps(worker.run_round([op])[0]))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=170,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    op = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not op["ok"] and op["error"].startswith("MemoryError")
