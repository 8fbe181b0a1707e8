"""wildrank's benchmark: seeded workloads through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 0 --seconds 10 --trace 0

Each workload runs in a child process (``worker.py``) whose address space
is capped with ``resource.setrlimit``, so a blow-up counts as a failed
operation and cannot take the host down. Set-up (import plus building the
inputs) is measured in ``SETUP_REPEATS`` fresh processes and reported as
the median. BLAS runs on one thread. Times are in reference seconds of
``calibrate.py``: wall seconds scaled to a fixed machine speed.

The inputs come from ``--seed`` modulo ``GOLDEN_SEEDS``: ``golden.json``
holds the digest of every report for each of those input seeds. Every
report of every round is checked: the operation must succeed and the
report's sha256 must equal the recorded one. ``--record`` runs one round
and stores the digests instead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer spans of ``tracer.py``.
The line before it holds the environment record and per-operation detail.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
DEADLINE_S = 170.0
# One BLAS thread: at most nproc on any machine, and steadier on a shared one.
BLAS_THREADS = 1
# Address-space cap of a workload process. The workloads peak near 120 MB of
# resident memory; the cap only has to stop a blow-up before the host does.
MEM_CAP_MB = 3072
SETUP_REPEATS = 3
# Input seeds with recorded digests; --seed is taken modulo this.
GOLDEN_SEEDS = 20


def git_commit(root: str):
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_at_start": os.getloadavg(),
            "blas_threads": BLAS_THREADS,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
            "git_commit": git_commit(ROOT)}


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Run ``worker.py`` under the memory cap; its last stdout line is JSON."""
    cap = MEM_CAP_MB * 1024 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.input_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def load_golden() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


def expected_digest(golden: dict, workload: str, seed: int, op: dict):
    """The recorded digest for ``op`` at input ``seed``, or None."""
    return golden.get(workload, {}).get(str(seed), {}).get(op["op"])


def check(rounds: list[list[dict]], expected: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations. An operation fails when it
    raised or reported failure, when no digest is recorded for it, or when
    its digest differs from the recorded one."""
    attempted = failed = 0
    problems = []
    for k, rnd in enumerate(rounds):
        for op in rnd:
            attempted += 1
            want = expected.get(op["op"])
            why = op["error"] or ("reported failure" if not op["ok"] else None) or \
                ("no recorded digest" if want is None else None) or \
                ("digest differs" if op["digest"] != want else None)
            if why:
                failed += 1
                problems.append(f"round {k} {op['op']}: {why}")
    return attempted, failed, problems


def record(args, res: dict) -> int:
    ops = res["rounds"][0]
    bad = [op["op"] for op in ops if op["error"] or not op["ok"]]
    if bad:
        print(f"not recorded, failed: {bad}", file=sys.stderr)
        return 1
    golden = load_golden()
    recorded = golden.get(args.workload, {}).values()
    for op in ops:
        if not op["seeded"] and any(d.get(op["op"], op["digest"]) != op["digest"]
                                    for d in recorded):
            print(f"seed-independent report {op['op']} changed with the seed",
                  file=sys.stderr)
            return 1
    golden.setdefault(args.workload, {})[str(args.input_seed)] = {
        op["op"]: op["digest"] for op in ops}
    golden[args.workload] = dict(sorted(golden[args.workload].items(),
                                        key=lambda kv: int(kv[0])))
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ops)} digests for {args.workload} seed {args.input_seed}")
    return 0


def round_time(rnd: list[dict], key: str = "scaled_s") -> float:
    return sum(op[key] for op in rnd)


def end_to_end(res: dict, setups: list[float], attempted: int, failed: int) -> dict:
    wall = statistics.median(round_time(rnd) for rnd in res["rounds"])
    verdicts = sum(op["verdicts"] for op in res["rounds"][0])
    inconclusive = sum(op["inconclusive"] for op in res["rounds"][0])
    return {"wall_s": wall,
            "verdicts_per_s": verdicts / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "decided_share": 1.0 - inconclusive / verdicts if verdicts else 1.0,
            "ok_share": 1.0 - failed / attempted}


def per_layer(res: dict) -> dict:
    """The spans; the tracing overhead, as the median over rounds of traced
    over untraced time (run back to back per operation, neither calibrated),
    less one; and the traced wall time that no span covers."""
    overhead = statistics.median(
        round_time(t, "seconds") / round_time(u, "seconds") - 1.0
        for u, t in zip(res["rounds"], res["traced_rounds"]))
    return {**res["spans"],
            "trace.overhead_share": overhead,
            "trace.unattributed_s": res["traced_wall_s"] - res["span_self_total_s"]}


def with_units(metrics: dict, kind: str) -> dict:
    """Attach the units declared in BENCHMARK.json, which must name exactly
    the metrics measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(declared) != set(metrics):
        raise SystemExit(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one round and store its digests in golden.json")
    args = ap.parse_args(argv)
    args.input_seed = args.seed % GOLDEN_SEEDS
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "wildrank", "__init__.py")):
        print(f"no wildrank source under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()

    if args.record:
        args.seconds, args.trace = 0, 0
        res = run_worker(args, [], deadline)
        if "error" in res:
            print(res["error"], file=sys.stderr)
            return 1
        return record(args, res)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            got = run_worker(args, ["--setup-only"], deadline)
            if "error" in got:
                print(got["error"], file=sys.stderr)
                return 1
            setups.append(got["setup_scaled_s"])
    res = run_worker(args, [], deadline)
    if "error" in res:
        print(res["error"], file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(res["setup_scaled_s"])

    rounds = res["rounds"] + res.get("traced_rounds", [])
    golden = load_golden()
    expected = {op["op"]: expected_digest(golden, args.workload, args.input_seed, op)
                for op in rounds[0]}
    attempted, failed, problems = check(rounds, expected)
    metrics = with_units(per_layer(res), "per_layer") if args.trace else \
        with_units(end_to_end(res, setups, attempted, failed), "end_to_end")

    detail = {"workload": args.workload, "seed": args.seed, "input_seed": args.input_seed,
              "environment": {**env, **res["versions"]},
              "rounds": len(res["rounds"]),
              "round_raw_s": [round_time(rnd, "seconds") for rnd in res["rounds"]],
              "setup_samples_s": setups,
              "ops": {op["op"]: {"median_s": statistics.median(
                          o["seconds"] for rnd in res["rounds"] for o in rnd
                          if o["op"] == op["op"]),
                          "digest": op["digest"]} for op in rounds[0]},
              "problems": problems}
    if args.trace:
        detail["traced_round_raw_s"] = [round_time(rnd, "seconds")
                                        for rnd in res["traced_rounds"]]
        detail["binding_sites"] = res["binding_sites"]
    else:
        # reference seconds per wall second, per round: how fast the kernel ran
        detail["round_factor"] = [round_time(rnd) / round_time(rnd, "seconds")
                                  for rnd in res["rounds"]]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
