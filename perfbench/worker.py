"""One workload in one process: set up, run timed rounds, report as JSON.

``run.py`` starts this script as a child process with an address-space
cap, so a blow-up inside wildrank ends here and not on the host. The last
line of standard output is one JSON object; nothing else is printed.

A round runs every operation of the workload once, in order. Rounds repeat
until ``--seconds`` have passed, and at least ``MIN_ROUNDS`` times. While
set-up and the rounds run, :mod:`calibrate` samples the machine's speed;
its time is taken out of every measurement, and each time is also reported
scaled to the reference speed.

With ``--trace 1`` nothing is sampled. Set-up is traced, and every round
runs each operation untraced and traced (:func:`paired_round`), at least
``MIN_ROUNDS`` times. The spans cover set-up and the first traced round;
the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Optional

_T0 = time.perf_counter()

import calibrate  # noqa: E402  (numpy's import counts as set-up)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3


def import_wildrank(modules) -> dict:
    """Import wildrank from this checkout's ``src/`` and never from elsewhere."""
    sys.path.insert(0, SRC)
    import importlib
    wr = {m: importlib.import_module(f"wildrank.{m}") for m in modules}
    origin = os.path.dirname(os.path.abspath(sys.modules["wildrank"].__file__))
    if origin != os.path.join(SRC, "wildrank"):
        raise SystemExit(f"wildrank imported from {origin}, not from {SRC}")
    return wr


def library_versions() -> dict:
    """Versions of the libraries the run used, and the BLAS numpy was built with."""
    import numpy
    import sympy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def run_round(ops, sampler: Optional[calibrate.Sampler] = None) -> list[dict]:
    """Run every operation once. With a running ``sampler``, each wall time
    excludes the calibration kernel and is also reported scaled to the
    reference speed, read while the round ran."""
    out = []
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            text, ok = op.run()
            error = None
        except Exception as e:  # MemoryError under the cap lands here too
            text, ok, error = "", False, f"{type(e).__name__}: {e}"
            sys.stderr.write(traceback.format_exc())
        dt = time.perf_counter() - t0 - ((sampler.spent if sampler else 0.0) - spent)
        verdicts, inconclusive = op.tally(text) if error is None else (0, 0)
        out.append({"op": op.name, "seconds": dt, "ok": ok, "error": error,
                    "digest": hashlib.sha256(text.encode()).hexdigest(),
                    "seeded": op.seeded, "verdicts": verdicts,
                    "inconclusive": inconclusive})
    if sampler:
        factor = sampler.factor()
        for op in out:
            op["scaled_s"] = op["seconds"] * factor
    return out


def calibrated_round(ops) -> list[dict]:
    with calibrate.Sampler() as sampler:
        return run_round(ops, sampler)


def paired_round(ops, tracer: Tracer, first_traced: bool):
    """Run every operation twice, untraced and traced, back to back so that
    the machine's drift cancels in their ratio; which runs first alternates
    from one operation to the next. Returns the untraced and traced rounds."""
    plain, spanned = [], []
    for k, op in enumerate(ops):
        for traced in ((True, False) if first_traced == (k % 2 == 0) else (False, True)):
            if traced:
                tracer.install()
                spanned += run_round([op])
                tracer.uninstall()
            else:
                plain += run_round([op])
    return plain, spanned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="bench")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = calibrate.Sampler()  # off while traced: spans must not time it
    with contextlib.nullcontext() if args.trace else sampler:
        wr = import_wildrank(workloads.MODULES)
        import_s = time.perf_counter() - _T0 - sampler.spent
        # Chosen before set-up is timed or traced: this is the benchmark's work.
        plan = workloads.plan(args.workload, args.seed, wr, args.scale)
        tracer = Tracer(wr) if args.trace else None
        if tracer:
            tracer.install()
        t0, spent = time.perf_counter(), sampler.spent
        ops = workloads.build(args.workload, args.seed, wr, plan, args.scale)
        build_s = time.perf_counter() - t0 - (sampler.spent - spent)
    result = {"setup_s": import_s + build_s}
    if not args.trace:
        result["setup_scaled_s"] = result["setup_s"] * sampler.factor()
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if tracer:
        tracer.uninstall()

    rounds, traced = [], []
    start = time.perf_counter()
    min_rounds = 1 if args.seconds == 0 else MIN_ROUNDS
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        if not tracer:
            rounds.append(calibrated_round(ops))
            continue
        plain, spanned = paired_round(ops, tracer, first_traced=len(rounds) % 2 == 1)
        rounds.append(plain)
        traced.append(spanned)
        if len(traced) == 1:
            result["spans"] = tracer.metrics()
            result["span_self_total_s"] = tracer.self_total()
            result["traced_wall_s"] = build_s + sum(op["seconds"] for op in traced[0])
    result["rounds"] = rounds
    result["versions"] = library_versions()
    if tracer:
        result["traced_rounds"] = traced
        result["binding_sites"] = tracer.sites
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
