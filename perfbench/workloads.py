"""The benchmark's four workloads, built from a seed out of wildrank's public API.

A workload is a list of operations. Each operation calls one public entry
point (a ``cmd_*`` command, ``verify_witness``, ``verify_pushdown`` or
``classify_hereditary``) on inputs fixed at set-up time, and returns the
report text the user would see together with whether the run succeeded.
The benchmark seed only chooses the seeds handed to wildrank; wildrank
sees nothing but the generated inputs.

Sizes are chosen so that one round of a workload takes a few seconds on a
2-core machine, and so that the amount of work hardly depends on the seed:
module dimensions are fixed (``max_dim`` 1 for certify, full-size samples
for the witnesses) while the seed changes the matrix entries; pushdown
samples draw dimensions of at most 2 per vertex.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")

WORKLOADS = ("certify", "witness28", "small", "small_q")

# Wildrank modules the benchmark imports; the tracer wraps functions in all of them.
MODULES = ("exactlin", "quiver", "rep", "wildness", "covering", "tilting",
           "modvariety", "cli")

_COUNTS = re.compile(r"^[a-z-]+ pass (\d+) fail (\d+) inconclusive (\d+)$", re.M)


@dataclass
class Op:
    """One operation: ``run()`` returns ``(report_text, ok)``.

    ``tally(text)`` gives ``(verdicts, inconclusive)`` for the report.
    ``seeded`` is False when the report does not depend on the seed, so its
    recorded digest must be the same for every seed.
    """

    name: str
    run: Callable[[], tuple[str, bool]]
    tally: Callable[[str], tuple[int, int]]
    seeded: bool = True


def check_tally(text: str) -> tuple[int, int]:
    """Check counts (pass, fail, inconclusive) of witness and pushdown reports."""
    verdicts = inconclusive = 0
    for p, f, i in _COUNTS.findall(text):
        verdicts += int(p) + int(f) + int(i)
        inconclusive += int(i)
    return verdicts, inconclusive


def tilt_tally(vertices: int) -> Callable[[str], tuple[int, int]]:
    """Tilting candidates tested: subsets of the preprojective pool with one
    summand per vertex and at least one projective, as ``cmd_tilt`` tests them."""
    def tally(text: str) -> tuple[int, int]:
        shifts = [int(s) for s in re.findall(r"^  tau\^-(\d+) P\(", text, re.M)]
        return sum(1 for c in itertools.combinations(shifts, vertices) if 0 in c), 0
    return tally


def variety_tally(text: str) -> tuple[int, int]:
    """Variety records; a starved record counts as inconclusive."""
    records = re.findall(r"^d=\[.*$", text, re.M)
    return len(records), sum("STARVED" in r for r in records)


def spec_text(name: str, field: str = "Fp 101") -> str:
    with open(os.path.join(SPEC_DIR, f"{name}.quiver")) as fh:
        text = fh.read()
    return text.replace("field Fp 101", f"field {field}")


def hereditary_family(max_vertices: int, max_arrows: int):
    """Connected loop-free quivers as in acceptance criterion 1, in its order."""
    out = []
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        for k in range(0 if n == 1 else n - 1, max_arrows + 1):
            for combo in itertools.combinations_with_replacement(slots, k):
                if _connected(n, combo):
                    out.append((n, combo))
    return out


def _connected(n: int, arrows) -> bool:
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for s, t in arrows:
            for a, b in ((s, t), (t, s)):
                if a == v and b not in seen:
                    seen.add(b)
                    todo.append(b)
    return len(seen) == n


def full_size_seeds(wildness, field, samples: int, max_dim: int, base: str,
                    count: int) -> list[str]:
    """The first ``count`` seeds ``<base>.<k>`` on whose ``verify_witness``
    samples all have dimension ``max_dim``.

    This replays the sampler ``verify_witness`` documents (seeded stream
    ``verify:<seed>``, one ``FreeAlgModule.random`` per sample), so every
    seed yields the same amount of work. Only the matrix entries vary.
    """
    picked: list[str] = []
    for k in range(100 * count * max_dim ** samples):
        cand = f"{base}.{k}"
        rng = random.Random(f"verify:{cand}")
        if all(wildness.FreeAlgModule.random(field, max_dim, rng).dim == max_dim
               for _ in range(samples)):
            picked.append(cand)
            if len(picked) == count:
                return picked
    raise RuntimeError("no full-size verify_witness seed found")


def _witness_op(wildness, name, w, samples, max_dim, seed, check_sincere=0):
    def run():
        rep = wildness.verify_witness(w, samples=samples, max_dim=max_dim,
                                      seed=seed, check_sincere=check_sincere)
        return rep.to_text(), rep.valid
    return Op(name, run, check_tally)


def _pushdown_op(covering, name, window, samples, max_total_dim, seed, field):
    def run():
        rep = covering.verify_pushdown(window, samples=samples,
                                       max_total_dim=max_total_dim, seed=seed,
                                       field=field)
        return rep.to_text(), rep.valid
    return Op(name, run, check_tally)


def _cli_op(name, fn, tally, seeded, **kwargs):
    def run():
        out, code = fn(**kwargs)
        return out, code == 0
    return Op(name, run, tally, seeded)


def _tilt_op(cli, name, text, depth):
    vertices = len(re.search(r"^vertex (.*)$", text, re.M).group(1).split())
    return _cli_op(name, cli.cmd_tilt, tilt_tally(vertices), False, text=text,
                   depth=depth)


def _sweep_op(quiver, name, family):
    def run():
        lines = []
        for n, combo in family:
            q = quiver.Quiver([str(i) for i in range(n)],
                              [(f"e{i}", str(s), str(t)) for i, (s, t) in enumerate(combo)])
            lines.append(f"{n} {combo} {quiver.classify_hereditary(q).value}")
        return "\n".join(lines), True
    return Op(name, run, lambda text: (len(family), 0), seeded=False)


# Sizes per workload. At "bench" one round takes 3-9 s on a 2-core machine;
# "smoke" is the smallest size that still reaches every layer, for the
# benchmark's own test.
SIZES = {
    "bench": {
        "certify": dict(radius=2, samples=2, max_dim=1, pushdown_samples=2),
        "witness28": dict(calls=1, samples=3, max_dim=2, check_sincere=2),
        "small": dict(pushdown_calls=8, pushdown_samples=3, pushdown_max_total_dim=4,
                      witness_calls=6, witness_samples=4, witness_max_dim=3,
                      tilt=("k2", "k3"), variety_nmax=2, variety_samples=4,
                      sweep=(4, 4)),
        "small_q": dict(pushdown_calls=12, pushdown_samples=3, pushdown_max_total_dim=4,
                        witness_calls=6, witness_samples=4, witness_max_dim=3,
                        tilt=("k2",), variety_nmax=2, variety_samples=4, sweep=None),
    },
    "smoke": {
        "certify": dict(radius=2, samples=1, max_dim=1, pushdown_samples=1),
        "witness28": dict(calls=1, samples=1, max_dim=1, check_sincere=1),
        "small": dict(pushdown_calls=1, pushdown_samples=2, pushdown_max_total_dim=4,
                      witness_calls=1, witness_samples=2, witness_max_dim=2,
                      tilt=("k2",), variety_nmax=1, variety_samples=2,
                      sweep=(2, 2)),
        "small_q": dict(pushdown_calls=1, pushdown_samples=2, pushdown_max_total_dim=4,
                        witness_calls=1, witness_samples=2, witness_max_dim=2,
                        tilt=("k2",), variety_nmax=1, variety_samples=2, sweep=None),
    },
}


def _field(wr, workload: str):
    return wr["exactlin"].Field.rationals() if workload == "small_q" \
        else wr["exactlin"].Field.prime(101)


def plan(workload: str, seed: int, wr, scale: str = "bench") -> list[str]:
    """The ``verify_witness`` seeds of ``workload`` for ``seed``. Picking them
    is the benchmark's work, so it runs before set-up is timed or traced."""
    size = SIZES[scale][workload]
    if workload == "witness28":
        samples, max_dim, count = size["samples"], size["max_dim"], size["calls"]
    elif workload in ("small", "small_q"):
        samples, max_dim = size["witness_samples"], size["witness_max_dim"]
        count = size["witness_calls"]
    else:
        return []
    return full_size_seeds(wr["wildness"], _field(wr, workload), samples, max_dim,
                           str(seed), count)


def build(workload: str, seed: int, wr, witness_seeds: list[str],
          scale: str = "bench") -> list[Op]:
    """Build the fixed inputs of ``workload`` for ``seed``; ``wr`` maps module
    names of :data:`MODULES` to the imported wildrank modules, and
    ``witness_seeds`` comes from :func:`plan`."""
    size = SIZES[scale][workload]
    base = str(seed)
    if workload == "certify":
        cli = wr["cli"]
        text = spec_text("three_loop_rad2")
        return [_cli_op("certify", cli.cmd_certify, check_tally, True, text=text,
                        seed=base, **size)]
    if workload == "witness28":
        wildness = wr["wildness"]
        table = wr["quiver"].build_algebra_table(wr["quiver"].k3_bound_quiver(),
                                                 _field(wr, workload))
        w = wildness.sincere_witness_for_K3(table)
        return [_witness_op(wildness, f"witness28.{k}", w, size["samples"],
                            size["max_dim"], s, size["check_sincere"])
                for k, s in enumerate(witness_seeds)]
    return _small_ops(workload, size, base, wr, witness_seeds)


def _small_ops(workload, size, base, wr, witness_seeds) -> list[Op]:
    cli, covering, quiver = wr["cli"], wr["covering"], wr["quiver"]
    wildness = wr["wildness"]
    field_name = "Q" if workload == "small_q" else "Fp 101"
    field = _field(wr, workload)
    ops: list[Op] = []
    for cover in ("loop_x2", "three_loop_rad2"):
        spec = cli.parse_quiver_spec(spec_text(cover, field_name))
        window = covering.build_window(spec.covering, [(0, 1)])
        for k in range(size["pushdown_calls"]):
            ops.append(_pushdown_op(covering, f"pushdown.{cover}.{k}", window,
                                    size["pushdown_samples"],
                                    size["pushdown_max_total_dim"], f"{base}.{k}", field))
    table = quiver.build_algebra_table(quiver.k3_bound_quiver(), field)
    g = wildness.builtin_G(table, field)
    for k, s in enumerate(witness_seeds):
        ops.append(_witness_op(wildness, f"witness2.{k}", g, size["witness_samples"],
                               size["witness_max_dim"], s))
    for name in size["tilt"]:
        ops.append(_tilt_op(cli, f"tilt.{name}", spec_text(name, field_name), 1))
    for name in ("k3", "three_loop_rad2"):
        ops.append(_cli_op(f"variety.{name}", cli.cmd_variety, variety_tally, True,
                           text=spec_text(name, field_name), nmax=size["variety_nmax"],
                           samples=size["variety_samples"], seed=base))
    if size["sweep"]:
        ops.append(_sweep_op(quiver, "sweep", hereditary_family(*size["sweep"])))
    return ops
