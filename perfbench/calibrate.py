"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the speed of one core drifts by 20-40% over tens of
seconds, with other tenants' load. Timing the same fixed work every 0.1 s
while an operation runs, and scaling the operation's wall time by
``REFERENCE_S / mean kernel time``, cancels most of that drift; measured
on a shared 2-core Xeon VM, the mean followed it more closely than the
median or the fastest reading did. The kernel mixes the kinds of work
wildrank does: exact rational elimination, many small numpy operations
reduced mod p, one BLAS product and dict churn. It does not use wildrank,
but it shares the process's caches and allocator with it: run twice in a
row, 10 ms apart, its first run took 1-5% (median per pair) longer than
its second on every workload. That is the most a change to wildrank's
working set can move the scale factor.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Roughly the mean kernel time, interleaved with wildrank, on a 2-core
# Xeon VM (Python 3.11, numpy 2.4, OpenBLAS on one thread) in a quiet
# period. Scaled times read as seconds at that speed. Fixed for good: the
# benchmark's history is only comparable while it stays the same.
REFERENCE_S = 0.005

_rng = random.Random(0)
_RATIONAL = [[Fraction(_rng.randint(-9, 9)) for _ in range(9)] for _ in range(9)]
_SMALL = [np.array([[_rng.randrange(101) for _ in range(6)] for _ in range(6)],
                   dtype=np.float64) for _ in range(40)]
_BIG = np.array([[_rng.randrange(101) for _ in range(160)] for _ in range(160)],
                dtype=np.float64)


def kernel():
    w = [list(r) for r in _RATIONAL]
    for c in range(len(w)):
        piv = next((i for i in range(c, len(w)) if w[i][c] != 0), None)
        if piv is None:
            continue
        w[c], w[piv] = w[piv], w[c]
        inv = 1 / w[c][c]
        w[c] = [x * inv for x in w[c]]
        for i in range(len(w)):
            if i != c and w[i][c] != 0:
                f = w[i][c]
                w[i] = [x - f * y for x, y in zip(w[i], w[c])]
    acc = _SMALL[0]
    for _ in range(3):
        for m in _SMALL:
            acc = (acc @ m + m) % 101
    big = (_BIG @ _BIG) % 101
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return w, acc, big, counts


def _timed_kernel() -> float:
    """Wall time of one :func:`kernel` run, with the garbage collector off so
    that the size of wildrank's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the kernel every ``period`` seconds of wall time while active.

    A ``SIGALRM`` timer interleaves the kernel with the code being measured,
    so the readings follow the machine's speed through long operations.
    ``spent`` is the wall time the kernel took, to subtract from the
    measured code; :meth:`factor` turns wall seconds into reference seconds.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        dt = _timed_kernel()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time seen (at least three)."""
        while len(self.samples) < 3:
            self.samples.append(_timed_kernel())
        return REFERENCE_S / statistics.mean(self.samples)
