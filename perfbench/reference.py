"""Reference computation: the machine's speed, measured next to each op.

On a shared machine the speed of one core drifts by a quarter or more
within minutes, and every timing drifts with it.  The benchmark therefore
also reports each op's time divided by the time of this fixed
computation, measured in the same process just before the op.  The
computation is of the kind chowcheck spends its time on (rational and
big-integer arithmetic, dictionary updates, loops over integer rows),
lives in the benchmark, and never changes with the code under test, so
a change that makes chowcheck slower raises the ratio.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REPS = 5


def _work():
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i, i + 3)
    counts = {}
    for i in range(30000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i * i
    acc = 0
    for i in range(60):
        for j in range(60):
            x = (i * j + 3) % 1000003
            acc = (acc + x * x) % 1000003
    return total, counts, acc


def seconds():
    """Median of REPS timings of the reference computation."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
