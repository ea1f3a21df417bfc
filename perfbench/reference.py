"""Reference passes: fixed kernels timed between ops to measure the machine's
momentary speed (see run.py).

Each workload uses the kind whose speed swings like its own work.  The
steward and circuit workloads spend their time in the interpreter, so they
time an interpreted pass (an integer loop and exact Fraction arithmetic) in
the benchmark process.  gl-search spends its time in numpy over
million-point arrays, whose swings the interpreted pass does not track, so it
times vectorized passes over a 3 MiB working set: larger than a core's 2 MiB
L2 cache on the machine the benchmark was calibrated on, and small next to
the peak memory that gl-search reports.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

MIN_PASSES = 5

_FRACTIONS = [Fraction(3 * i + 1, 7 * i + 5) for i in range(32)]


def interpreted_pass():
    total = 0
    for j in range(1_500):
        total += j
    acc = Fraction(0)
    for f in _FRACTIONS:
        acc += f * f
    return total, acc


def median_pass_seconds(reference_pass, window: float) -> float:
    """Median duration of one pass, over at least `window` seconds and
    MIN_PASSES passes; the median drops a pass cut by preemption."""
    clock = time.perf_counter
    end = clock() + window
    passes = []
    while len(passes) < MIN_PASSES or clock() < end:
        t0 = clock()
        reference_pass()
        passes.append(clock() - t0)
    return statistics.median(passes)


def interpreted(window: float) -> float:
    return median_pass_seconds(interpreted_pass, window)


class Vectorized:
    """Call it with a window in seconds to get the median pass time."""

    size, repeats = 1 << 17, 8

    def __init__(self):
        self.a = np.arange(self.size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self.b = self.a[::-1].copy()
        self.out = np.empty_like(self.a)

    def one_pass(self) -> int:
        total = 0
        for _ in range(self.repeats):
            np.bitwise_xor(self.a, self.b, out=self.out)
            total += int(np.bitwise_count(self.out).sum())
        return total

    def __call__(self, window: float) -> float:
        return median_pass_seconds(self.one_pass, window)
