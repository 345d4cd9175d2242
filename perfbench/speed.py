"""The host's current speed, read from a fixed pure-Python kernel.

The benchmark runs on a shared host whose CPU speed swings by tens of per
cent in phases of seconds to minutes, so a raw time says as much about the
phase as about the program.  Every reported timing is therefore in
*reference seconds*: the raw time times ``REFERENCE_S`` over the kernel's
time measured right next to it.  On a host in its usual phase the two read
about the same; when the host runs slower, the kernel slows with it and the
reference time stays put.

The kernel does the kind of work the verifiers do (bitmask unions,
intersections and popcounts over pairs from ``combinations``) but uses
nothing from traceschemes and allocates nothing that outlives a loop, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time
from itertools import combinations
from statistics import median

# About the kernel's usual time (median of REPEATS) on a 2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7, where it read 0.6-1.05 ms (10th-90th percentile).
# Only the ratio of two runs' values matters, and both sides of a
# comparison use this same constant.
REFERENCE_S = 0.001
REPEATS = 3
_MASKS = [sum(1 << ((i * 7 + j * 11) % 31) for j in range(5)) for i in range(40)]


def _kernel() -> int:
    hits = 0
    probes = _MASKS[:12]
    for a, b in combinations(_MASKS, 2):
        union = a | b
        for c in probes:
            if (union & c).bit_count() >= 2:
                hits += 1
    return hits


def kernel_s() -> float:
    """The kernel's current time: the median of REPEATS timed calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return median(times)


def slowdown(*kernel_times: float) -> float:
    """How much slower than the reference the host ran, from kernel times around a span."""
    return sum(kernel_times) / len(kernel_times) / REFERENCE_S
