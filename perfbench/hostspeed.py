"""The host's speed, measured inside the process being timed.

A shared host changes speed by tens of percent for minutes at a time
(see ``perfbench/NOISE.md``): every process of a run is slow together,
so no statistic over one run's own samples removes it.  A world process
therefore also times :func:`kernel` -- fixed pure-Python work that does
not touch the program -- after every simulated second, and the harness
scales that process's host times by :func:`scale`: how much faster or
slower the host ran the kernel than :data:`REFERENCE_KERNEL_S`.  A
scaled time is the time the same work would have taken on a host that
runs the kernel in exactly the reference time.

Only the throughput and query metrics of the sim workloads are scaled.
On ``glass-wire`` the latency spans two processes and the kernel timed
in the client did not track it, unpinned or with both processes on one
CPU, so its metrics stay raw host time.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

#: The kernel's time on the reference host: about its fastest on the
#: 2-vCPU Xeon VM the benchmark was built on (p1 of 3,000 calls, 328 us).
REFERENCE_KERNEL_S = 330e-6


def kernel() -> float:
    """Fixed interpreter work: dict updates, float math, a loop."""
    table = {}
    total = 0.0
    for index in range(2000):
        key = index % 97
        table[key] = table.get(key, 0.0) + index * 0.5
        total += math.sqrt(index + 1.0)
    return total


def time_kernel() -> float:
    """Host seconds one :func:`kernel` call takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scale(kernel_s: List[float]) -> float:
    """Factor turning a process's host seconds into reference seconds.

    ``kernel_s`` are the kernel times the process measured over its
    run; their median is its typical speed.
    """
    return REFERENCE_KERNEL_S / statistics.median(kernel_s)
