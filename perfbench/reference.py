"""A fixed reference loop that gauges the machine's speed of the moment.

The benchmark's host shares its cores with other tenants, and a fixed
interpreted loop on it runs at speeds up to 1.8x apart, in spells of
seconds and in phases of minutes; a phase can cover whole runs, which no
median inside a run absorbs.  So the runner scales interpreted work by
REFERENCE_S over this loop's median time next to it: the time the work
would have taken on the reference machine at the speed where the loop
takes REFERENCE_S.  That is every set-up sample, and on shell_geometry,
whose time is spent in interpreted per-point code, the pass times, with
the loop run between the jobs.  The loop uses nothing from
hopfsurf, so a faster program shows in the scaled figures in full.
"""

from __future__ import annotations

import cmath
import math
from time import perf_counter

# Median time of reference() on the reference machine (a 2-core Intel Xeon
# VM, Python 3.11.7) in its fast phase.  Fixed: scaled figures from
# different runs and commits are comparable only with the same value.
REFERENCE_S = 1.2e-3


def reference() -> float:
    """Seconds taken by one run of the loop: complex arithmetic and math
    calls, like the pointwise layers."""
    t0 = perf_counter()
    acc = 0j
    z = 0.3 + 0.7j
    for k in range(4000):
        z = z * (0.999 + 0.001j) + 0.01
        acc += cmath.exp(z * 1e-3) * abs(z) + math.log1p(k)
    return perf_counter() - t0


def gauge(min_s: float) -> list[float]:
    """Times of runs of the loop, run until min_s has passed, at least one."""
    times = [reference()]
    while sum(times) < min_s:
        times.append(reference())
    return times
