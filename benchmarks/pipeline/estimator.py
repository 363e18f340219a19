"""The quiet-time estimator behind every time-derived metric.

A workload is a fixed list of work items run for a fixed number of passes.
The inputs are byte-identical per seed, so the work of an item is the same
on every pass and whatever makes one pass slower than another is the host
(a neighbour on the shared vCPU, a page-cache miss), not the program.  An
item's *quiet time* is therefore the minimum of its wall-clock time over all
passes: it drops host interference but keeps the program's own allocation
and garbage-collection cost, which recurs on every pass.

Medians and high percentiles of raw wall-clock samples are not used for any
gated metric: on the 2-vCPU guest this was written on, 30-second window
medians of one fixed 54 ms item drifted 64 -> 92 ms with identical code.

The minimum still drifts with the host: for minutes at a time the guest has
no undisturbed sample to offer and every minimum of a run reads 5-20 % high.
So a fixed *reference loop* is timed before every pass, and the quiet times
of a run are stated in *reference time*: what they would be on a host on
which the loop's quiet time is ``REFERENCE_SECONDS``.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


#: Quiet time of :func:`reference_loop` on the 2-vCPU guest the pass counts
#: were sized on.  A constant: it only fixes the unit of reference time.
REFERENCE_SECONDS = 0.005


def reference_loop() -> int:
    """A fixed piece of pure-Python work (about 5 ms); never change it."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def host_speed(reference_samples: Sequence[float]) -> float:
    """Speed of this host during a run, as a share of the reference host's.

    ``reference_samples`` are the wall-clock times of :func:`reference_loop`,
    one per pass; its quiet time is their minimum, like any item's.
    """
    return REFERENCE_SECONDS / min(reference_samples)


def quiet_times(samples: Sequence[Sequence[float]]) -> List[float]:
    """Per-item minimum of ``samples[pass][item]``."""
    if not samples:
        raise ValueError("no passes")
    width = len(samples[0])
    if any(len(row) != width for row in samples):
        raise ValueError("every pass must time the same items")
    return [min(row[i] for row in samples) for i in range(width)]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def throughput(total_txns: int, quiet: Sequence[float]) -> float:
    """Transactions per second of quiet time: work / sum of item minima."""
    return total_txns / sum(quiet)


def noise_ratio(samples: Sequence[Sequence[float]]) -> float:
    """Median pass total / quiet pass total (1.0 = an undisturbed host)."""
    return statistics.median(sum(row) for row in samples) / sum(quiet_times(samples))
