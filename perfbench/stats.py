"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (so a p99 needs at least 1000 samples).
Percentiles use the nearest-rank rule: the result is always an observed
sample, never an interpolation between two.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``.

    >>> percentile([5.0, 1.0, 3.0], 50)
    3.0
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    """The middle sample; the mean of the two middle ones for even counts.

    >>> median([4.0, 1.0, 2.0, 3.0])
    2.5
    """
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """``percentile(samples, q)`` if at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, else ``None``.

    >>> tail_percentile(list(range(999)), 99) is None
    True
    >>> tail_percentile(list(range(1000)), 99)
    989.0
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, q)


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor has taken from this machine, summed over
    its CPUs and divided by the CPU count (``None`` off Linux).

    A difference of two readings is the wall time a single-threaded
    process may have lost to other tenants in between; the benchmark
    prints it next to each repetition so noisy runs can be recognised.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)
