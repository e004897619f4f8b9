"""Order statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import math

# Percentiles the benchmark may report as a tail, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples sit past the ``p`` percentile position.

    These are the samples above the interpolated percentile value (all of
    them, when the samples are distinct).
    """
    return n - 1 - math.floor((n - 1) * p / 100.0) if n else 0


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_CANDIDATES with at least 10 of ``n`` samples beyond it.

    None when even the lowest candidate has fewer than 10 samples beyond.
    """
    best = None
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= 10:
            best = p
    return best
