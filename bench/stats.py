"""Order statistics used for the op latency metrics."""

from __future__ import annotations

import math

# Percentiles the tail is chosen from, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the `pct` percentile of n sorted samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def tail(values) -> tuple:
    """(value, percentile, samples beyond it) of the op latency tail.

    The tail is the highest percentile of LADDER that leaves at least
    MIN_BEYOND samples above it. With fewer than 2 * MIN_BEYOND samples no
    percentile qualifies and the tail falls back to p50; the returned count of
    samples beyond then shows that the rule was not met.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of no samples")
    n = len(xs)
    best = LADDER[0]
    for pct in LADDER:
        if n - nearest_rank(n, pct) >= MIN_BEYOND:
            best = pct
    k = nearest_rank(n, best)
    return xs[k - 1], best, n - k
