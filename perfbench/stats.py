"""Summary statistics shared by the runner, the tracer and the spread check."""

import math
import statistics

TAIL_BEYOND = 10   # samples that must lie beyond a reported tail percentile


def quantiles(values, n):
    """``statistics.quantiles`` that also accepts a single value."""
    return statistics.quantiles(values, n=n) if len(values) > 1 else [values[0]] * (n - 1)


def tail(values, beyond=TAIL_BEYOND):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or ``None`` when
    fewer than ``2 * beyond`` samples exist (the percentile would sit at or
    below the median and say nothing about the tail).
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    pct = math.floor(100 * (n - beyond) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def relative_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def union_length(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
