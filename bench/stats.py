"""Summaries of timing samples shared by the benchmark and its compare mode."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie above the reported tail value


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); the value is the order statistic with
    exactly TAIL_BEYOND larger samples, so it needs TAIL_BEYOND + 1 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
