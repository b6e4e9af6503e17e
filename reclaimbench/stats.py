"""Order statistics the benchmark reports."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # a tail percentile needs this many samples above it


def tail(values: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, label). With n sorted samples the rank-r value has
    n - r samples above it, so the rank is n - TAIL_BEYOND and the
    percentile 100 * r / n. With n <= TAIL_BEYOND no percentile qualifies;
    the maximum is returned and labelled as such.
    """
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    n = len(xs)
    r = n - TAIL_BEYOND
    if r < 1:
        return xs[-1], f"max (n={n}, fewer than {TAIL_BEYOND + 1} samples)"
    return xs[r - 1], f"p{100 * r / n:g} (n={n}, {TAIL_BEYOND} above)"


def median(values: list[float]) -> float:
    return statistics.median(values)
