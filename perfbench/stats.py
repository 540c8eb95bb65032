"""Order statistics shared by the parts, the runner and the comparison."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        value = float(values[0]) if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)
