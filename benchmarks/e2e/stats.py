"""Summary statistics the benchmark reports, with their sample-count rules.

* A timing is reported as the median of its samples, with the sample
  count beside it; a timing taken on a shared host, where noise only
  adds time, as their lower quartile.
* A tail percentile is reported only when at least ten samples lie
  beyond it (p95 needs 200 samples); otherwise there is none.
* Run-to-run spread is the distance between the first and third
  quartile as a share of the median, with quartiles as
  ``statistics.quantiles(values, n=4)`` computes them.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "lower_quartile",
    "median",
    "quartiles",
    "spread",
    "tail_percentile",
]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (numpy's default interpolation) if at
    least :data:`MIN_BEYOND` samples lie beyond it, else ``None``."""
    if len(values) * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(values, q))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def lower_quartile(values: Sequence[float]) -> float:
    """The 25th percentile by numpy's interpolation, which stays within
    the samples: :func:`quartiles` puts the first quartile of two jobs
    below the faster one."""
    return float(np.percentile(values, 25))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single
    sample; infinite when the median is 0 and the quartiles differ)."""
    q1, _q2, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(mid)
