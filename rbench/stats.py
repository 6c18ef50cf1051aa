"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie strictly above the given percentile
    (by the nearest-rank definition ``quantile`` uses)."""
    return n - math.ceil(n * percentile / 100.0)


def supported_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least
    ``MIN_TAIL_SAMPLES`` samples beyond it, or ``None`` when even the
    median is not supported."""
    best = None
    for percentile in CANDIDATE_PERCENTILES:
        if samples_beyond(n, percentile) >= MIN_TAIL_SAMPLES:
            best = percentile
    return best


def quantile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percentile`` % of the samples at or below it."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100.0))
    return ordered[rank - 1]


def tail_quantile(values: Sequence[float], percentile: float) -> float:
    """``quantile``, refused when the sample cannot support it."""
    supported = supported_percentile(len(values))
    if supported is None or percentile > supported:
        raise ValueError(
            f"p{percentile:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(values)} samples support p{supported}"
        )
    return quantile(values, percentile)


def median(values: Sequence[float]) -> float:
    """The middle sample (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))
