"""Latency summaries: percentiles and the tail-sample rule."""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile ``q`` (0-100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond_count(samples: Sequence[float], value: float) -> int:
    """Number of samples strictly above ``value``."""
    return sum(1 for s in samples if s > value)


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 in milliseconds, with the tail-sample bookkeeping.

    ``p90_qualified`` is true when at least :data:`MIN_BEYOND` samples lie
    beyond the reported p90; p99 is a diagnostic and never qualifies a run.
    """
    if not seconds:
        return {"count": 0}
    ms = [1000.0 * s for s in seconds]
    p90 = percentile(ms, 90.0)
    return {
        "count": len(ms),
        "p50_ms": percentile(ms, 50.0),
        "p90_ms": p90,
        "p99_ms": percentile(ms, 99.0),
        "max_ms": max(ms),
        "p90_beyond": beyond_count(ms, p90),
        "p90_qualified": beyond_count(ms, p90) >= MIN_BEYOND,
    }


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
