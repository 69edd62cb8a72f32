"""Small timing helpers used by the experiment harness.

:class:`Timer` is now a thin shim over :class:`repro.obs.metrics.Histogram`:
each label is backed by a standalone latency histogram (always enabled —
registry-independent), which is where :meth:`Timer.percentile` and
:meth:`Timer.merge` come from.  The raw per-measurement ``records`` lists
are kept for exact totals and backward compatibility.

``clock`` re-exports ``time.perf_counter`` as the repo's sanctioned
monotonic clock: instrumented modules import it from here so
``scripts/check_no_adhoc_timing.py`` can forbid raw ``perf_counter`` use
everywhere else in ``src/repro``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.obs.metrics import LATENCY_BUCKETS, Histogram

#: The repo's sanctioned monotonic clock (see module docstring).
clock = time.perf_counter


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    Example
    -------
    >>> timer = Timer()
    >>> with timer.measure("phase"):
    ...     _ = sum(range(10))
    >>> timer.total("phase") >= 0.0
    True
    """

    records: Dict[str, List[float]] = field(default_factory=dict)
    _histograms: Dict[str, Histogram] = field(default_factory=dict, repr=False)

    def _histogram(self, label: str) -> Histogram:
        histogram = self._histograms.get(label)
        if histogram is None:
            histogram = self._histograms[label] = Histogram(
                f"timer_{label}", buckets=LATENCY_BUCKETS
            )
        return histogram

    def record(self, label: str, elapsed: float) -> None:
        """Record one measurement of ``elapsed`` seconds under ``label``."""
        self.records.setdefault(label, []).append(elapsed)
        self._histogram(label).observe(elapsed)

    @contextmanager
    def measure(self, label: str) -> Iterator[None]:
        start = clock()
        try:
            yield
        finally:
            self.record(label, clock() - start)

    def total(self, label: str) -> float:
        """Total seconds recorded under ``label`` (0.0 when never measured)."""
        return float(sum(self.records.get(label, ())))

    def count(self, label: str) -> int:
        """Number of measurements recorded under ``label``."""
        return len(self.records.get(label, ()))

    def percentile(self, label: str, q: float) -> float:
        """Interpolated ``q``-th percentile of ``label``'s measurements.

        Bucket-interpolated (clamped to the observed min/max) via the
        backing histogram; 0.0 when the label was never measured.
        """
        histogram = self._histograms.get(label)
        return histogram.percentile(q) if histogram is not None else 0.0

    def merge(self, other: "Timer") -> "Timer":
        """Fold another timer's measurements into this one (per label).

        Combines per-worker timers into one distribution; returns ``self``.
        """
        for label, values in other.records.items():
            self.records.setdefault(label, []).extend(values)
            self._histogram(label).merge(other._histogram(label))
        return self

    def summary(self) -> Dict[str, float]:
        """Mapping of label to total elapsed seconds."""
        return {label: self.total(label) for label in self.records}
