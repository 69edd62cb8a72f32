"""Process-local metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` owns every metric of the process (the module
level :data:`REGISTRY` is the default instance shared by the engine, the
async service and the samplers).  Three metric kinds cover the repo's needs:

* :class:`Counter` — monotonically increasing totals (forests drawn,
  lockstep chunks, ...);
* :class:`Gauge` — point-in-time values, mostly written by registered
  *collectors* at exposition time (engine/service stats, pool ESS, queue
  depth — see :mod:`repro.obs.health`);
* :class:`Histogram` — fixed-bucket distributions with exact ``sum`` /
  ``count`` / ``min`` / ``max`` side-cars and interpolated
  :meth:`~Histogram.percentile` (p50/p95/p99), the type behind every latency
  and batch-size distribution in the benchmarks and the serve study.

Metrics may declare **labels** (``labels=("pool",)``); each distinct label
value combination is an independent time series, rendered separately by the
exposition formats.

Design constraints (why the implementation looks the way it does):

* **Near-zero overhead when disabled.**  The registry starts *disabled*;
  :meth:`Counter.inc` / :meth:`Histogram.observe` check one attribute and
  return, so library users who never opt in pay an attribute load per hook.
  Enable with :meth:`MetricsRegistry.enable` (or :func:`repro.obs.enable`).
* **Thread-safe.**  The async service's worker pool updates metrics from
  several threads; every value mutation happens under a per-metric lock and
  registration under a registry lock.  :meth:`Gauge.set` applies even while
  the registry is disabled — gauges are written by collectors at exposition
  time, which is always an explicit request.
* **Pull exposition.**  :meth:`MetricsRegistry.snapshot` returns a plain
  dict (attachable to a JSON artifact or a :class:`ServiceResponse`);
  :meth:`MetricsRegistry.render_prometheus` renders the Prometheus text
  format.  Both first run the registered collectors so gauge families
  reflect live state.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Log-spaced seconds buckets covering 10us .. 10s — wide enough for both the
# sub-millisecond cache-hit path and a full refactorisation.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Powers-of-two buckets for discrete sizes (coalesced batch sizes, forests
# per top-up/fold, journal events per sync).
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

_EMPTY_KEY: Tuple[str, ...] = ()


class MetricError(ValueError):
    """Raised on metric misuse (label mismatch, kind collision, bad merge)."""


class _Metric:
    """Shared machinery: naming, label keying, per-metric locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        self.name = str(name)
        self.help = str(help)
        self.label_names: Tuple[str, ...] = tuple(str(l) for l in labels)
        self.registry = registry
        self._lock = threading.Lock()

    # -- fast-path guard ----------------------------------------------------
    @property
    def _enabled(self) -> bool:
        registry = self.registry
        return registry is None or registry.enabled

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if not self.label_names:
            if labels:
                raise MetricError(
                    f"metric {self.name!r} declares no labels, got {sorted(labels)}"
                )
            return _EMPTY_KEY
        try:
            return tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:
            raise MetricError(
                f"metric {self.name!r} requires labels {self.label_names}, "
                f"got {sorted(labels)}"
            ) from exc

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))


class Counter(_Metric):
    """Monotonically increasing float total, optionally per label values."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        super().__init__(name, help, labels, registry)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0); a no-op while the registry is disabled."""
        if not self._enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        """Current total for the label values (0.0 when never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs for every live series."""
        with self._lock:
            return [(self._label_dict(key), value)
                    for key, value in sorted(self._values.items())]


class Gauge(_Metric):
    """Point-in-time value; writes apply even while the registry is disabled
    (collectors set gauges at exposition time, which is always explicit)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        super().__init__(name, help, labels, registry)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def clear(self) -> None:
        """Drop every series (collectors call this before re-publishing so
        series for vanished label values — dead pools — disappear)."""
        with self._lock:
            self._values.clear()

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            return [(self._label_dict(key), value)
                    for key, value in sorted(self._values.items())]


class _HistogramState:
    """One label combination's buckets + exact side-car statistics."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, buckets: int):
        self.counts = [0] * (buckets + 1)  # +1 for the +Inf overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Metric):
    """Fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are the finite upper bounds (ascending); an implicit ``+Inf``
    overflow bucket is always appended.  Besides the bucket counts the
    histogram keeps exact ``sum``/``count``/``min``/``max``, so means are
    exact and percentile interpolation is clamped to the observed range.
    Standalone instances (no registry) are always enabled.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS,
                 registry: Optional["MetricsRegistry"] = None):
        super().__init__(name, help, labels, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(
                f"histogram {self.name!r} needs strictly increasing buckets"
            )
        self.buckets = bounds
        self._states: Dict[Tuple[str, ...], _HistogramState] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation; a no-op while the registry is disabled."""
        if not self._enabled:
            return
        key = self._key(labels)
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            state.counts[index] += 1
            state.sum += value
            state.count += 1
            if value < state.min:
                state.min = value
            if value > state.max:
                state.max = value

    # -- reading ------------------------------------------------------------
    def _aggregate(self, labels: Dict[str, object]) -> _HistogramState:
        """The state for one label key — or all series merged when the
        histogram is labelled but no labels are given (aggregate view)."""
        merged = _HistogramState(len(self.buckets))
        with self._lock:
            if self.label_names and not labels:
                states = list(self._states.values())
            else:
                state = self._states.get(self._key(labels))
                states = [state] if state is not None else []
            for state in states:
                merged.counts = [a + b for a, b in zip(merged.counts, state.counts)]
                merged.sum += state.sum
                merged.count += state.count
                merged.min = min(merged.min, state.min)
                merged.max = max(merged.max, state.max)
        return merged

    def percentile(self, q: float, **labels) -> float:
        """Interpolated ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation inside the bucket containing the target rank,
        clamped to the exact observed ``[min, max]`` range; 0.0 when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricError(f"percentile must lie in [0, 100], got {q}")
        state = self._aggregate(labels)
        if state.count == 0:
            return 0.0
        target = (q / 100.0) * state.count
        cumulative = 0
        for index, bucket_count in enumerate(state.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (self.buckets[index] if index < len(self.buckets)
                         else state.max)
                fraction = (target - cumulative) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, state.min), state.max)
            cumulative += bucket_count
        return state.max

    def summary(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0),
                **labels) -> Dict[str, float]:
        """count/sum/mean/min/max plus the requested percentiles as a dict."""
        state = self._aggregate(labels)
        result: Dict[str, float] = {
            "count": float(state.count),
            "sum": state.sum,
            "mean": state.sum / state.count if state.count else 0.0,
            "min": state.min if state.count else 0.0,
            "max": state.max if state.count else 0.0,
        }
        for q in percentiles:
            label = f"p{q:g}".replace(".", "_")
            result[label] = self.percentile(q, **labels)
        return result

    def clear(self) -> None:
        with self._lock:
            self._states.clear()

    def series(self) -> List[Tuple[Dict[str, str], _HistogramState]]:
        with self._lock:
            return [(self._label_dict(key), state)
                    for key, state in sorted(self._states.items())]


class MetricsRegistry:
    """Process-local registry of named metrics plus exposition collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object (and verify the
    kind and label names match, so two modules cannot silently share a name
    for different things).  The registry starts ``enabled=False``; hot-path
    writes are no-ops until :meth:`enable`.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.RLock()

    # -- lifecycle ----------------------------------------------------------
    def enable(self) -> "MetricsRegistry":
        """Turn hot-path recording on; returns ``self`` for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        """Turn hot-path recording off (registrations and values persist)."""
        self.enabled = False
        return self

    def reset(self) -> None:
        """Zero every metric's series.

        Metric *objects* survive (module-level handles stay valid); only
        their recorded values are dropped.  Collectors stay registered —
        they belong to component lifecycles, not to the value state.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric.clear()

    # -- registration -------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, labels=labels,
                             registry=self, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise MetricError(
                f"metric {name!r} is a {metric.kind}, requested {cls.kind}"
            )
        if tuple(labels) != metric.label_names:
            raise MetricError(
                f"metric {name!r} declares labels {metric.label_names}, "
                f"requested {tuple(labels)}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric of that name, or ``None``."""
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- collectors ---------------------------------------------------------
    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> Callable[[], None]:
        """Register an exposition-time callback; returns its unregisterer.

        Collectors run (in registration order) at the start of
        :meth:`snapshot` and :meth:`render_prometheus`, typically publishing
        component health onto gauges (see :mod:`repro.obs.health`).  The
        returned callable removes the collector and is idempotent.
        """
        with self._lock:
            self._collectors.append(collect)

        def unregister() -> None:
            with self._lock:
                try:
                    self._collectors.remove(collect)
                except ValueError:
                    pass

        return unregister

    def collect(self) -> None:
        """Run every registered collector once."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # -- exposition ---------------------------------------------------------
    def snapshot(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
                 ) -> Dict[str, Dict[str, object]]:
        """All metrics as one plain dict (runs collectors first).

        Counters/gauges list ``{"labels": ..., "value": ...}`` series;
        histograms additionally carry bucket counts and the requested
        interpolated percentiles.  The result contains only fresh
        containers, so callers may attach it to responses or JSON artifacts
        without aliasing live registry state.
        """
        self.collect()
        result: Dict[str, Dict[str, object]] = {}
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
            }
            if isinstance(metric, Histogram):
                series = []
                for labels, state in metric.series():
                    item: Dict[str, object] = {"labels": labels}
                    item.update(metric.summary(percentiles, **labels))
                    item["buckets"] = {
                        _format_bound(bound): count
                        for bound, count in zip(
                            metric.buckets + (float("inf"),), state.counts)
                    }
                    series.append(item)
                entry["series"] = series
            else:
                entry["series"] = [{"labels": labels, "value": value}
                                   for labels, value in metric.series()]
            result[metric.name] = entry
        return result

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (v0.0.4)."""
        self.collect()
        lines: List[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, state in metric.series():
                    cumulative = 0
                    bounds = metric.buckets + (float("inf"),)
                    for bound, count in zip(bounds, state.counts):
                        cumulative += count
                        bucket_labels = dict(labels, le=_format_bound(bound))
                        lines.append(
                            f"{metric.name}_bucket{_render_labels(bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{metric.name}_sum{_render_labels(labels)} {state.sum!r}"
                    )
                    lines.append(
                        f"{metric.name}_count{_render_labels(labels)} {state.count}"
                    )
            else:
                for labels, value in metric.series():
                    lines.append(
                        f"{metric.name}{_render_labels(labels)} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(str(value))}"'
                    for name, value in labels.items())
    return "{" + body + "}"


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Default process-local registry shared by every instrumented module.
REGISTRY = MetricsRegistry(enabled=False)
