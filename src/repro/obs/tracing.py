"""Lightweight span tracing for the engine/service hot path.

A *span* is one timed stage — ``with trace("resistance.sync", events=4):``
— and spans nest: the thread-local span stack links each span to its parent,
so a finished trace reconstructs the full pipeline tree
(``service.apply_batch`` → ``engine.sync_pools`` → ``resistance.sync`` →
``pool.topup`` → ``sampling.lockstep`` → ``estimator.fold``).

Tracing is off by default: :func:`trace` returns the shared no-op span until
:func:`enable_tracing` installs a :class:`Tracer`, so the disabled cost is
one global load and a truth test per hook.  The tracer keeps finished spans
in a bounded ring buffer (newest win) and can mirror every finished span to
a JSON-lines file for offline reconstruction.

Spans are thread-scoped on purpose: the async service runs its traced work
inside synchronous closures on worker threads, where a thread-local stack
gives correct parentage.  Do **not** open a span around an ``await`` — all
coroutines of a loop share one thread, so interleaved tasks would
mis-parent; on the event loop use histograms instead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Dict, IO, List, Optional

_STACK = threading.local()


def _span_stack() -> List["Span"]:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


class Span:
    """One timed stage; a context manager that records itself on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "thread", "start", "elapsed")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.thread = threading.current_thread().name
        self.start = 0.0
        self.elapsed = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (batch sizes, hit/miss)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _span_stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self.start
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (generator teardown etc.) — drop if present
            try:
                stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._record(self)

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "thread": self.thread,
            "start": self.start,
            "elapsed": self.elapsed,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    elapsed = 0.0

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans into a ring buffer and optional JSONL file."""

    def __init__(self, capacity: int = 4096,
                 jsonl_path: Optional[str] = None):
        self.capacity = int(capacity)
        self._spans: deque = deque(maxlen=self.capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = None
        if jsonl_path is not None:
            self._file = open(jsonl_path, "w", encoding="utf-8")

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def _record(self, span: Span) -> None:
        record = span.as_dict()
        with self._lock:
            self._spans.append(record)
            if self._file is not None:
                json.dump(record, self._file, default=str)
                self._file.write("\n")

    def spans(self) -> List[Dict[str, Any]]:
        """Finished spans, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return list(self._spans)

    def close(self) -> None:
        """Flush and close the JSONL sink (the ring buffer stays readable)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


_TRACER: Optional[Tracer] = None


def trace(name: str, **attrs: Any):
    """A span under the active tracer, or the shared no-op when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def enable_tracing(capacity: int = 4096,
                   jsonl_path: Optional[str] = None) -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _TRACER
    disable_tracing()
    _TRACER = Tracer(capacity=capacity, jsonl_path=jsonl_path)
    return _TRACER


def disable_tracing() -> None:
    """Remove the active tracer (closing its JSONL sink, if any)."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    if tracer is not None:
        tracer.close()


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` while tracing is disabled."""
    return _TRACER
