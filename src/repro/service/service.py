"""Asynchronous single-writer/multi-reader front end over the dynamic engine.

:class:`AsyncCFCMService` wraps a :class:`repro.dynamic.DynamicCFCM` so that
a query service can interleave update bursts with concurrent reads:

* **Single writer** — mutations are enqueued on a bounded ``asyncio.Queue``
  and applied by one writer task.  The writer drains the backlog, up to
  :data:`COALESCE_LIMIT` updates, per wakeup, applying it back-to-back with
  no engine synchronisation in between, so the next evaluation folds the
  entire burst in as *one* rank-``t`` Woodbury batch (the coalescing is
  free: it reuses :meth:`repro.dynamic.IncrementalResistance.sync`'s
  journal batching).  Each submission returns an
  :class:`~repro.service.messages.UpdateTicket` that settles with the
  journal events the mutation produced.
* **Multi reader** — queries and evaluations run on a bounded worker pool
  (:class:`~repro.service.workers.WorkerPool`), never blocking the event
  loop.  ``consistency="fresh"`` (the default) first awaits the settlement
  of every update submitted so far — a version barrier, not a lock — while
  ``consistency="relaxed"`` reads whatever version the engine is at.
* **Correctness discipline** — the engine is not thread-safe, so every
  engine/graph touch (writer apply, query compute, maintenance) happens
  under one ``threading.Lock`` *inside* the worker function.  Cancelling an
  awaiting task therefore can never expose a half-applied state: the worker
  thread finishes its critical section regardless.  Every response carries
  the journal version it was computed at; a query issued mid-burst returns
  exactly what a fresh synchronous engine would return on the graph
  replayed to that version.
* **Graceful shutdown** — :meth:`stop` (or leaving the ``async with``
  block) drains the update queue by default; ``drain=False`` rejects the
  queued backlog with :class:`repro.exceptions.ServiceClosedError` instead.
  Either way in-flight worker jobs complete before the pool is torn down.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.centrality.estimators import SamplingConfig
from repro.dynamic.engine import DynamicCFCM
from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.exceptions import (
    InvalidParameterError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graph.graph import Graph
from repro.obs.health import bind_engine_health, bind_service_health
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.resilience.policy import CircuitBreaker, RetryPolicy, record_retry
from repro.service.messages import Mutation, ServiceResponse, UpdateRequest, UpdateTicket
from repro.service.workers import WorkerPool
from repro.utils.faultpoints import fault_point
from repro.utils.rng import RandomState
from repro.utils.timer import clock
from repro.utils.validation import check_integer

_STOP = object()

# Hot-path metrics (no-ops until the default registry is enabled).
_BATCH_SIZE = REGISTRY.histogram(
    "repro_service_update_batch_size",
    "Updates coalesced per writer batch",
    buckets=SIZE_BUCKETS,
)
_APPLY_SECONDS = REGISTRY.histogram(
    "repro_service_apply_seconds",
    "Wall time of one coalesced writer batch apply",
)
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_service_request_seconds",
    "End-to-end service request latency (barrier plus compute)",
    labels=("kind",),
)

CONSISTENCY_MODES = ("fresh", "relaxed")

#: Most updates one writer wakeup applies, i.e. the largest rank-``t``
#: batch a single evaluation folds in.
COALESCE_LIMIT = 64


@dataclass
class ServiceStats:
    """Operational counters of one :class:`AsyncCFCMService` instance."""

    updates_submitted: int = 0
    updates_applied: int = 0
    updates_failed: int = 0
    updates_rejected: int = 0
    update_batches: int = 0
    coalesced_updates: int = 0
    queries: int = 0
    evaluations: int = 0
    cancelled: int = 0

    def as_dict(self) -> Dict[str, float]:
        total = self.update_batches
        return {
            "updates_submitted": self.updates_submitted,
            "updates_applied": self.updates_applied,
            "updates_failed": self.updates_failed,
            "updates_rejected": self.updates_rejected,
            "update_batches": self.update_batches,
            "coalesced_updates": self.coalesced_updates,
            "mean_batch_size": self.coalesced_updates / total if total else 0.0,
            "queries": self.queries,
            "evaluations": self.evaluations,
            "cancelled": self.cancelled,
        }


class AsyncCFCMService:
    """Async CFCM query service owning a :class:`repro.dynamic.DynamicCFCM`.

    Parameters
    ----------
    graph:
        A :class:`repro.dynamic.DynamicGraph` or plain connected
        :class:`repro.Graph` (wrapped automatically).  After construction
        the graph must only be mutated through the service.
    seed, config:
        Forwarded to the engine (reproducible child seeds per cache miss).
    workers:
        Thread count of the worker pool shared by the writer and readers.
    queue_limit:
        Maximum pending updates; beyond it :meth:`submit` raises
        :class:`repro.exceptions.ServiceOverloadedError` (backpressure).
    backend:
        Resistance backend spec for the engine's exact evaluation path
        (``"dense"``, ``"sparse"`` or ``"auto"``); ``None`` keeps the
        engine default.
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy`: reads failing with
        a transient typed error (solver non-convergence, injected faults)
        are re-run within the policy's attempt and deadline budget.
    breaker:
        Optional :class:`repro.resilience.CircuitBreaker`: sheds
        relaxed-consistency reads with
        :class:`repro.exceptions.ServiceDegradedError` while the update
        queue is near its limit or after repeated read failures; fresh
        reads always pass (they are how an open breaker observes
        recovery).
    engine_kwargs:
        Extra :class:`repro.dynamic.DynamicCFCM` options (``pool_size``,
        ``cache_capacity``, ...).
    """

    def __init__(
        self,
        graph: Union[DynamicGraph, Graph],
        seed: RandomState = None,
        config: Optional[SamplingConfig] = None,
        workers: int = 2,
        queue_limit: int = 1024,
        backend: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        **engine_kwargs,
    ):
        if backend is not None:
            engine_kwargs["backend"] = backend
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.engine = DynamicCFCM(graph, seed=seed, config=config, **engine_kwargs)
        self.graph = self.engine.graph
        self.queue_limit = check_integer("queue_limit", queue_limit, minimum=1)
        self.stats = ServiceStats()
        self._pool = WorkerPool(workers=workers)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_limit)
        self._state_lock = threading.Lock()
        self._writer: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._applied_version = self.graph.version
        self._version_cond = asyncio.Condition()
        self._last_ticket: Optional[UpdateTicket] = None
        self._health_unbinders: list = []

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "AsyncCFCMService":
        """Spawn the writer task; returns ``self`` for chaining."""
        if self._closed:
            raise ServiceClosedError("service was stopped and cannot restart")
        if self._writer is not None:
            raise ServiceError("service already started")
        self._loop = asyncio.get_running_loop()
        self._writer = asyncio.create_task(self._writer_loop(), name="cfcm-writer")
        # Publish engine/service health onto the default registry's gauges
        # for the service's lifetime (collectors run at exposition time).
        self._health_unbinders = [
            bind_engine_health(self.engine),
            bind_service_health(self),
        ]
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the writer and tear the worker pool down.

        ``drain=True`` applies every queued update first; ``drain=False``
        rejects the queued backlog with
        :class:`repro.exceptions.ServiceClosedError`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            if not drain:
                while True:
                    try:
                        request = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if request is _STOP:
                        continue
                    self.stats.updates_rejected += 1
                    request.ticket._reject(
                        ServiceClosedError("service stopped before this update was applied")
                    )
            await self._queue.put(_STOP)
            await self._writer
            self._writer = None
        await self._pool.close()
        if self._health_unbinders and REGISTRY.enabled:
            # Health gauges are only written at exposition time; publish a
            # final reading before unbinding so post-shutdown snapshots and
            # Prometheus renders still carry engine/service/pool health.
            REGISTRY.collect()
        for unbind in self._health_unbinders:
            unbind()
        self._health_unbinders = []

    async def __aenter__(self) -> "AsyncCFCMService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Whether the writer task is up and the service accepts requests."""
        return self._writer is not None and not self._closed

    # --------------------------------------------------------------- updates
    async def submit(
        self,
        mutation: Mutation,
        wait_timeout: Optional[float] = None,
    ) -> UpdateTicket:
        """Enqueue an arbitrary mutation ``mutation(graph)``; returns a ticket.

        The callable runs on the writer under the service's state lock; the
        journal events it produces become the ticket's result.  When the
        bounded queue is full, ``wait_timeout=None`` (the default) raises
        :class:`repro.exceptions.ServiceOverloadedError` immediately
        (backpressure); a positive ``wait_timeout`` awaits queue space for
        up to that many seconds before giving up with the same error.
        """
        self._require_running()
        if wait_timeout is not None and wait_timeout <= 0:
            raise InvalidParameterError(
                f"wait_timeout must be positive or None, got {wait_timeout}"
            )
        ticket = UpdateTicket(self._loop)
        request = UpdateRequest(mutation=mutation, ticket=ticket)
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            if wait_timeout is None:
                self.stats.updates_rejected += 1
                raise ServiceOverloadedError(
                    f"update queue is full ({self.queue_limit} pending); "
                    "retry after awaiting a ticket or raise queue_limit"
                ) from None
            try:
                await asyncio.wait_for(
                    self._queue.put(request), timeout=wait_timeout
                )
            except asyncio.TimeoutError:
                self.stats.updates_rejected += 1
                raise ServiceOverloadedError(
                    f"update queue stayed full ({self.queue_limit} pending) "
                    f"for {wait_timeout}s; retry after awaiting a ticket or "
                    "raise queue_limit"
                ) from None
        self._last_ticket = ticket
        self.stats.updates_submitted += 1
        return ticket

    async def add_edge(self, u: int, v: int, weight: float = 1.0) -> UpdateTicket:
        """Enqueue an edge insertion."""
        return await self.submit(lambda graph: graph.add_edge(u, v, weight))

    async def remove_edge(self, u: int, v: int) -> UpdateTicket:
        """Enqueue an edge deletion (connectivity-guarded at apply time)."""
        return await self.submit(lambda graph: graph.remove_edge(u, v))

    async def update_weight(self, u: int, v: int, weight: float) -> UpdateTicket:
        """Enqueue an edge reweighting."""
        return await self.submit(lambda graph: graph.update_weight(u, v, weight))

    async def add_node(self, edges) -> UpdateTicket:
        """Enqueue a node insertion; the new stable id is in the ticket events."""
        return await self.submit(lambda graph: graph.add_node(edges))

    async def remove_node(self, node: int) -> UpdateTicket:
        """Enqueue a node removal (connectivity-guarded at apply time)."""
        return await self.submit(lambda graph: graph.remove_node(node))

    # --------------------------------------------------------------- queries
    async def query(
        self,
        k: int,
        method: str = "schur",
        eps: float = 0.2,
        evaluate: Union[bool, str] = False,
        consistency: str = "fresh",
    ) -> ServiceResponse:
        """Solve CFCM on the current graph; response carries the version.

        Parameters mirror :meth:`repro.dynamic.DynamicCFCM.query`;
        ``consistency="fresh"`` first awaits settlement of every update
        submitted so far, ``"relaxed"`` answers at whatever version the
        engine reaches when the worker picks the query up.
        """
        self._require_running()
        started = clock()
        self._admit(consistency)
        try:
            await self._consistency_barrier(consistency)

            def work() -> Tuple[object, int, Dict[str, object]]:
                # Spans live inside the worker closure: the thread-local span
                # stack nests correctly on a worker thread, never across
                # awaits on the event loop.
                with self._state_lock, trace("service.query", k=k):
                    fault_point("service.worker", subject=self)
                    result = self.engine.query(k, method=method, eps=eps, evaluate=evaluate)
                    return result, self.graph.version, self.engine.stats.as_dict()

            result, version, stats = await self._run_with_policy(work, "query", started)
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise
        self.stats.queries += 1
        _REQUEST_SECONDS.observe(clock() - started, kind="query")
        return ServiceResponse(result=result, version=version, stats=stats)

    async def evaluate(
        self,
        group: Sequence[int],
        mode: str = "exact",
        consistency: str = "fresh",
    ) -> ServiceResponse:
        """Group CFCC of ``group``; ``mode`` is ``"exact"`` or ``"forest"``."""
        self._require_running()
        started = clock()
        self._admit(consistency)
        try:
            await self._consistency_barrier(consistency)

            def work() -> Tuple[float, int, Dict[str, object]]:
                with self._state_lock, trace("service.evaluate", mode=mode):
                    fault_point("service.worker", subject=self)
                    value = self.engine.evaluate(group, mode=mode)
                    return value, self.graph.version, self.engine.stats.as_dict()

            value, version, stats = await self._run_with_policy(work, "evaluate", started)
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise
        self.stats.evaluations += 1
        _REQUEST_SECONDS.observe(clock() - started, kind="evaluate")
        return ServiceResponse(result=value, version=version, stats=stats)

    async def refresh(self) -> int:
        """Pump engine maintenance (pool sync + journal compaction) once.

        Off-hot-path housekeeping: returns the version the engine caches
        reflect afterwards.
        """
        self._require_running()

        def work() -> int:
            with self._state_lock:
                return self.engine.sync()

        return await self._pool.run(work)

    async def prefetch_forests(self, group: Sequence[int]) -> int:
        """Refill the forest pool of ``group`` ahead of query traffic.

        The lockstep Wilson sampling runs on the worker layer.  Returns the
        number of forests sampled.
        """
        self._require_running()

        def work() -> int:
            with self._state_lock:
                return self.engine.refill_pool(group)

        return await self._pool.run(work)

    # -------------------------------------------------------------- versions
    @property
    def version(self) -> int:
        """Last journal version the writer has published."""
        return self._applied_version

    @property
    def pending_updates(self) -> int:
        """Updates enqueued but not yet picked up by the writer."""
        return self._queue.qsize()

    async def barrier(self) -> int:
        """Wait until every update submitted so far has settled.

        A version barrier, not a lock: later submissions are unaffected.
        Returns the journal version the barrier observed (at least the
        version the last settled update landed at — the writer may publish
        it a beat later).
        """
        ticket = self._last_ticket
        if ticket is None:
            return self._applied_version
        await ticket.settled()
        return max(self._applied_version, ticket.version or 0)

    async def wait_for_version(self, version: int) -> int:
        """Block until the writer has published at least ``version``."""
        async with self._version_cond:
            await self._version_cond.wait_for(lambda: self._applied_version >= version)
            return self._applied_version

    # ------------------------------------------------------------- internals
    def _require_running(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is stopped")
        if self._writer is None:
            raise ServiceError(
                "service not started; use 'async with AsyncCFCMService(...)' "
                "or await start() first"
            )

    def _admit(self, consistency: str) -> None:
        """Circuit-breaker admission: shed relaxed reads under degradation."""
        if self.breaker is not None:
            self.breaker.admit(consistency, self._queue.qsize(), self.queue_limit)

    async def _run_with_policy(self, work, kind: str, started: float):
        """Run one read on the worker pool under the retry/breaker policy.

        Transient typed failures (per ``retry_policy.retry_on``) are re-run
        within the policy's attempt count and wall-clock deadline; terminal
        outcomes feed the circuit breaker's failure/success streaks.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome = await self._pool.run(work)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                policy = self.retry_policy
                if policy is not None and policy.should_retry(
                    exc, attempt, clock() - started
                ):
                    record_retry(kind)
                    continue
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            return outcome

    async def _consistency_barrier(self, consistency: str) -> None:
        if consistency == "fresh":
            await self.barrier()
        elif consistency != "relaxed":
            raise InvalidParameterError(
                f"unknown consistency mode {consistency!r}; "
                f"expected one of {CONSISTENCY_MODES}"
            )

    async def _writer_loop(self) -> None:
        """Single-writer loop: drain, apply as one burst, publish, repeat."""
        while True:
            request = await self._queue.get()
            stop = request is _STOP
            batch = [] if stop else [request]
            while not stop and len(batch) < COALESCE_LIMIT:
                try:
                    pending = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if pending is _STOP:
                    stop = True
                    break
                batch.append(pending)
            if batch:
                version = await self._pool.run(self._apply_batch, batch)
                self.stats.update_batches += 1
                self.stats.coalesced_updates += len(batch)
                async with self._version_cond:
                    self._applied_version = version
                    self._version_cond.notify_all()
            if stop:
                return

    def _apply_batch(self, batch) -> int:
        """Apply one burst back-to-back (worker thread, under the state lock).

        No engine synchronisation happens between the mutations, so the
        burst lands in the journal as one contiguous suffix — the next
        evaluation folds it in as a single rank-``t`` Woodbury batch.
        """
        started = clock()
        fault_point("service.stall", subject=self)
        with self._state_lock, trace("service.apply_batch", batch=len(batch)):
            for request in batch:
                before = self.graph.version
                try:
                    request.mutation(self.graph)
                except Exception as exc:
                    self.stats.updates_failed += 1
                    request.ticket._reject(exc, self.graph.version)
                else:
                    events: Tuple[GraphUpdate, ...] = tuple(self.graph.journal_since(before))
                    self.stats.updates_applied += 1
                    request.ticket._resolve(events, self.graph.version)
        _BATCH_SIZE.observe(len(batch))
        _APPLY_SECONDS.observe(clock() - started)
        return self.graph.version
