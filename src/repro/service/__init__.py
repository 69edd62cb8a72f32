"""Asynchronous CFCM query service over the dynamic engine.

The batch algorithms solve CFCM on a frozen graph; :mod:`repro.dynamic`
keeps their state alive while the graph mutates; this package makes that
state *servable*: an asyncio front end where updates enqueue journal events,
queries await a version-consistent answer, and the heavy lifting (selection,
evaluation, forest resampling) runs on a bounded worker pool.

* :class:`AsyncCFCMService` — single-writer/multi-reader service owning a
  :class:`repro.dynamic.DynamicCFCM`; update bursts coalesce into rank-``t``
  Woodbury batches, responses carry the journal version they were computed
  at, shutdown is graceful and cancellation-safe;
* :class:`WorkerPool` — bounded thread pool for engine work;
* :class:`UpdateTicket` / :class:`ServiceResponse` — the awaitable receipt
  of a mutation and the version-tagged query answer;
* :class:`ServiceStats` — submission/apply/batch/cancellation counters.
"""

from repro.service.messages import ServiceResponse, UpdateRequest, UpdateTicket
from repro.service.service import CONSISTENCY_MODES, AsyncCFCMService, ServiceStats
from repro.service.workers import WorkerPool

__all__ = [
    "AsyncCFCMService",
    "ServiceStats",
    "ServiceResponse",
    "UpdateRequest",
    "UpdateTicket",
    "WorkerPool",
    "CONSISTENCY_MODES",
]
