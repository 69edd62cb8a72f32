"""Request/response plumbing of the asynchronous CFCM service.

The service decouples three parties that run on different schedules: callers
submitting mutations (event-loop coroutines), the single writer applying them
(a worker thread), and callers awaiting results (event-loop coroutines
again).  The types here carry information across those boundaries:

* :class:`UpdateTicket` — a thread-safe, awaitable receipt for one submitted
  mutation; the writer resolves it with the journal events the mutation
  produced (or rejects it with the exception it raised);
* :class:`UpdateRequest` — the queue entry pairing a mutation callable with
  its ticket;
* :class:`ServiceResponse` — a query result tagged with the exact journal
  version it was computed at, which is what makes responses comparable
  against a synchronous engine replayed to the same version.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.utils.timer import clock

# A mutation is any callable applied to the graph by the writer; the journal
# events it produces are collected by diffing the journal, so its return
# value is ignored.
Mutation = Callable[[DynamicGraph], Any]


class UpdateTicket:
    """Awaitable receipt for one mutation travelling through the writer.

    Tickets are created on the event loop and settled from the writer's
    worker thread, so settlement goes through ``call_soon_threadsafe``.
    Callers may ignore a ticket entirely (fire-and-forget), await
    :meth:`settled` (barrier semantics, never raises), or await
    :meth:`result` (re-raises the rejection reason).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._future: asyncio.Future = loop.create_future()
        self._version: Optional[int] = None
        self._settled_at: Optional[float] = None

    @property
    def version(self) -> Optional[int]:
        """Journal version when the mutation settled (``None`` while pending).

        For applied mutations this is the version *after* their events; for
        rejected ones the version at which the apply was attempted.
        """
        return self._version

    @property
    def settled_at(self) -> Optional[float]:
        """Monotonic-clock timestamp of settlement (``None`` pending).

        Stamped in the writer thread the moment the mutation was applied or
        rejected, so submit-to-apply latency can be measured even when the
        ticket is only awaited long after the fact.
        """
        return self._settled_at

    async def settled(self) -> None:
        """Wait until the writer applied or rejected the mutation.

        Never raises the rejection reason — use :meth:`result` for that.
        """
        try:
            await asyncio.shield(self._future)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass

    async def result(self) -> Tuple[GraphUpdate, ...]:
        """The journal events the mutation produced; re-raises rejections."""
        return await asyncio.shield(self._future)

    def exception(self) -> Optional[BaseException]:
        """The rejection reason, or ``None`` while pending / after success."""
        if not self._future.done():
            return None
        return self._future.exception()

    # -- writer side (called from the worker thread) -------------------------
    def _resolve(self, events: Tuple[GraphUpdate, ...], version: int) -> None:
        self._settled_at = clock()
        self._loop.call_soon_threadsafe(self._settle, events, None, version)

    def _reject(self, exc: BaseException, version: Optional[int] = None) -> None:
        self._settled_at = clock()
        self._loop.call_soon_threadsafe(self._settle, None, exc, version)

    def _settle(
        self,
        events: Optional[Tuple[GraphUpdate, ...]],
        exc: Optional[BaseException],
        version: Optional[int],
    ) -> None:
        if self._future.done():
            return
        self._version = version
        if exc is not None:
            self._future.set_exception(exc)
            # Fire-and-forget submitters never retrieve the exception; mark
            # it retrieved so the loop does not log it as an orphan.
            self._future.exception()
        else:
            self._future.set_result(events)


@dataclass
class UpdateRequest:
    """One entry of the service's update queue."""

    mutation: Mutation
    ticket: UpdateTicket


@dataclass(frozen=True)
class ServiceResponse:
    """A query answer plus the journal version it was computed at.

    ``result`` is a :class:`repro.centrality.result.CFCMResult` for selection
    queries and a ``float`` for evaluations; ``version`` is read atomically
    with the computation, so the response equals what a fresh synchronous
    engine would return on the graph replayed to that version.  ``stats`` is
    an engine-stats snapshot taken atomically with the answer (cache
    counters plus per-pool ESS health — see
    :meth:`repro.dynamic.EngineStats.as_dict`), so operators can watch pool
    health ride along with ordinary responses.
    """

    result: Any
    version: int
    stats: Optional[Dict[str, Any]] = None
