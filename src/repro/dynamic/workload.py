"""Random update workloads for the dynamic engine.

Experiments, benchmarks and tests all need the same thing: a stream of valid
random mutations of a :class:`DynamicGraph` (insertions of absent edges,
deletions that respect the connectivity guard, node churn that keeps the
graph connected).  Centralising the generators keeps the workloads
reproducible and the retry logic (skip bridges, skip duplicate inserts, skip
cut vertices) in one place.

Besides the synchronous generators, the module provides the *async* traffic
layer used against :class:`repro.service.AsyncCFCMService`:

* :func:`poisson_traffic` drives a service with a Poisson arrival stream of
  mixed queries and updates (mutations are drawn *at apply time* on the
  writer, so the applied event sequence is reproducible regardless of how
  queries interleave) and returns a :class:`TrafficReport` of latencies,
  version-tagged observations and the applied journal events;
* :func:`replay_events` rebuilds a :class:`DynamicGraph` from a recorded
  journal, which is how tests check that mid-burst async answers equal a
  fresh synchronous engine at the same version.
"""

from __future__ import annotations

import asyncio
import functools
from repro.utils.timer import clock
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    DisconnectedGraphError,
    GraphError,
    InvalidParameterError,
    ServiceOverloadedError,
)
from repro.graph.graph import Graph
from repro.dynamic.graph import (
    ADD,
    ADD_NODE,
    REMOVE,
    REMOVE_NODE,
    REWEIGHT,
    DynamicGraph,
    GraphUpdate,
)
from repro.utils.rng import RandomState, as_rng

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from repro.service.service import AsyncCFCMService


def _random_nodes(graph: DynamicGraph, rng, size: int):
    """Draw ``size`` (not necessarily distinct) active stable node ids."""
    ids = graph.node_ids()
    picks = rng.integers(0, ids.size, size=size)
    return [int(ids[p]) for p in picks]


def apply_random_update(graph: DynamicGraph, rng: RandomState = None,
                        add_probability: float = 0.5,
                        max_attempts: int = 64) -> Optional[GraphUpdate]:
    """Apply one random valid edge insertion or deletion; returns the event.

    Every attempt draws a uniform pair of active nodes, not an edge.  An
    insertion takes the first non-adjacent pair; a deletion takes the first
    adjacent pair whose removal keeps the graph connected.  On a sparse
    graph few pairs are adjacent, so most deletion attempts miss: when
    ``max_attempts`` draws fail to produce a valid mutation (a sparse graph
    or a tree for deletions, a clique for insertions) the opposite kind is
    attempted, and only then does the call give up with ``None``.  So on a
    sparse graph most calls that want a deletion insert an edge instead.
    """
    rng = as_rng(rng)
    want_add = bool(rng.random() < add_probability)
    for kind in (want_add, not want_add):
        for _ in range(max_attempts):
            u, v = _random_nodes(graph, rng, 2)
            if u == v:
                continue
            if kind:
                if graph.has_edge(u, v):
                    continue
                return graph.add_edge(u, v)
            if not graph.has_edge(u, v):
                continue
            try:
                return graph.remove_edge(u, v)
            except DisconnectedGraphError:
                continue
    return None


def apply_random_node_event(graph: DynamicGraph, rng: RandomState = None,
                            add_probability: float = 0.5,
                            max_attachments: int = 3,
                            max_attempts: int = 64,
                            protected: Optional[Iterable[int]] = None
                            ) -> Optional[GraphUpdate]:
    """Apply one random valid node insertion or removal; returns the event.

    Insertions attach the new node to 1 .. ``max_attachments`` distinct
    random existing nodes (unit weights).  Removals pick a random node whose
    departure keeps the graph connected; cut vertices — and ``protected``
    nodes, typically the group a monitoring consumer is grounded at — are
    retried.  As in :func:`apply_random_update`, the opposite kind is
    attempted before giving up with ``None``.
    """
    rng = as_rng(rng)
    immune = frozenset(int(v) for v in protected) if protected else frozenset()
    want_add = bool(rng.random() < add_probability)
    for kind in (want_add, not want_add):
        for _ in range(max_attempts):
            if kind:
                count = int(rng.integers(1, max_attachments + 1))
                neighbours = set(_random_nodes(graph, rng, count))
                return graph.add_node(sorted(neighbours))
            (candidate,) = _random_nodes(graph, rng, 1)
            if candidate in immune:
                continue
            try:
                return graph.remove_node(candidate)
            except (DisconnectedGraphError, GraphError):
                continue
    return None


def apply_random_reweight(graph: DynamicGraph, rng: RandomState = None,
                          low: float = 0.25, high: float = 4.0,
                          max_attempts: int = 16) -> Optional[GraphUpdate]:
    """Reweight one random present edge by a log-uniform factor; returns the event.

    The new weight is ``old * exp(U(log low, log high))``, so up- and
    down-weightings are symmetric in log space (a storm of these events is
    mean-preserving).  Draws that land exactly on the current weight are
    retried; ``None`` when ``max_attempts`` draws fail (e.g. a single-edge
    graph with ``low == high == 1``).
    """
    rng = as_rng(rng)
    if not (0.0 < low <= high):
        raise InvalidParameterError(
            f"reweight factors need 0 < low <= high, got [{low}, {high}]"
        )
    edges = list(graph.edges())
    if not edges:
        return None
    for _ in range(int(max_attempts)):
        u, v = edges[int(rng.integers(0, len(edges)))]
        factor = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        event = graph.update_weight(u, v, graph.weight(u, v) * factor)
        if event is not None:
            return event
    return None


def random_update_journal(graph: DynamicGraph, count: int,
                          rng: RandomState = None,
                          add_probability: float = 0.5) -> List[GraphUpdate]:
    """Apply ``count`` random edge mutations, returning the applied events."""
    rng = as_rng(rng)
    events: List[GraphUpdate] = []
    for _ in range(int(count)):
        event = apply_random_update(graph, rng, add_probability=add_probability)
        if event is not None:
            events.append(event)
    return events


def random_churn_journal(graph: DynamicGraph, count: int,
                         rng: RandomState = None,
                         add_probability: float = 0.5,
                         node_probability: float = 0.2,
                         protected: Optional[Iterable[int]] = None
                         ) -> List[GraphUpdate]:
    """Apply ``count`` random mixed edge/node mutations (the bursty regime).

    Each event is a node event with probability ``node_probability`` (a
    join/leave stream of peers, intersections, ...) and an edge event
    otherwise; ``add_probability`` biases both kinds towards growth and
    ``protected`` nodes are never removed.
    """
    rng = as_rng(rng)
    events: List[GraphUpdate] = []
    for _ in range(int(count)):
        if rng.random() < node_probability:
            event = apply_random_node_event(graph, rng,
                                            add_probability=add_probability,
                                            protected=protected)
        else:
            event = apply_random_update(graph, rng,
                                        add_probability=add_probability)
        if event is not None:
            events.append(event)
    return events


def apply_event(graph: DynamicGraph, event: GraphUpdate) -> GraphUpdate:
    """Re-apply one recorded journal event to ``graph``; returns the new event.

    The event must be the next one in sequence (``event.version ==
    graph.version + 1``) so that replayed graphs stay version-aligned with
    the original journal; raises :class:`repro.exceptions.GraphError`
    otherwise.
    """
    if event.version != graph.version + 1:
        raise GraphError(
            f"journal replay out of sequence: expected version "
            f"{graph.version + 1}, got event {event.version}; replays need "
            "the complete journal since version 0"
        )
    if event.kind == ADD:
        return graph.add_edge(event.u, event.v, event.weight)
    if event.kind == REMOVE:
        return graph.remove_edge(event.u, event.v)
    if event.kind == REWEIGHT:
        return graph.update_weight(event.u, event.v, event.weight)
    if event.kind == ADD_NODE:
        applied = graph.add_node(event.edges)
        if applied.node != event.node:
            raise GraphError(
                f"journal replay minted node {applied.node}, recorded "
                f"event has {event.node}; the journal is not complete"
            )
        return applied
    if event.kind == REMOVE_NODE:
        return graph.remove_node(int(event.node))
    raise GraphError(f"unknown journal event kind {event.kind!r}")


def replay_events(graph: Graph, events: Iterable[GraphUpdate],
                  upto_version: Optional[int] = None) -> DynamicGraph:
    """Rebuild a :class:`DynamicGraph` by replaying a recorded journal.

    ``graph`` is the (immutable) seed topology the journal started from;
    ``events`` the complete journal since version 0, in any order (sorted by
    version internally).  With ``upto_version`` the replay stops after that
    version — the primary use: reconstructing the exact graph a mid-burst
    service response was computed against, so it can be compared with a
    fresh synchronous engine.

    Raises :class:`repro.exceptions.GraphError` when the events do not form
    a contiguous version sequence over ``graph`` (e.g. a truncated journal).
    """
    dynamic = DynamicGraph(graph)
    for event in sorted(events, key=lambda e: e.version):
        if upto_version is not None and event.version > upto_version:
            break
        apply_event(dynamic, event)
    return dynamic


# --------------------------------------------------------------------------
# Async traffic (Poisson arrivals of mixed queries/updates)
# --------------------------------------------------------------------------

@dataclass
class TrafficReport:
    """Outcome of one :func:`poisson_traffic` run against an async service.

    Latencies are per-operation wall-clock seconds; ``eval_observations``
    and ``query_observations`` pair every answer with the journal version it
    was computed at (the raw material of equivalence checks); ``events`` is
    the union of all applied journal events in version order.
    """

    queries: int = 0
    evaluations: int = 0
    updates_submitted: int = 0
    updates_applied: int = 0
    updates_failed: int = 0
    updates_rejected: int = 0
    query_latencies: List[float] = field(default_factory=list)
    update_latencies: List[float] = field(default_factory=list)
    eval_observations: List[Tuple[int, float]] = field(default_factory=list)
    query_observations: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)
    events: List[GraphUpdate] = field(default_factory=list)

    def latency_percentiles(self, which: str = "query") -> Dict[str, float]:
        """p50/p95/p99/max of the chosen latency series (empty -> zeros)."""
        series = self.query_latencies if which == "query" else self.update_latencies
        if not series:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        data = np.asarray(series, dtype=np.float64)
        return {
            "p50": float(np.percentile(data, 50)),
            "p95": float(np.percentile(data, 95)),
            "p99": float(np.percentile(data, 99)),
            "max": float(np.max(data)),
        }


def _random_mutation(graph: DynamicGraph, rng, node_probability: float,
                     add_probability: float,
                     protected: Optional[Iterable[int]]) -> Optional[GraphUpdate]:
    """Writer-side mutation: drawn at apply time so the stream is FIFO-determined."""
    if node_probability > 0.0 and rng.random() < node_probability:
        return apply_random_node_event(graph, rng,
                                       add_probability=add_probability,
                                       protected=protected)
    return apply_random_update(graph, rng, add_probability=add_probability)


async def poisson_traffic(service: "AsyncCFCMService", count: int,
                          rng: RandomState = None, *,
                          rate: float = 500.0,
                          query_fraction: float = 0.5,
                          node_probability: float = 0.0,
                          add_probability: float = 0.5,
                          k: int = 4, method: str = "exact", eps: float = 0.3,
                          monitor_group: Optional[Sequence[int]] = None,
                          evaluate_fraction: float = 0.5,
                          consistency: str = "fresh",
                          realtime: bool = False) -> TrafficReport:
    """Drive ``service`` with ``count`` Poisson arrivals of mixed traffic.

    Each arrival is a query with probability ``query_fraction`` and an
    update otherwise.  Queries run as concurrent tasks (they overlap with
    later arrivals and with the writer); updates are submitted
    fire-and-forget and their tickets are collected at the end.  When
    ``monitor_group`` is given, a query arrival is an exact evaluation of
    that group with probability ``evaluate_fraction`` (monitoring traffic)
    and a selection query otherwise; the group is protected from node-churn
    removal so monitoring stays well-defined.

    Updates draw their concrete mutation *on the writer, at apply time*,
    from a dedicated child generator — the applied event stream depends only
    on the submission order (FIFO), not on how queries interleave, which is
    what makes randomized equivalence tests reproducible.

    ``rate`` is the arrival rate in events/second.  With ``realtime=False``
    (default) inter-arrival gaps are skipped and arrivals are issued as fast
    as the loop allows (the backlog regime that exercises coalescing);
    ``realtime=True`` sleeps the exponential gaps instead.
    """
    if count < 0:
        raise InvalidParameterError("count must be non-negative")
    if not 0.0 <= query_fraction <= 1.0:
        raise InvalidParameterError("query_fraction must be within [0, 1]")
    if rate <= 0.0:
        raise InvalidParameterError("rate must be positive")
    rng = as_rng(rng)
    update_rng = as_rng(int(rng.integers(0, 2**62)))
    protected = tuple(monitor_group) if monitor_group is not None else None
    mutation = functools.partial(_random_mutation, rng=update_rng,
                                 node_probability=node_probability,
                                 add_probability=add_probability,
                                 protected=protected)
    report = TrafficReport()
    tasks: List[asyncio.Task] = []
    tickets: List[Tuple[object, float]] = []

    for _ in range(int(count)):
        gap = float(rng.exponential(1.0 / rate))
        await asyncio.sleep(gap if realtime else 0.0)
        if rng.random() < query_fraction:
            if protected is not None and rng.random() < evaluate_fraction:
                tasks.append(asyncio.ensure_future(
                    _timed_evaluate(service, protected, consistency, report)))
            else:
                tasks.append(asyncio.ensure_future(
                    _timed_query(service, k, method, eps, consistency, report)))
        else:
            started = clock()
            try:
                ticket = await service.submit(mutation)
            except ServiceOverloadedError:
                report.updates_rejected += 1
                continue
            report.updates_submitted += 1
            tickets.append((ticket, started))

    if tasks:
        await asyncio.gather(*tasks)
    for ticket, started in tickets:
        await ticket.settled()
        # settled_at is stamped by the writer the moment the mutation was
        # applied, so this is true submit-to-apply latency, not the time at
        # which this drain loop got around to awaiting the ticket.
        report.update_latencies.append(ticket.settled_at - started)
        if ticket.exception() is not None:
            report.updates_failed += 1
        else:
            events = await ticket.result()
            report.events.extend(events)
            report.updates_applied += 1
    report.events.sort(key=lambda event: event.version)
    return report


async def _timed_evaluate(service: "AsyncCFCMService", group: Sequence[int],
                          consistency: str, report: TrafficReport) -> None:
    started = clock()
    response = await service.evaluate(group, mode="exact",
                                      consistency=consistency)
    report.query_latencies.append(clock() - started)
    report.evaluations += 1
    report.eval_observations.append((response.version, float(response.result)))


async def _timed_query(service: "AsyncCFCMService", k: int, method: str,
                       eps: float, consistency: str,
                       report: TrafficReport) -> None:
    started = clock()
    response = await service.query(k, method=method, eps=eps,
                                   consistency=consistency)
    report.query_latencies.append(clock() - started)
    report.queries += 1
    report.query_observations.append(
        (response.version, tuple(response.result.group))
    )
