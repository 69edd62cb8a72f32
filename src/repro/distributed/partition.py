"""Edge-cut partitioner with a vertex-separator promotion.

The sharded engine needs the node set split so that the grounded interior
block of the global Laplacian is *block diagonal* by shard.  That holds
exactly when no edge joins the interiors of two different parts, so the
partition is built in two deterministic stages:

1. **Homes** — balanced multi-source BFS over the current snapshot's CSR
   lists: ``p`` evenly spread seed nodes grow their parts one node per
   round, the currently smallest part claiming first (a heap on
   ``(size, part)``; a part whose frontier runs dry can never claim again
   and leaves it), so parts come out connected and within one node of
   each other in size.
2. **Separator** — every *cut* edge (endpoints homed to different parts,
   found by one mask over the edge arrays) must lose at least one endpoint
   to the separator ``T``; a greedy vertex cover promotes the endpoint
   covering the most still-uncovered cut edges (ties by node id; a heap on
   ``(-count, id)`` with lazy deletion).  Promoted nodes belong to no part.
   On mesh-like topologies this yields roughly half the nodes an edge-cut
   boundary would replicate, and the separator — not the edge cut — is
   what the dense Schur complement is sized by.

After promotion the defining invariant of the sharded algebra holds:

    every neighbour of an interior node is in the same part or in ``T``.

so the interior–interior coupling between different parts is identically
zero and per-part grounded inverses compose through a single ``|T| x |T|``
Schur complement (:mod:`repro.distributed.engine`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class Partition:
    """A home assignment plus the promoted vertex separator.

    Attributes
    ----------
    home:
        ``{stable node id: part index}`` for **every** active node,
        including separator nodes (their home records which part they were
        grown into before promotion; new nodes inherit a neighbour's home).
    parts:
        Per part, the sorted tuple of *interior* stable node ids (home in
        that part and not promoted).
    separator:
        Sorted tuple of the promoted separator node ids ``T``.
    """

    home: Dict[int, int]
    parts: Tuple[Tuple[int, ...], ...]
    separator: Tuple[int, ...]

    @property
    def shards(self) -> int:
        return len(self.parts)

    @cached_property
    def separator_set(self) -> frozenset:
        """``separator`` as a frozenset, for O(1) membership tests."""
        return frozenset(self.separator)


def partition_graph(graph: DynamicGraph, shards: int,
                    seeds: Sequence[int] = ()) -> Partition:
    """Partition the active node set of ``graph`` into ``shards`` parts.

    Deterministic for a fixed graph state: BFS seeds are evenly spaced over
    the sorted active ids unless ``seeds`` pins them explicitly (one per
    part, useful for topology-aware layouts such as lattice strips).
    """
    shards = check_integer("shards", shards, minimum=1)
    if shards > graph.n:
        raise InvalidParameterError(
            f"cannot split {graph.n} nodes into {shards} shards"
        )
    home = assign_homes(graph, shards, seeds)
    return partition_from_home(graph, home, shards)


def repartition(graph: DynamicGraph, previous: Partition) -> Partition:
    """Re-partition after a structural event, inheriting ``previous`` homes.

    Surviving nodes keep their home; joining nodes adopt the home of their
    first already-homed neighbour, in repeated sweeps, so chains of joining
    nodes resolve breadth-first; nodes no sweep reaches go to part 0.  If
    no node survives, homes come from a fresh BFS (:func:`assign_homes`).
    """
    ids = graph.node_ids().tolist()
    home = {x: previous.home[x] for x in ids if x in previous.home}
    if not home:
        home = assign_homes(graph, previous.shards)
    pending = [x for x in ids if x not in home]
    while pending:
        rest = []
        for node in pending:
            owner = next((home[nb] for nb in graph.neighbors(node)
                          if nb in home), None)
            if owner is None:
                rest.append(node)
            else:
                home[node] = owner
        if len(rest) == len(pending):
            home.update(dict.fromkeys(rest, 0))
            break
        pending = rest
    return partition_from_home(graph, home, previous.shards)


def assign_homes(graph: DynamicGraph, shards: int,
                 seeds: Sequence[int] = ()) -> Dict[int, int]:
    """Balanced multi-source BFS home assignment over the active nodes."""
    ids = graph.node_ids()
    if seeds:
        chosen = [int(s) for s in seeds]
        if len(chosen) != shards:
            raise InvalidParameterError(
                f"expected {shards} seeds, got {len(chosen)}"
            )
        for seed in chosen:
            if not graph.has_node(seed):
                raise InvalidParameterError(f"seed node {seed} is not active")
        if len(set(chosen)) != shards:
            raise InvalidParameterError("seed nodes must be distinct")
    else:
        step = max(len(ids) // shards, 1)
        chosen = [int(ids[min(i * step, len(ids) - 1)]) for i in range(shards)]
        # Evenly spaced picks can collide on tiny graphs; fall back to the
        # first unused id so every part gets a distinct seed.
        used = set()
        for i, seed in enumerate(chosen):
            if seed in used:
                seed = next(x for x in ids.tolist() if x not in used)
            used.add(seed)
            chosen[i] = seed

    # The BFS runs in snapshot ids, whose CSR lists are sorted ascending
    # like neighbors(); the id table maps them back to stable ids.
    indptr, adjacency, _ = graph.snapshot().adjacency_lists()
    starts = np.searchsorted(ids, chosen).tolist()
    owner = [-1] * len(ids)
    for part, start in enumerate(starts):
        owner[start] = part
    claims, claim_parts = list(starts), list(range(shards))
    frontiers = [deque([start]) for start in starts]
    # scan[p]: slot of the first neighbour of frontier p's head that may be
    # unclaimed; the slots before it hold claimed nodes, which stay claimed.
    scan = [indptr[start] for start in starts]
    heap = [(1, part) for part in range(shards)]
    while heap and len(claims) < len(ids):
        # The currently smallest part (ties by index) claims exactly one
        # unassigned node off its BFS frontier, so parts stay within one
        # node of each other no matter how badly the seeds are spread.
        size, part = heap[0]
        frontier, slot = frontiers[part], scan[part]
        while frontier:
            end = indptr[frontier[0] + 1]
            while slot < end and owner[adjacency[slot]] >= 0:
                slot += 1
            if slot < end:
                break
            frontier.popleft()  # exhausted; head rotates out
            if frontier:
                slot = indptr[frontier[0]]
        if not frontier:
            heapq.heappop(heap)  # a dry frontier never refills
            continue
        claimed = adjacency[slot]
        owner[claimed] = part
        claims.append(claimed)
        claim_parts.append(part)
        frontier.append(claimed)
        scan[part] = slot
        heapq.heapreplace(heap, (size + 1, part))
    home = dict(zip(ids[claims].tolist(), claim_parts))
    if len(home) < len(ids):
        # Exhausted frontiers with nodes left can only happen if the graph
        # were disconnected, which DynamicGraph guards against.
        sizes = np.bincount(claim_parts, minlength=shards).tolist()
        for node in (x for x in ids.tolist() if x not in home):
            home[node] = int(np.argmin(sizes))
            sizes[home[node]] += 1
    return home


def partition_from_home(graph: DynamicGraph, home: Dict[int, int],
                        shards: int) -> Partition:
    """Promote a greedy vertex cover of the cut edges into the separator."""
    nodes = np.fromiter(home.keys(), dtype=np.int64, count=len(home))
    parts_of = np.fromiter(home.values(), dtype=np.int64, count=len(home))
    bound = int(nodes.max()) + 1
    part = np.full(bound, -1, dtype=np.int64)
    part[nodes] = parts_of
    u, v, _ = graph.edge_arrays()
    cut = part[u] != part[v]

    # Cut-edge adjacency as CSR over stable ids.
    ends = np.concatenate([u[cut], v[cut]])
    others = np.concatenate([v[cut], u[cut]])[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=bound)
    offsets = np.concatenate([[0], np.cumsum(degree)]).tolist()
    others, count = others.tolist(), degree.tolist()
    # Greedy cover: repeatedly promote the endpoint covering the most
    # still-uncovered cut edges (ties by id, for determinism).  Counts only
    # fall, so a heap entry whose count is stale is skipped when popped.
    heap = [(-c, x) for x, c in enumerate(count) if c]
    heapq.heapify(heap)
    separator = set()
    while heap:
        negative, best = heapq.heappop(heap)
        if -negative != count[best]:
            continue
        separator.add(best)
        count[best] = 0
        for other in others[offsets[best]:offsets[best + 1]]:
            if other not in separator:
                count[other] -= 1
                if count[other]:
                    heapq.heappush(heap, (-count[other], other))

    separator = sorted(separator)
    promoted = np.zeros(bound, dtype=bool)
    promoted[separator] = True
    interior = ~promoted[nodes]
    return Partition(
        home=dict(home),
        parts=tuple(tuple(np.sort(nodes[interior & (parts_of == p)]).tolist())
                    for p in range(shards)),
        separator=tuple(separator),
    )
