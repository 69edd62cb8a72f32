"""Edge-cut partitioner with a vertex-separator promotion.

The sharded engine needs the node set split so that the grounded interior
block of the global Laplacian is *block diagonal* by shard.  That holds
exactly when no edge joins the interiors of two different parts, so the
partition is built in two deterministic stages:

1. **Homes** — balanced multi-source BFS over the current snapshot: ``p``
   evenly spread seed nodes grow their parts one node per round, the
   currently smallest part claiming first, so parts come out connected
   and within one node of each other in size.
2. **Separator** — every *cut* edge (endpoints homed to different parts)
   must lose at least one endpoint to the separator ``T``; a greedy vertex
   cover promotes the endpoint covering the most still-uncovered cut edges
   (ties by node id).  Promoted nodes belong to no part.  On mesh-like
   topologies this yields roughly half the nodes an edge-cut boundary
   would replicate, and the separator — not the edge cut — is what the
   dense Schur complement is sized by.

After promotion the defining invariant of the sharded algebra holds:

    every neighbour of an interior node is in the same part or in ``T``.

so the interior–interior coupling between different parts is identically
zero and per-part grounded inverses compose through a single ``|T| x |T|``
Schur complement (:mod:`repro.distributed.engine`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

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

    def is_separator(self, node: int) -> bool:
        return int(node) in self.separator_set

    def describe(self) -> Dict[str, object]:
        """Summary dict for logs and bench artifacts."""
        return {
            "shards": self.shards,
            "interior_sizes": [len(part) for part in self.parts],
            "separator_nodes": len(self.separator),
        }


def partition_graph(graph: DynamicGraph, shards: int,
                    seeds: Sequence[int] = ()) -> Partition:
    """Partition the active node set of ``graph`` into ``shards`` parts.

    Deterministic for a fixed graph state: BFS seeds are evenly spaced over
    the sorted active ids unless ``seeds`` pins them explicitly (one per
    part, useful for topology-aware layouts such as lattice strips).
    """
    shards = check_integer("shards", shards, minimum=1)
    ids = [int(x) for x in graph.node_ids()]
    if shards > len(ids):
        raise InvalidParameterError(
            f"cannot split {len(ids)} nodes into {shards} shards"
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
    ids = [int(x) for x in graph.node_ids()]
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
    ids = [int(x) for x in graph.node_ids()]
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
        chosen = [ids[min(i * step, len(ids) - 1)] for i in range(shards)]
        # Evenly spaced picks can collide on tiny graphs; fall back to the
        # first unused id so every part gets a distinct seed.
        used = set()
        for i, seed in enumerate(chosen):
            if seed in used:
                seed = next(x for x in ids if x not in used)
            used.add(seed)
            chosen[i] = seed

    home: Dict[int, int] = {}
    frontiers: List[deque] = []
    for part, seed in enumerate(chosen):
        home[seed] = part
        frontiers.append(deque([seed]))
    sizes = [1] * shards
    assigned = shards
    while assigned < len(ids):
        # The currently smallest part (ties by index) claims exactly one
        # unassigned node off its BFS frontier, so parts stay within one
        # node of each other no matter how badly the seeds are spread.
        progressed = False
        for part in sorted(range(shards), key=lambda p: (sizes[p], p)):
            frontier = frontiers[part]
            claimed = None
            while frontier and claimed is None:
                node = frontier[0]
                claimed = next((nb for nb in graph.neighbors(node)
                                if nb not in home), None)
                if claimed is None:
                    frontier.popleft()  # exhausted; head rotates out
            if claimed is None:
                continue
            home[claimed] = part
            frontier.append(claimed)
            sizes[part] += 1
            assigned += 1
            progressed = True
            break
        if not progressed:
            # Exhausted frontiers with nodes left can only happen if the
            # graph were disconnected, which DynamicGraph guards against.
            for node in (x for x in ids if x not in home):
                home[node] = int(np.argmin(sizes))
                sizes[home[node]] += 1
            assigned = len(ids)
    return home


def partition_from_home(graph: DynamicGraph, home: Dict[int, int],
                        shards: int) -> Partition:
    """Promote a greedy vertex cover of the cut edges into the separator."""
    cut_edges = [(u, v) for u, v in graph.edges() if home[u] != home[v]]
    cross_count: Dict[int, int] = {}
    for u, v in cut_edges:
        cross_count[u] = cross_count.get(u, 0) + 1
        cross_count[v] = cross_count.get(v, 0) + 1
    separator = set()
    # Greedy cover: repeatedly promote the endpoint covering the most
    # still-uncovered cut edges (ties by id, for determinism).
    remaining = list(cut_edges)
    while remaining:
        best = None
        for node, count in sorted(cross_count.items()):
            if count > 0 and (best is None or count > cross_count[best]):
                best = node
        if best is None:
            break
        separator.add(best)
        still = []
        for u, v in remaining:
            if u == best or v == best:
                cross_count[u] -= 1
                cross_count[v] -= 1
            else:
                still.append((u, v))
        remaining = still

    parts: List[List[int]] = [[] for _ in range(shards)]
    for node, part in home.items():
        if node not in separator:
            parts[part].append(node)
    return Partition(
        home=dict(home),
        parts=tuple(tuple(sorted(part)) for part in parts),
        separator=tuple(sorted(separator)),
    )
