"""Mutable dynamic-graph layer: an event journal over immutable CSR snapshots.

:class:`repro.Graph` is deliberately immutable — every batch algorithm in the
library assumes a frozen CSR layout.  A production query service, however,
faces graphs that change between queries (road closures, link failures, peers
joining and leaving an overlay).  :class:`DynamicGraph` bridges the two
worlds:

* it keeps the *current* edge set (with positive weights) in hash maps that
  support O(1) ``add_edge`` / ``remove_edge`` / ``update_weight``, and a
  mutable node set with **stable ids**: :meth:`add_node` mints a fresh id
  (ids are never reused), :meth:`remove_node` retires one together with its
  incident edges;
* every mutation is appended to a monotonically versioned **journal** of
  :class:`GraphUpdate` events (edge and node events share one type), so any
  number of downstream consumers (incremental inverses, forest caches) can
  catch up independently via :meth:`journal_since` without callbacks;
  :meth:`compact` truncates the prefix no consumer can still request so the
  journal stays bounded in a long-running service;
* :meth:`snapshot` materialises an immutable :class:`repro.Graph` of the
  current topology, cached per version, so the existing batch algorithms run
  unmodified on the latest state.  Because snapshot node ids must be the
  dense range ``0 .. n - 1``, stable ids are remapped; the (sorted) id table
  is exposed via :meth:`snapshot_mapping`;
* **connectivity guards**: CFCC is only defined on connected graphs, so edge
  and node removals that would disconnect the graph are rejected up front
  with :class:`repro.exceptions.DisconnectedGraphError` instead of surfacing
  as singular matrices deep inside a solver.  A guard asks whether the ends
  of the masked edge, or the neighbours of the masked node, still reach one
  another without it.  One search is kept across them; each one it has not
  seen starts a search of its own, and the two advance from the side with
  the shorter queue until they meet or one runs dry.  So a guard beside a
  hub stops where the two searches meet instead of sweeping the hub's
  neighbourhood, and a split costs about twice the smaller side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    DisconnectedGraphError,
    GraphError,
    InvalidNodeError,
    InvalidParameterError,
)
from repro.graph.graph import Graph
from repro.graph.traversal import require_connected
from repro.utils.validation import check_positive

ADD = "add"
REMOVE = "remove"
REWEIGHT = "reweight"
ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"

EDGE_KINDS = (ADD, REMOVE, REWEIGHT)
NODE_KINDS = (ADD_NODE, REMOVE_NODE)


@dataclass(frozen=True)
class GraphUpdate:
    """One journal entry: an applied mutation of the dynamic graph.

    Attributes
    ----------
    kind:
        ``"add"``, ``"remove"`` or ``"reweight"`` for edge events;
        ``"add_node"`` or ``"remove_node"`` for node events.
    u, v:
        Edge endpoints with ``u < v``.  For node events both equal the node.
    weight:
        Weight after the event (for removals: the weight that was removed);
        0 for node events, whose weights live in :attr:`edges`.
    delta:
        Signed Laplacian weight change (``+w`` add, ``-w`` remove,
        ``w' - w`` reweight) — exactly the rank-1 coefficient consumed by
        :func:`repro.linalg.grounded_inverse_edge_update`; 0 for node events.
    version:
        Graph version *after* this event (versions start at 0 and increase by
        one per mutation).
    node:
        The affected node for node events, ``None`` for edge events.
    edges:
        For node events, the incident ``(neighbour, weight)`` pairs attached
        (``add_node``) or removed alongside the node (``remove_node``);
        empty for edge events.
    """

    kind: str
    u: int
    v: int
    weight: float
    delta: float
    version: int
    node: Optional[int] = None
    edges: Tuple[Tuple[int, float], ...] = ()

    @property
    def is_node_event(self) -> bool:
        """Whether this entry mutates the node set rather than one edge."""
        return self.kind in NODE_KINDS


# Backwards-compatible alias from the edge-only journal era.
EdgeUpdate = GraphUpdate

NodeEdges = Union[Dict[int, float], Iterable[Union[int, Tuple[int, float]]]]


class DynamicGraph:
    """A journaled, mutable view over a connected :class:`repro.Graph`.

    Parameters
    ----------
    graph:
        Connected seed topology; its edges start with weight 1.
    weights:
        Optional ``(m,)`` array of initial edge weights, aligned with
        ``graph.edge_u`` / ``graph.edge_v`` (each finite and ``> 0``).

    Notes
    -----
    Node ids are **stable**: the seed graph contributes ids ``0 .. n - 1``,
    :meth:`add_node` mints the next unused id and ids of removed nodes are
    never reused.  :attr:`n` counts the currently *active* nodes;
    :meth:`node_ids` lists them.  Weights affect the Laplacian consumers
    (:class:`repro.dynamic.IncrementalResistance`); the topology
    :meth:`snapshot` feeding the unit-resistor forest samplers requires
    :attr:`is_unit_weighted`.
    """

    def __init__(self, graph: Graph, weights: Optional[np.ndarray] = None):
        require_connected(graph)
        if weights is None:
            values = np.ones(graph.m, dtype=np.float64)
        else:
            try:
                values = np.array(weights, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"weights must be an array of {graph.m} numbers: {exc}"
                ) from exc
            if values.shape != (graph.m,):
                raise InvalidParameterError(
                    f"weights must have shape ({graph.m},), got {values.shape}"
                )
            bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
            if bad.size:
                i = int(bad[0])
                raise InvalidParameterError(
                    f"weight of ({graph.edge_u[i]}, {graph.edge_v[i]}) must be "
                    f"finite and > 0, got {values[i]}"
                )
        # The weight map's insertion order is the seed graph's edge order,
        # which edge_arrays() and the Laplacian assemblies follow.
        keys = zip(graph.edge_u.tolist(), graph.edge_v.tolist())
        self._weights: Dict[Tuple[int, int], float] = (
            dict.fromkeys(keys, 1.0) if weights is None
            else dict(zip(keys, values.tolist()))
        )
        # _adjacency is indexed by stable id and grows with add_node; removed
        # slots are tombstoned with None so live ids never shift.
        indptr, adjacency, _ = graph.adjacency_lists()
        self._adjacency: List[Optional[Set[int]]] = [
            set(adjacency[lo:hi]) for lo, hi in zip(indptr, indptr[1:])
        ]
        self._active_count = graph.n
        self._edges = _read_only(graph.edge_u, graph.edge_v, values)
        self._edges_version = 0

        self._journal: List[GraphUpdate] = []
        self._journal_floor = 0
        self._version = 0
        self._snapshot: Optional[Graph] = graph
        self._snapshot_version = 0
        self._mapping = np.arange(graph.n, dtype=np.int64)
        self._mapping.flags.writeable = False
        # Count of edges with weight != 1, so is_unit_weighted is O(1) on the
        # engine's per-query fast path instead of an O(m) scan.
        self._non_unit_count = int(np.count_nonzero(values != 1.0))

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of currently active nodes."""
        return self._active_count

    @property
    def m(self) -> int:
        """Current number of undirected edges."""
        return len(self._weights)

    @property
    def version(self) -> int:
        """Monotonic version counter; bumped by one per applied mutation."""
        return self._version

    @property
    def is_unit_weighted(self) -> bool:
        """Whether every current edge has weight exactly 1 (O(1))."""
        return self._non_unit_count == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicGraph(n={self.n}, m={self.m}, version={self._version})"

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is a currently active (stable) node id."""
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            return False
        node = int(node)
        return 0 <= node < len(self._adjacency) and self._adjacency[node] is not None

    def node_ids(self) -> np.ndarray:
        """Sorted array of the active stable node ids."""
        return self.snapshot_mapping()

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over current undirected edges as ``(u, v)`` with ``u < v``."""
        return iter(sorted(self._weights))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` currently exists."""
        return self._key(u, v) in self._weights

    def weight(self, u: int, v: int) -> float:
        """Current weight of edge ``(u, v)``; raises if the edge is absent."""
        key = self._key(u, v)
        if key not in self._weights:
            raise GraphError(f"edge ({key[0]}, {key[1]}) does not exist")
        return self._weights[key]

    def degree(self, node: int) -> int:
        """Current (unweighted) degree of ``node``."""
        return len(self._adjacency[self._check_active(node)])

    def neighbors(self, node: int) -> List[int]:
        """Sorted current neighbours of ``node`` (by stable id)."""
        return sorted(self._adjacency[self._check_active(node)])

    def validate_group(self, group: Iterable[int]) -> Tuple[int, ...]:
        """Validate a node group against the *active* node set; returns it sorted.

        The dynamic analogue of :func:`repro.utils.validation.check_group`:
        node ids are stable, so membership is checked against the active set
        rather than a dense ``[0, n)`` range.
        """
        nodes = [self._check_active(v) for v in group]
        if not nodes:
            raise InvalidParameterError("node group must be non-empty")
        if len(set(nodes)) != len(nodes):
            raise InvalidParameterError(
                f"node group contains duplicates: {sorted(nodes)}"
            )
        if len(nodes) >= self._active_count:
            raise InvalidParameterError(
                f"node group of size {len(nodes)} must be a strict subset of "
                f"{self._active_count} nodes"
            )
        return tuple(sorted(nodes))

    # -------------------------------------------------------------- mutations
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> GraphUpdate:
        """Insert edge ``(u, v)`` with the given positive weight."""
        key = self._key(u, v)
        if key in self._weights:
            raise GraphError(f"edge ({key[0]}, {key[1]}) already exists")
        weight = check_positive("weight", weight)
        self._weights[key] = weight
        self._adjacency[key[0]].add(key[1])
        self._adjacency[key[1]].add(key[0])
        if weight != 1.0:
            self._non_unit_count += 1
        return self._record(ADD, key, weight=weight, delta=weight)

    def remove_edge(self, u: int, v: int) -> GraphUpdate:
        """Delete edge ``(u, v)``; rejected when it would disconnect the graph."""
        key = self._key(u, v)
        if key not in self._weights:
            raise GraphError(f"edge ({key[0]}, {key[1]}) does not exist")
        if self._would_disconnect(key):
            raise DisconnectedGraphError(
                f"removing edge ({key[0]}, {key[1]}) would disconnect the "
                "graph; CFCC is undefined on disconnected graphs"
            )
        weight = self._weights.pop(key)
        self._adjacency[key[0]].discard(key[1])
        self._adjacency[key[1]].discard(key[0])
        if weight != 1.0:
            self._non_unit_count -= 1
        return self._record(REMOVE, key, weight=weight, delta=-weight)

    def update_weight(self, u: int, v: int, weight: float) -> Optional[GraphUpdate]:
        """Set the weight of existing edge ``(u, v)``; no-op when unchanged."""
        key = self._key(u, v)
        if key not in self._weights:
            raise GraphError(f"edge ({key[0]}, {key[1]}) does not exist")
        weight = check_positive("weight", weight)
        old = self._weights[key]
        if weight == old:
            return None
        self._weights[key] = weight
        self._non_unit_count += (weight != 1.0) - (old != 1.0)
        return self._record(REWEIGHT, key, weight=weight, delta=weight - old)

    def add_node(self, edges: NodeEdges) -> GraphUpdate:
        """Insert a new node attached to ``edges``; returns the journal event.

        Parameters
        ----------
        edges:
            The initial incident edges, as ``{neighbour: weight}``, or an
            iterable of neighbours and/or ``(neighbour, weight)`` pairs
            (bare neighbours get weight 1).  At least one edge is required —
            an isolated node would disconnect the graph.

        Returns
        -------
        The recorded ``"add_node"`` :class:`GraphUpdate`; the new stable id
        is its :attr:`GraphUpdate.node`.
        """
        attachments = self._normalise_node_edges(edges)
        if not attachments:
            raise DisconnectedGraphError(
                "add_node requires at least one incident edge; an isolated "
                "node would disconnect the graph"
            )
        node = len(self._adjacency)
        self._adjacency.append(set())
        self._active_count += 1
        # Ids only grow, so the new one goes last in the sorted table.
        self._mapping = np.append(self._mapping, node)
        self._mapping.flags.writeable = False
        for neighbour, weight in attachments:
            key = (neighbour, node) if neighbour < node else (node, neighbour)
            self._weights[key] = weight
            self._adjacency[node].add(neighbour)
            self._adjacency[neighbour].add(node)
            if weight != 1.0:
                self._non_unit_count += 1
        return self._record(ADD_NODE, (node, node), weight=0.0, delta=0.0,
                            node=node, edges=attachments)

    def remove_node(self, node: int) -> GraphUpdate:
        """Retire ``node`` and its incident edges; guarded against disconnects.

        The removed id is never reused.  The event's :attr:`GraphUpdate.edges`
        records the incident edges that disappeared with the node, which is
        exactly what incremental-inverse consumers need to downdate.
        """
        node = self._check_active(node)
        if self._active_count <= 2:
            raise GraphError(
                "cannot remove a node from a graph with fewer than 3 nodes"
            )
        if self._node_removal_disconnects(node):
            raise DisconnectedGraphError(
                f"removing node {node} would disconnect the graph; CFCC is "
                "undefined on disconnected graphs"
            )
        dropped: List[Tuple[int, float]] = []
        for neighbour in sorted(self._adjacency[node]):
            key = (node, neighbour) if node < neighbour else (neighbour, node)
            weight = self._weights.pop(key)
            dropped.append((neighbour, weight))
            self._adjacency[neighbour].discard(node)
            if weight != 1.0:
                self._non_unit_count -= 1
        self._adjacency[node] = None
        self._active_count -= 1
        self._mapping = np.delete(self._mapping,
                                  np.searchsorted(self._mapping, node))
        self._mapping.flags.writeable = False
        return self._record(REMOVE_NODE, (node, node), weight=0.0, delta=0.0,
                            node=node, edges=tuple(dropped))

    # ---------------------------------------------------------------- journal
    def journal(self) -> Tuple[GraphUpdate, ...]:
        """The retained mutation history (oldest first; see :meth:`compact`)."""
        return tuple(self._journal)

    @property
    def journal_floor(self) -> int:
        """Oldest version consumers may still sync from (see :meth:`compact`)."""
        return self._journal_floor

    def journal_since(self, version: int) -> List[GraphUpdate]:
        """Events applied after ``version`` (i.e. with ``event.version > version``).

        This is the consumer-side synchronisation primitive: each downstream
        state (incremental inverse, forest cache) remembers the version it
        last saw and replays only the suffix.

        Raises
        ------
        GraphError
            When ``version < journal_floor`` — the requested suffix was
            discarded by :meth:`compact`; the consumer must rebuild from the
            current state instead of replaying.
        """
        version = max(int(version), 0)
        if version >= self._version:
            return []
        if version < self._journal_floor:
            raise GraphError(
                f"journal events after version {version} were compacted away "
                f"(floor is {self._journal_floor}); rebuild from the current "
                "snapshot instead of replaying"
            )
        # Versions are dense, so the suffix of events newer than `version`
        # starts at index version - floor of the retained list.
        return self._journal[version - self._journal_floor:]

    def compact(self, floor_version: int) -> int:
        """Discard journal entries with ``version <= floor_version``.

        Bounds the journal in a long-running service: once every consumer has
        synced past ``floor_version`` the prefix can never be requested again.
        Consumers that fall behind a later compaction are told so by
        :meth:`journal_since` (it raises) and must rebuild from the snapshot.

        Returns the number of entries dropped.
        """
        floor_version = min(int(floor_version), self._version)
        drop = floor_version - self._journal_floor
        if drop <= 0:
            return 0
        del self._journal[:drop]
        self._journal_floor = floor_version
        return drop

    # --------------------------------------------------------------- exports
    def snapshot(self) -> Graph:
        """Immutable :class:`repro.Graph` of the current topology (cached).

        Snapshot node ids are the dense range ``0 .. n - 1``; when nodes have
        been removed, stable ids are remapped and :meth:`snapshot_mapping`
        translates snapshot ids back to stable ids.
        """
        if self._snapshot is None or self._snapshot_version != self._version:
            u, v, _ = self._snapshot_edges()
            self._snapshot = Graph(self._active_count, np.column_stack([u, v]))
            self._snapshot_version = self._version
        return self._snapshot

    def snapshot_mapping(self) -> np.ndarray:
        """``mapping[i]`` = stable id of snapshot (compact) node ``i``.

        The identity permutation until the first node removal.  The returned
        array is the graph's own table, marked read-only: a join or leave
        replaces it with an edited copy, and edge churn reuses it.
        """
        return self._mapping

    def compact_index(self, node: int) -> int:
        """Snapshot (compact) index of the active stable id ``node``."""
        node = self._check_active(node)
        mapping = self.snapshot_mapping()
        return int(np.searchsorted(mapping, node))

    def compact_nodes(self, nodes: Iterable[int]) -> List[int]:
        """Snapshot (compact) indices of the given active stable ids."""
        return [self.compact_index(node) for node in nodes]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, w)``: the current edges in stable ids, ``u < v``.

        Edges follow the weight map's insertion order, which the Laplacian
        assemblies sum in, so it is bit-significant.  The arrays are
        read-only and cached per version, so every consumer of one state
        shares one read of the map.
        """
        if self._edges_version != self._version:
            m = len(self._weights)
            ends = np.fromiter(chain.from_iterable(self._weights),
                               dtype=np.int64, count=2 * m).reshape(m, 2)
            weights = np.fromiter(self._weights.values(), dtype=np.float64,
                                  count=m)
            self._edges = _read_only(ends[:, 0], ends[:, 1], weights)
            self._edges_version = self._version
        return self._edges

    def laplacian_dense(self) -> np.ndarray:
        """Dense weighted Laplacian ``L = D_w - A_w`` of the current state.

        Rows/columns follow :meth:`snapshot_mapping` (i.e. snapshot ids), so
        the matrix always matches :meth:`snapshot` and stays dense-indexed
        under node churn.  Assembled with vectorised scatter-adds — this sits
        on every refresh/refactorise hot path.
        """
        n = self._active_count
        matrix = np.zeros((n, n), dtype=np.float64)
        u, v, weights = self._snapshot_edges()
        np.add.at(matrix, (u, u), weights)
        np.add.at(matrix, (v, v), weights)
        np.add.at(matrix, (u, v), -weights)
        np.add.at(matrix, (v, u), -weights)
        return matrix

    def laplacian_sparse(self) -> sp.csr_matrix:
        """Sparse (CSR) weighted Laplacian of the current state.

        Same snapshot-id row/column convention as :meth:`laplacian_dense`,
        assembled in O(m) without the dense ``(n, n)`` buffer — this is what
        the sparse resistance backend factorises, so it must stay cheap on
        graphs where the dense form no longer fits the n² budget.
        """
        n = self._active_count
        u, v, weights = self._snapshot_edges()
        data = np.concatenate([weights, weights, -weights, -weights])
        rows = np.concatenate([u, v, u, v])
        cols = np.concatenate([u, v, v, u])
        matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n),
                               dtype=np.float64)
        return matrix.tocsr()

    # ------------------------------------------------------------- internals
    def _snapshot_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`edge_arrays` with endpoints in snapshot (compact) ids."""
        u, v, w = self.edge_arrays()
        mapping = self._mapping
        if int(mapping[-1]) != mapping.size - 1:
            u = np.searchsorted(mapping, u)
            v = np.searchsorted(mapping, v)
        return u, v, w

    def _check_active(self, node: int) -> int:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise InvalidNodeError(f"node must be an integer, got {node!r}")
        node = int(node)
        if not 0 <= node < len(self._adjacency):
            raise InvalidNodeError(
                f"node {node} outside valid range [0, {len(self._adjacency) - 1}]"
            )
        if self._adjacency[node] is None:
            raise InvalidNodeError(f"node {node} was removed")
        return node

    def _key(self, u: int, v: int) -> Tuple[int, int]:
        u = self._check_active(u)
        v = self._check_active(v)
        if u == v:
            raise GraphError("self-loops are not supported")
        return (u, v) if u < v else (v, u)

    def _normalise_node_edges(self, edges: NodeEdges) -> Tuple[Tuple[int, float], ...]:
        if isinstance(edges, dict):
            items: List[Tuple[int, float]] = [(k, w) for k, w in edges.items()]
        else:
            items = []
            for entry in edges:
                if isinstance(entry, tuple):
                    neighbour, weight = entry
                else:
                    neighbour, weight = entry, 1.0
                items.append((neighbour, weight))
        seen: Set[int] = set()
        attachments: List[Tuple[int, float]] = []
        for neighbour, weight in items:
            neighbour = self._check_active(neighbour)
            if neighbour in seen:
                raise GraphError(
                    f"duplicate neighbour {neighbour} in add_node edges"
                )
            seen.add(neighbour)
            attachments.append(
                (neighbour, check_positive(f"weight of edge to {neighbour}", weight))
            )
        return tuple(sorted(attachments))

    def _record(self, kind: str, key: Tuple[int, int], weight: float,
                delta: float, node: Optional[int] = None,
                edges: Tuple[Tuple[int, float], ...] = ()) -> GraphUpdate:
        self._version += 1
        event = GraphUpdate(kind=kind, u=key[0], v=key[1], weight=float(weight),
                            delta=float(delta), version=self._version,
                            node=node, edges=edges)
        self._journal.append(event)
        return event

    def _stays_connected(self, sources: List[int],
                         skip_edge: Optional[Tuple[int, int]] = None,
                         skip_node: Optional[int] = None) -> bool:
        """Whether ``sources`` lie in one component without the masked edge or node.

        One search grows from the first source and is kept across sources.
        A later source it has not seen starts a search of its own; the two
        advance one node at a time from the side with the shorter queue, and
        merge when one touches the other's seen set (after finishing that
        node's scan, so a clique joins in one step).  A side whose queue runs
        dry has explored a whole component without the other, so the sources
        are split.  A split costs about twice the smaller side; the worst case
        is O(n + m).
        """
        adjacency = self._adjacency
        blocked: Dict[int, int] = {}
        if skip_edge is not None:
            blocked = {skip_edge[0]: skip_edge[1], skip_edge[1]: skip_edge[0]}
        # The masked node sits in every seen set, so no side steps onto it.
        hidden = [] if skip_node is None else [skip_node]
        seen: Set[int] = set(sources[:1] + hidden)
        queue = deque(sources[:1])
        for source in sources[1:]:
            if source in seen:
                continue
            other_seen, other_queue = set([source] + hidden), deque([source])
            met = False
            while not met:
                if len(other_queue) <= len(queue):
                    grow, grow_seen, far_seen = other_queue, other_seen, seen
                else:
                    grow, grow_seen, far_seen = queue, seen, other_seen
                if not grow:
                    return False
                current = grow.popleft()
                skip = blocked.get(current)
                for neighbour in adjacency[current]:
                    if neighbour == skip or neighbour in grow_seen:
                        continue
                    if neighbour in far_seen:
                        met = True
                        continue
                    grow_seen.add(neighbour)
                    grow.append(neighbour)
            seen |= other_seen
            queue.extend(other_queue)
        return True

    def _would_disconnect(self, key: Tuple[int, int]) -> bool:
        """Whether edge ``key`` is a bridge: ``u`` and ``v`` split without it."""
        u, v = key
        if len(self._adjacency[u]) == 1 or len(self._adjacency[v]) == 1:
            return True
        return not self._stays_connected([u, v], skip_edge=key)

    def _node_removal_disconnects(self, node: int) -> bool:
        """Whether ``node`` is a cut vertex: its neighbours split without it.

        The graph is connected beforehand, so every node reaches ``node``
        through one of its neighbours; removing it keeps the graph connected
        exactly when all of them still reach one another.
        """
        return not self._stays_connected(sorted(self._adjacency[node]),
                                         skip_node=node)


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Read-only views of ``arrays``, safe to hand out from a cache."""
    views = tuple(np.asarray(a).view() for a in arrays)
    for view in views:
        view.flags.writeable = False
    return views
