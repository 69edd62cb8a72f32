"""Core undirected-graph data structure.

The whole library operates on :class:`Graph`, a compact CSR (compressed sparse
row) representation of a simple undirected graph with nodes labelled
``0 .. n - 1``.  The representation stores every edge twice (once per
direction); the position of a neighbour inside the flat adjacency array is the
*directed edge index*, which the spanning-forest samplers use to attribute
counters to directed edges in O(1).

Design notes
------------
* Graphs are immutable after construction; algorithms that "remove" node sets
  (for grounded Laplacians or forests rooted at a set ``S``) never mutate the
  graph, they simply mask the relevant rows/columns.
* Only simple graphs are supported: self-loops and parallel edges are rejected
  at construction time because CFCC is defined on simple electrical networks.
* Edge weights are intentionally not supported in the core class — the paper's
  algorithms, like the original, treat every edge as a unit resistor.  The
  Schur-complement machinery that needs weighted Laplacians works directly on
  matrices (see :mod:`repro.linalg.schur`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, InvalidNodeError


class Graph:
    """Simple undirected graph in CSR form.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0 .. n - 1``.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Each undirected edge
        must appear exactly once (in either orientation).

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` int64 array; neighbours of ``u`` live at positions
        ``indptr[u]:indptr[u + 1]`` of :attr:`adjacency`.
    adjacency:
        ``(2m,)`` int64 array of neighbour ids (both directions of each edge).
    degrees:
        ``(n,)`` int64 array of node degrees.
    edge_u, edge_v:
        ``(m,)`` arrays listing each undirected edge once with ``u < v``.
    """

    __slots__ = (
        "_n",
        "_m",
        "indptr",
        "adjacency",
        "degrees",
        "edge_u",
        "edge_v",
        "_reverse_position",
        "_position_edge_id",
        "_py_indptr",
        "_py_adjacency",
        "_py_degrees",
    )

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n <= 0:
            raise GraphError(f"graph must have at least one node, got n={n}")
        self._n = int(n)

        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be an iterable of (u, v) pairs")
        if edge_array.size and (edge_array.min() < 0 or edge_array.max() >= n):
            raise GraphError("edge endpoints must lie in [0, n)")
        if np.any(edge_array[:, 0] == edge_array[:, 1]):
            raise GraphError("self-loops are not supported")

        lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
        hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        if lo.size:
            duplicate = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(duplicate):
                bad = int(np.flatnonzero(duplicate)[0])
                raise GraphError(
                    f"parallel edge ({lo[bad]}, {hi[bad]}) is not supported"
                )
        self.edge_u = lo
        self.edge_v = hi
        self._m = int(lo.size)

        # CSR: each node's slots list its incident edges in edge-id order
        # (the samplers' draws depend on this neighbour order).  Directed
        # slot j < m is edge j seen from lo[j], slot m + j from hi[j]; one
        # sort by (source, edge id) places every slot.
        sources = np.concatenate([lo, hi])
        edge_ids = np.tile(np.arange(self._m, dtype=np.int64), 2)
        order = np.lexsort((edge_ids, sources))
        degrees = np.bincount(sources, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        self.indptr = indptr
        self.adjacency = np.concatenate([hi, lo])[order]
        self.degrees = degrees
        self._position_edge_id = edge_ids[order]
        self._py_indptr = None
        self._py_adjacency = None
        self._py_degrees = None

        # Reverse-position map: for position p storing directed edge (u -> v),
        # _reverse_position[p] is the position storing (v -> u).
        position = np.empty(2 * self._m, dtype=np.int64)
        position[order] = np.arange(2 * self._m, dtype=np.int64)
        self._reverse_position = np.roll(position, self._m)[order]

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self._n}, m={self._m})"

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u, v in zip(self.edge_u, self.edge_v):
            yield int(u), int(v)

    def max_degree(self, excluded: Sequence[int] | None = None) -> int:
        """Maximum degree, optionally over the subgraph without ``excluded``.

        This is the quantity ``dmax(S)`` of the paper: degrees are recomputed
        in the graph obtained by deleting ``excluded`` and incident edges.
        """
        if not excluded:
            return int(self.degrees.max()) if self._n else 0
        excluded_mask = np.zeros(self._n, dtype=bool)
        excluded_mask[list(excluded)] = True
        keep_u = ~excluded_mask[self.edge_u] & ~excluded_mask[self.edge_v]
        reduced = np.zeros(self._n, dtype=np.int64)
        np.add.at(reduced, self.edge_u[keep_u], 1)
        np.add.at(reduced, self.edge_v[keep_u], 1)
        reduced[excluded_mask] = 0
        return int(reduced.max()) if reduced.size else 0

    def neighbors(self, node: int) -> np.ndarray:
        """Array of neighbours of ``node``."""
        self._check_node(node)
        return self.adjacency[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        if self.degrees[u] > self.degrees[v]:
            u, v = v, u
        return bool(np.any(self.neighbors(u) == v))

    def adjacency_lists(self) -> Tuple[list, list, list]:
        """CSR arrays as cached plain Python lists ``(indptr, adjacency, degrees)``.

        The spanning-forest sampler runs a per-step Python loop; plain lists
        avoid NumPy scalar-indexing overhead in that hot path.  The lists are
        built lazily once and reused across samples.
        """
        if self._py_indptr is None:
            self._py_indptr = self.indptr.tolist()
            self._py_adjacency = self.adjacency.tolist()
            self._py_degrees = self.degrees.tolist()
        return self._py_indptr, self._py_adjacency, self._py_degrees

    # -------------------------------------------------------------- matrices
    def adjacency_matrix(self) -> sp.csr_matrix:
        """Sparse ``(n, n)`` adjacency matrix with unit weights."""
        data = np.ones(2 * self._m, dtype=np.float64)
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        return sp.csr_matrix(
            (data, (rows, cols)), shape=(self._n, self._n), dtype=np.float64
        )

    def degree_matrix(self) -> sp.csr_matrix:
        """Sparse diagonal degree matrix."""
        return sp.diags(self.degrees.astype(np.float64), format="csr")

    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns
        -------
        (subgraph, mapping):
            ``mapping[i]`` is the original label of node ``i`` of the subgraph.
        """
        keep = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        if keep.size and (keep.min() < 0 or keep.max() >= self._n):
            raise InvalidNodeError("subgraph nodes must lie in [0, n)")
        relabel = -np.ones(self._n, dtype=np.int64)
        relabel[keep] = np.arange(keep.size)
        mask = (relabel[self.edge_u] >= 0) & (relabel[self.edge_v] >= 0)
        edges = zip(relabel[self.edge_u[mask]], relabel[self.edge_v[mask]])
        sub = Graph(max(int(keep.size), 1), [(int(a), int(b)) for a, b in edges])
        return sub, keep

    # ------------------------------------------------------------- internals
    def _check_node(self, node: int) -> None:
        if not 0 <= int(node) < self._n:
            raise InvalidNodeError(f"node {node} outside valid range [0, {self._n - 1}]")

    # ---------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and bool(np.array_equal(self.edge_u, other.edge_u))
            and bool(np.array_equal(self.edge_v, other.edge_v))
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self.edge_u.tobytes(), self.edge_v.tobytes()))
