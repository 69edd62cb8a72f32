"""Graph traversal primitives: BFS orders/trees, components, diameters.

The CFCM algorithms need a BFS tree rooted at the current root set ``S`` (or
``S ∪ T``): the unbiased voltage estimators of the paper are sums of edge
currents along a *fixed* path from each node to the root set, and the BFS tree
provides a canonical shortest such path (so the per-sample magnitudes are
bounded by the graph diameter τ, the bound used in Lemmas 3.9 and 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.exceptions import DisconnectedGraphError, InvalidNodeError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class BFSTree:
    """BFS forest rooted at a node set.

    Attributes
    ----------
    roots:
        Sorted array of root nodes.
    order:
        Nodes in visiting order (roots first, then by non-decreasing depth).
    parent:
        ``parent[u]`` is the BFS parent of ``u`` (``-1`` for roots and
        unreachable nodes).
    depth:
        BFS distance from the nearest root (``-1`` when unreachable).
    """

    roots: np.ndarray
    order: np.ndarray
    parent: np.ndarray
    depth: np.ndarray

    @property
    def max_depth(self) -> int:
        """Largest finite depth in the tree."""
        reachable = self.depth[self.depth >= 0]
        return int(reachable.max()) if reachable.size else 0

def bfs_tree(graph: Graph, roots: Sequence[int]) -> BFSTree:
    """Breadth-first search from a set of root nodes.

    All roots start at depth 0.  A node's parent is its smallest-id
    neighbour one level up, and ``order`` lists the reached nodes by depth,
    then by id, so the tree is deterministic: it is the tree of a BFS that
    visits each level in id order.  The depths come from one unweighted
    shortest-path run from a super-source joined to the roots, and parents
    and order from array passes over the edges, so no Python loop runs per
    node or level.
    """
    root_array = np.asarray(sorted(set(int(r) for r in roots)), dtype=np.int64)
    if root_array.size == 0:
        raise InvalidNodeError("BFS requires at least one root")
    if root_array.min() < 0 or root_array.max() >= graph.n:
        raise InvalidNodeError("BFS roots must lie in [0, n)")

    n, indptr, adjacency = graph.n, graph.indptr, graph.adjacency
    # Row n is the super-source, with one arc to each root.
    joined = sp.csr_matrix(
        (np.ones(adjacency.size + root_array.size),
         np.concatenate([adjacency, root_array]),
         np.concatenate([indptr, [indptr[-1] + root_array.size]])),
        shape=(n + 1, n + 1))
    distance = csgraph.dijkstra(joined, indices=n, unweighted=True)[:n]
    depth = np.where(np.isfinite(distance), distance - 1, -1).astype(np.int64)

    # Each node's smallest-id neighbour one level up (n where it has none).
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    candidates = np.where(depth[adjacency] == depth[sources] - 1, adjacency, n)
    parent = np.full(n, -1, dtype=np.int64)
    linked = graph.degrees > 0
    if candidates.size:
        nearest = np.minimum.reduceat(candidates, indptr[:-1][linked])
        parent[linked] = np.where(nearest < n, nearest, -1)

    reached = np.flatnonzero(depth >= 0)
    return BFSTree(
        roots=root_array,
        order=reached[np.argsort(depth[reached], kind="stable")],
        parent=parent,
        depth=depth,
    )


def connected_components(graph: Graph) -> List[np.ndarray]:
    """Connected components as sorted arrays of node ids, largest first
    (ties by smallest id)."""
    _, labels = csgraph.connected_components(graph.adjacency_matrix(),
                                             directed=False)
    by_label = np.argsort(labels, kind="stable").astype(np.int64)
    components = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    components.sort(key=lambda arr: (-arr.size, int(arr[0])))
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected: one component, counted on the
    graph's own CSR arrays."""
    if graph.n <= 1:
        return True
    adjacency = sp.csr_matrix(
        (np.ones(graph.adjacency.size), graph.adjacency, graph.indptr),
        shape=(graph.n, graph.n))
    return csgraph.connected_components(adjacency, directed=False,
                                        return_labels=False) == 1


def require_connected(graph: Graph) -> None:
    """Raise :class:`DisconnectedGraphError` when ``graph`` is not connected."""
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "this operation requires a connected graph; extract the largest "
            "connected component first (repro.graph.largest_connected_component)"
        )


def largest_connected_component(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Largest connected component as a new graph plus the label mapping."""
    components = connected_components(graph)
    return graph.subgraph(components[0])


def diameter(graph: Graph, exact: bool = False, samples: int = 16,
             seed: int | None = 0) -> int:
    """Graph diameter τ.

    Parameters
    ----------
    exact:
        When ``True`` runs a BFS from every node (O(nm)); otherwise uses the
        standard double-sweep lower bound refined over ``samples`` random
        restarts, which is exact on trees and extremely tight on the
        small-world graphs used throughout the paper.
    """
    require_connected(graph)
    if graph.n == 1:
        return 0
    if exact:
        return max(bfs_tree(graph, [u]).max_depth for u in range(graph.n))

    rng = np.random.default_rng(seed)
    best = 0
    starts = set([0, int(np.argmax(graph.degrees))])
    starts.update(int(v) for v in rng.integers(0, graph.n, size=max(samples - 2, 0)))
    for start in starts:
        first = bfs_tree(graph, [start])
        far = int(first.order[np.argmax(first.depth[first.order])])
        second = bfs_tree(graph, [far])
        best = max(best, second.max_depth)
    return best
