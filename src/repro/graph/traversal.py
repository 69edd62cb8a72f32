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

    All roots start at depth 0; ties between frontier nodes are broken by node
    id so the construction is deterministic.
    """
    root_array = np.asarray(sorted(set(int(r) for r in roots)), dtype=np.int64)
    if root_array.size == 0:
        raise InvalidNodeError("BFS requires at least one root")
    if root_array.min() < 0 or root_array.max() >= graph.n:
        raise InvalidNodeError("BFS roots must lie in [0, n)")

    parent = np.full(graph.n, -1, dtype=np.int64)
    depth = np.full(graph.n, -1, dtype=np.int64)
    depth[root_array] = 0
    order: List[int] = list(root_array)
    frontier = list(root_array)
    indptr, adjacency = graph.indptr, graph.adjacency
    while frontier:
        next_frontier: List[int] = []
        for u in frontier:
            for v in adjacency[indptr[u]:indptr[u + 1]]:
                v = int(v)
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    next_frontier.append(v)
        next_frontier.sort()
        order.extend(next_frontier)
        frontier = next_frontier
    return BFSTree(
        roots=root_array,
        order=np.asarray(order, dtype=np.int64),
        parent=parent,
        depth=depth,
    )


def connected_components(graph: Graph) -> List[np.ndarray]:
    """Connected components as arrays of node ids, largest first."""
    seen = np.zeros(graph.n, dtype=bool)
    components: List[np.ndarray] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        tree = bfs_tree(graph, [start])
        members = tree.order[tree.depth[tree.order] >= 0]
        members = np.asarray(sorted(int(v) for v in members), dtype=np.int64)
        seen[members] = True
        components.append(members)
    components.sort(key=lambda arr: (-arr.size, int(arr[0]) if arr.size else 0))
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected."""
    if graph.n <= 1:
        return True
    tree = bfs_tree(graph, [0])
    return bool(np.all(tree.depth >= 0))


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
