"""Synthetic graph generators.

These generators provide the workload substrate for the reproduction.  The
paper evaluates on real KONECT/SNAP graphs that exhibit scale-free degree
distributions and small diameters; the generators below (notably
Barabási–Albert and the power-law cluster model) produce graphs with the same
structural properties at laptop scale, which is what the complexity analysis
of ForestCFCM/SchurCFCM relies on.

All generators return connected :class:`repro.Graph` instances and accept an
integer seed or :class:`numpy.random.Generator` for reproducibility.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import is_connected, largest_connected_component
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_integer, check_probability


# --------------------------------------------------------------------- basics
def path_graph(n: int) -> Graph:
    """Path graph ``0 - 1 - ... - (n-1)``."""
    check_integer("n", n, minimum=1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle graph on ``n >= 3`` nodes."""
    check_integer("n", n, minimum=3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    check_integer("n", n, minimum=1)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star with centre ``0`` and ``n - 1`` leaves."""
    check_integer("n", n, minimum=2)
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid graph with ``rows * cols`` nodes."""
    check_integer("rows", rows, minimum=1)
    check_integer("cols", cols, minimum=1)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    edges = np.concatenate([
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()]),
    ])
    return Graph(rows * cols, edges)


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (depth 0 is a single node)."""
    check_integer("depth", depth, minimum=0)
    n = 2 ** (depth + 1) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return Graph(n, edges)


def lollipop_graph(clique: int, tail: int) -> Graph:
    """Complete graph on ``clique`` nodes with a path of ``tail`` nodes attached."""
    check_integer("clique", clique, minimum=2)
    check_integer("tail", tail, minimum=0)
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    previous = clique - 1
    for t in range(tail):
        node = clique + t
        edges.append((previous, node))
        previous = node
    return Graph(clique + tail, edges)


def barbell_graph(clique: int, bridge: int) -> Graph:
    """Two ``clique``-cliques joined by a path of ``bridge`` intermediate nodes."""
    check_integer("clique", clique, minimum=2)
    check_integer("bridge", bridge, minimum=0)
    n = 2 * clique + bridge
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    offset = clique + bridge
    edges += [(offset + i, offset + j) for i in range(clique) for j in range(i + 1, clique)]
    chain = [clique - 1] + [clique + i for i in range(bridge)] + [offset]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(n, edges)


# ------------------------------------------------------------ random families
def erdos_renyi(n: int, p: float, seed: RandomState = None,
                ensure_connected: bool = True) -> Graph:
    """Erdős–Rényi G(n, p) graph.

    When ``ensure_connected`` is set (default) the largest connected component
    is returned, which may have fewer than ``n`` nodes for small ``p``.
    """
    check_integer("n", n, minimum=2)
    check_probability("p", p, inclusive=True)
    rng = as_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(rows.size) < p
    graph = Graph(n, list(zip(rows[mask].tolist(), cols[mask].tolist())))
    if ensure_connected and not is_connected(graph):
        graph, _ = largest_connected_component(graph)
    return graph


def barabasi_albert(n: int, m: int, seed: RandomState = None) -> Graph:
    """Barabási–Albert preferential-attachment graph.

    Each new node attaches to ``m`` existing nodes chosen proportionally to
    degree.  The result is connected and scale-free, matching the structural
    assumptions (power-law degrees, small diameter) used by the paper's
    complexity analysis.
    """
    check_integer("n", n, minimum=2)
    check_integer("m", m, minimum=1, maximum=n - 1)
    rng = as_rng(seed)

    edges: List[Tuple[int, int]] = []
    # Repeated-node list implements preferential attachment in O(1) per draw.
    repeated: List[int] = []
    # Seed with a star on m + 1 nodes so every new node can pick m targets.
    for v in range(1, m + 1):
        edges.append((0, v))
        repeated.extend([0, v])
    for new_node in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for t in targets:
            edges.append((new_node, t))
            repeated.extend([new_node, t])
    return Graph(n, edges)


def watts_strogatz(n: int, k: int, p: float, seed: RandomState = None) -> Graph:
    """Watts–Strogatz small-world graph (connected variant).

    A ring lattice where each node connects to its ``k`` nearest neighbours
    (``k`` even) and each edge is rewired with probability ``p``.  Rewiring
    that would disconnect the graph is retried, mirroring
    ``networkx.connected_watts_strogatz_graph``.
    """
    check_integer("n", n, minimum=4)
    check_integer("k", k, minimum=2, maximum=n - 1)
    if k % 2 != 0:
        raise InvalidParameterError(f"k must be even for a ring lattice, got {k}")
    check_probability("p", p, inclusive=True)
    rng = as_rng(seed)

    for _ in range(64):
        edge_set = set()
        for offset in range(1, k // 2 + 1):
            for u in range(n):
                v = (u + offset) % n
                edge_set.add((min(u, v), max(u, v)))
        edges = sorted(edge_set)
        for idx, (u, v) in enumerate(list(edges)):
            if rng.random() < p:
                candidates = [w for w in range(n) if w != u]
                rng.shuffle(candidates)
                for w in candidates:
                    candidate = (min(u, w), max(u, w))
                    if candidate not in edge_set:
                        edge_set.discard((u, v))
                        edge_set.add(candidate)
                        break
        graph = Graph(n, sorted(edge_set))
        if is_connected(graph):
            return graph
    graph, _ = largest_connected_component(graph)
    return graph


def powerlaw_cluster(n: int, m: int, p: float, seed: RandomState = None) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert but each preferential attachment step is followed,
    with probability ``p``, by a "triad formation" step connecting to a random
    neighbour of the previously chosen target.  Produces scale-free graphs
    with higher clustering, a closer match for social networks such as the
    Facebook/Hamsterster datasets of the paper.
    """
    check_integer("n", n, minimum=2)
    check_integer("m", m, minimum=1, maximum=n - 1)
    check_probability("p", p, inclusive=True)
    rng = as_rng(seed)

    adjacency: List[set] = [set() for _ in range(n)]
    repeated: List[int] = []

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in adjacency[u]:
            return False
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.extend([u, v])
        return True

    for v in range(1, m + 1):
        add_edge(0, v)
    for new_node in range(m + 1, n):
        added = 0
        last_target = None
        guard = 0
        while added < m and guard < 50 * m:
            guard += 1
            if last_target is not None and rng.random() < p and adjacency[last_target]:
                neighbour = list(adjacency[last_target])[
                    int(rng.integers(0, len(adjacency[last_target])))
                ]
                if add_edge(new_node, neighbour):
                    added += 1
                    continue
            target = repeated[int(rng.integers(0, len(repeated)))]
            if add_edge(new_node, target):
                added += 1
                last_target = target
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    return Graph(n, edges)


def _repair_regular_matching(edge_set, conflicted, rng) -> bool:
    """Resolve configuration-model collisions by random edge switches.

    Each conflicted stub pair ``(u, v)`` (a self-loop or duplicate edge) is
    rewired against a random existing edge ``(x, y)``: remove ``(x, y)``,
    add ``(u, x)`` and ``(v, y)`` — a degree-preserving double-edge swap.
    Returns ``False`` when a pair cannot be placed within the retry budget
    (the caller then restarts from a fresh matching).
    """
    edges = list(edge_set)
    for u, v in conflicted:
        placed = False
        for _ in range(200):
            index = int(rng.integers(0, len(edges)))
            existing = edges[index]
            x, y = existing
            if rng.random() < 0.5:
                x, y = y, x
            first = (min(u, x), max(u, x))
            second = (min(v, y), max(v, y))
            if (u == x or v == y or first == second
                    or first in edge_set or second in edge_set):
                continue
            edge_set.remove(existing)
            edge_set.add(first)
            edge_set.add(second)
            edges[index] = first
            edges.append(second)
            placed = True
            break
        if not placed:
            return False
    return True


def random_regular(n: int, d: int, seed: RandomState = None) -> Graph:
    """Random ``d``-regular graph via configuration-model matching.

    Collisions (self-loops, duplicate edges) are repaired with
    degree-preserving double-edge swaps instead of rejecting the whole
    matching — whole-matching rejection succeeds with probability roughly
    ``exp(-(d^2-1)/4)``, which is hopeless already at ``d = 6``.  Matchings
    that happened to be simple are returned exactly as before (the repair
    path draws no randomness for them).
    """
    check_integer("n", n, minimum=2)
    check_integer("d", d, minimum=1, maximum=n - 1)
    if (n * d) % 2 != 0:
        raise InvalidParameterError("n * d must be even for a d-regular graph")
    rng = as_rng(seed)
    for _ in range(200):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edge_set = set()
        conflicted = []
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v or (min(u, v), max(u, v)) in edge_set:
                conflicted.append((u, v))
            else:
                edge_set.add((min(u, v), max(u, v)))
        if conflicted and not _repair_regular_matching(edge_set, conflicted,
                                                       rng):
            continue
        graph = Graph(n, sorted(edge_set))
        if is_connected(graph):
            return graph
    raise InvalidParameterError(
        f"failed to generate a connected random {d}-regular graph on {n} nodes"
    )


def planted_partition(n: int, communities: int, p_in: float, p_out: float,
                      seed: RandomState = None,
                      ensure_connected: bool = True) -> Graph:
    """Planted-partition (symmetric stochastic block model) graph.

    ``n`` nodes are split into ``communities`` near-equal blocks; each
    within-block pair is connected with probability ``p_in`` and each
    cross-block pair with probability ``p_out``.  With ``p_in >> p_out`` the
    result has planted community structure — sparse cuts between dense
    blocks, the regime where current-flow distances diverge most from
    shortest-path distances and where forest pools concentrate mass on the
    few cut edges.

    When ``ensure_connected`` is set (default) isolated blocks are stitched
    together by one extra uniformly drawn cross-block edge per missing link
    in a random spanning order, so the generator always returns a connected
    graph on all ``n`` nodes.
    """
    check_integer("n", n, minimum=2)
    check_integer("communities", communities, minimum=1, maximum=n)
    check_probability("p_in", p_in, inclusive=True)
    check_probability("p_out", p_out, inclusive=True)
    rng = as_rng(seed)

    block = np.arange(n) * communities // n  # near-equal contiguous blocks
    rows, cols = np.triu_indices(n, k=1)
    same = block[rows] == block[cols]
    probability = np.where(same, p_in, p_out)
    mask = rng.random(rows.size) < probability
    edge_set = set(zip(rows[mask].tolist(), cols[mask].tolist()))
    graph = Graph(n, sorted(edge_set))
    if ensure_connected and not is_connected(graph):
        # Stitch the components together with uniformly drawn bridges in a
        # random spanning order (cheap, preserves the planted structure).
        from repro.graph.traversal import connected_components

        components = connected_components(graph)
        order = list(range(len(components)))
        rng.shuffle(order)
        for previous, current in zip(order, order[1:]):
            u = int(components[previous][int(rng.integers(0, len(components[previous])))])
            v = int(components[current][int(rng.integers(0, len(components[current])))])
            edge_set.add((min(u, v), max(u, v)))
        graph = Graph(n, sorted(edge_set))
    return graph


def random_tree(n: int, seed: RandomState = None) -> Graph:
    """Uniformly random labelled tree via a random Prüfer sequence."""
    check_integer("n", n, minimum=1)
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = as_rng(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    np.add.at(degree, prufer, 1)
    edges: List[Tuple[int, int]] = []
    leaves = sorted(int(v) for v in np.flatnonzero(degree == 1))
    import heapq

    heapq.heapify(leaves)
    for value in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(value)))
        degree[leaf] -= 1  # leaf is now fully attached
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, int(value))
    last = [int(v) for v in np.flatnonzero(degree == 1)]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def random_geometric(n: int, radius: float, seed: RandomState = None) -> Graph:
    """Random geometric graph on the unit square (largest component)."""
    check_integer("n", n, minimum=2)
    if radius <= 0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    rng = as_rng(seed)
    points = rng.random((n, 2))
    diff = points[:, None, :] - points[None, :, :]
    dist2 = np.sum(diff * diff, axis=2)
    rows, cols = np.nonzero(np.triu(dist2 <= radius * radius, k=1))
    graph = Graph(n, list(zip(rows.tolist(), cols.tolist())))
    if not is_connected(graph):
        graph, _ = largest_connected_component(graph)
    return graph
