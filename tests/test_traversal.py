"""Tests for BFS, connectivity and diameter utilities."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError, InvalidNodeError
from repro.graph.builders import to_networkx
from repro.graph.graph import Graph
from repro.graph import generators
from repro.graph.traversal import (
    bfs_tree,
    connected_components,
    diameter,
    is_connected,
    largest_connected_component,
    require_connected,
)


def loop_bfs_tree(graph, roots):
    """Reference BFS: visits each level in id order, so a node's parent is
    its smallest-id neighbour one level up.  Returns (order, parent, depth)."""
    parent = np.full(graph.n, -1, dtype=np.int64)
    depth = np.full(graph.n, -1, dtype=np.int64)
    frontier = sorted(set(int(r) for r in roots))
    depth[frontier] = 0
    order = list(frontier)
    while frontier:
        next_frontier = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    next_frontier.append(v)
        next_frontier.sort()
        order.extend(next_frontier)
        frontier = next_frontier
    return np.asarray(order, dtype=np.int64), parent, depth


BFS_GRAPHS = {
    "powerlaw_cluster": lambda: generators.powerlaw_cluster(1000, 4, 0.3, seed=7),
    "grid120": lambda: generators.grid_graph(120, 120),
    "barabasi_albert": lambda: generators.barabasi_albert(6000, 3, seed=0),
    "cycle": lambda: generators.cycle_graph(2000),
    "disconnected": lambda: Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6),
                                      (6, 7)]),
}


class TestBFS:
    def test_single_root_depths_match_networkx(self, karate):
        tree = bfs_tree(karate, [0])
        lengths = nx.single_source_shortest_path_length(to_networkx(karate), 0)
        for node, depth in lengths.items():
            assert tree.depth[node] == depth

    def test_multi_root_depths(self, path4):
        tree = bfs_tree(path4, [0, 3])
        assert tree.depth.tolist() == [0, 1, 1, 0]
        assert tree.parent[0] == -1 and tree.parent[3] == -1

    def test_parent_consistency(self, karate):
        tree = bfs_tree(karate, [5])
        for node in range(karate.n):
            parent = tree.parent[node]
            if parent >= 0:
                assert tree.depth[node] == tree.depth[parent] + 1
                assert karate.has_edge(int(node), int(parent))

    def test_order_starts_with_roots(self, karate):
        tree = bfs_tree(karate, [3, 7])
        assert sorted(tree.order[:2].tolist()) == [3, 7]
        assert len(tree.order) == karate.n

    def test_bfs_order_deterministic(self, karate):
        assert np.array_equal(bfs_tree(karate, [1]).order,
                              bfs_tree(karate, [1]).order)

    def test_empty_roots_raises(self, karate):
        with pytest.raises(InvalidNodeError):
            bfs_tree(karate, [])

    def test_invalid_root_raises(self, karate):
        with pytest.raises(InvalidNodeError):
            bfs_tree(karate, [99])

    @pytest.mark.parametrize("name", sorted(BFS_GRAPHS))
    def test_matches_the_level_loop(self, name):
        graph = BFS_GRAPHS[name]()
        hub = int(np.argmax(graph.degrees))
        for roots in ([hub], [0], [graph.n - 1, 0, graph.n // 2, 0]):
            tree = bfs_tree(graph, roots)
            order, parent, depth = loop_bfs_tree(graph, roots)
            assert np.array_equal(tree.roots, sorted(set(roots)))
            assert np.array_equal(tree.order, order)
            assert np.array_equal(tree.parent, parent)
            assert np.array_equal(tree.depth, depth)

    def test_unreachable_nodes_marked(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        tree = bfs_tree(graph, [0])
        assert tree.depth[2] == -1 and tree.depth[3] == -1


class TestComponents:
    def test_connected_graph_single_component(self, karate):
        components = connected_components(karate)
        assert len(components) == 1
        assert components[0].size == karate.n

    def test_two_components(self):
        graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
        components = connected_components(graph)
        assert len(components) == 2
        assert components[0].size == 3

    def test_components_sorted_by_size_then_smallest_id(self):
        graph = Graph(9, [(8, 2), (3, 4), (5, 6), (6, 1)])
        components = connected_components(graph)
        assert [c.tolist() for c in components] == [[1, 5, 6], [2, 8], [3, 4],
                                                    [0], [7]]

    def test_is_connected(self, karate):
        assert is_connected(karate)
        assert not is_connected(Graph(3, [(0, 1)]))
        # Random graphs against networkx, sparse enough that some split.
        rng = np.random.default_rng(3)
        graphs = [Graph(4, [(0, 1), (1, 2)]),                # an isolated node
                  Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two components
                  Graph(5, [])]
        for n in (2, 5, 12, 40):
            for p in (0.05, 0.15, 0.4):
                graphs.append(Graph(n, [(u, v) for u in range(n)
                                        for v in range(u + 1, n)
                                        if rng.random() < p]))
        verdicts = [is_connected(graph) for graph in graphs]
        assert verdicts == [nx.is_connected(to_networkx(graph))
                            for graph in graphs]
        assert verdicts.count(True) >= 3 and verdicts.count(False) >= 3

    def test_single_node_connected(self):
        assert is_connected(Graph(1, []))

    def test_require_connected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            require_connected(Graph(3, [(0, 1)]))

    def test_largest_connected_component(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 0), (4, 5)])
        lcc, mapping = largest_connected_component(graph)
        assert lcc.n == 3
        assert sorted(mapping.tolist()) == [0, 1, 2]


class TestDiameter:
    def test_path_diameter(self):
        assert diameter(generators.path_graph(10), exact=True) == 9

    def test_cycle_diameter(self):
        assert diameter(generators.cycle_graph(8), exact=True) == 4

    def test_double_sweep_matches_exact_on_trees(self):
        tree = generators.random_tree(60, seed=0)
        assert diameter(tree) == diameter(tree, exact=True)

    def test_estimate_close_to_networkx(self, karate):
        exact = nx.diameter(to_networkx(karate))
        assert diameter(karate, exact=True) == exact
        assert diameter(karate) <= exact
        assert diameter(karate) >= exact - 1

    def test_single_node(self):
        assert diameter(Graph(1, [])) == 0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(Graph(3, [(0, 1)]))
