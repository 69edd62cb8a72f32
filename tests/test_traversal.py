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

    def test_is_connected(self, karate):
        assert is_connected(karate)
        assert not is_connected(Graph(3, [(0, 1)]))

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
