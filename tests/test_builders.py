"""Tests for graph construction helpers."""

import numpy as np
import networkx as nx
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.builders import (
    from_adjacency_matrix,
    from_edge_list,
    from_networkx,
    from_parent_array,
    to_networkx,
)
from repro.graph import generators


class TestFromEdgeList:
    def test_infers_node_count(self):
        graph = from_edge_list([(0, 1), (1, 4)])
        assert graph.n == 5
        assert graph.m == 2

    def test_explicit_node_count(self):
        graph = from_edge_list([(0, 1)], n=10)
        assert graph.n == 10

    def test_removes_duplicates_and_loops(self):
        graph = from_edge_list([(0, 1), (1, 0), (2, 2), (1, 2)])
        assert graph.m == 2

    def test_empty_raises(self):
        with pytest.raises(GraphError):
            from_edge_list([])


class TestNetworkxRoundTrip:
    def test_from_networkx_counts(self):
        nx_graph = nx.karate_club_graph()
        graph, labels = from_networkx(nx_graph)
        assert graph.n == nx_graph.number_of_nodes()
        assert graph.m == nx_graph.number_of_edges()
        assert set(labels.values()) == set(nx_graph.nodes())

    def test_from_networkx_string_labels(self):
        nx_graph = nx.Graph([("a", "b"), ("b", "c")])
        graph, labels = from_networkx(nx_graph)
        assert graph.n == 3
        assert graph.m == 2
        assert sorted(labels.values()) == ["a", "b", "c"]

    def test_to_networkx_roundtrip(self):
        original = generators.barabasi_albert(30, 2, seed=0)
        nx_graph = to_networkx(original)
        back, _ = from_networkx(nx_graph)
        assert back == original

    def test_degrees_preserved(self):
        nx_graph = nx.karate_club_graph()
        graph, labels = from_networkx(nx_graph)
        for node_id, label in labels.items():
            assert graph.degrees[node_id] == nx_graph.degree(label)


class TestFromAdjacencyMatrix:
    def test_dense(self):
        matrix = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        graph = from_adjacency_matrix(matrix)
        assert graph.m == 2
        assert graph.has_edge(0, 1)

    def test_sparse(self):
        matrix = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
        graph = from_adjacency_matrix(matrix)
        assert graph.m == 1

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            from_adjacency_matrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphError):
            from_adjacency_matrix(np.array([[0, 1], [0, 0]]))


class TestFromParentArray:
    def test_simple_tree(self):
        graph = from_parent_array([-1, 0, 0, 1])
        assert graph.n == 4
        assert graph.m == 3
        assert graph.has_edge(1, 3)

    def test_forest_with_two_roots(self):
        graph = from_parent_array([-1, 0, -1, 2])
        assert graph.m == 2
