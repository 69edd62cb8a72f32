"""Tests for the core :class:`repro.Graph` data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, InvalidNodeError
from repro.graph.graph import Graph, degree_sequence
from repro.graph import generators


class TestConstruction:
    def test_basic_counts(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.n == 4
        assert graph.m == 3
        assert len(graph) == 4

    def test_aliases(self):
        graph = Graph(3, [(0, 1)])
        assert graph.number_of_nodes == 3
        assert graph.number_of_edges == 1

    def test_isolated_nodes_allowed(self):
        graph = Graph(5, [(0, 1)])
        assert graph.degree(4) == 0

    def test_empty_edge_list(self):
        graph = Graph(3, [])
        assert graph.m == 0
        assert list(graph.edges()) == []

    def test_rejects_zero_nodes(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(GraphError):
            Graph(3, [(-1, 2)])

    def test_rejects_malformed_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1, 2)])

    def test_edge_orientation_normalised(self):
        graph = Graph(3, [(2, 0), (2, 1)])
        assert list(graph.edges()) == [(0, 2), (1, 2)]


class TestAccessors:
    def test_degrees(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1
        assert graph.degrees.tolist() == [3, 1, 1, 1]

    def test_neighbors_sorted_content(self):
        graph = Graph(4, [(0, 3), (0, 1), (0, 2)])
        assert sorted(graph.neighbors(0).tolist()) == [1, 2, 3]
        assert graph.neighbors(2).tolist() == [0]

    def test_has_edge(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(1, 1)

    def test_invalid_node_raises(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            graph.degree(3)
        with pytest.raises(InvalidNodeError):
            graph.neighbors(-1)

    def test_nodes_array(self):
        graph = Graph(3, [(0, 1)])
        assert graph.nodes().tolist() == [0, 1, 2]

    def test_edge_array_shape(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.edge_array().shape == (3, 2)

    def test_max_degree(self, star6):
        assert star6.max_degree() == 5

    def test_max_degree_excluding_hub(self, star6):
        assert star6.max_degree(excluded=[0]) == 0

    def test_max_degree_excluding_leaf(self, star6):
        assert star6.max_degree(excluded=[1]) == 4

    def test_adjacency_lists_cached(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        first = graph.adjacency_lists()
        second = graph.adjacency_lists()
        assert first[0] is second[0]
        assert first[1] == graph.adjacency.tolist()


class TestPositions:
    def test_reverse_position_involution(self, karate):
        for position in range(2 * karate.m):
            other = karate.reverse_position(position)
            assert karate.reverse_position(other) == position
            assert karate.position_edge_id(position) == karate.position_edge_id(other)

    def test_position_head_matches_adjacency(self, karate):
        for node in range(karate.n):
            for position in karate.neighbor_positions(node):
                assert karate.position_head(int(position)) == karate.adjacency[position]

    @pytest.mark.parametrize("n, p, seed", [(1, 0.0, 0), (7, 0.0, 1),
                                            (30, 0.2, 2), (80, 0.05, 3),
                                            (120, 0.5, 4)])
    def test_csr_arrays_match_per_edge_fill(self, n, p, seed):
        rng = np.random.default_rng(seed)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        graph = Graph(n, edges)
        indptr, adjacency, edge_id, reverse = _per_edge_csr(
            n, graph.edge_u, graph.edge_v)
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.adjacency, adjacency)
        assert np.array_equal(graph._position_edge_id, edge_id)
        assert np.array_equal(graph._reverse_position, reverse)


def _per_edge_csr(n, lo, hi):
    """Reference CSR fill: one pass per edge, then one per directed slot."""
    m = lo.size
    degrees = np.zeros(n, dtype=np.int64)
    np.add.at(degrees, lo, 1)
    np.add.at(degrees, hi, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    adjacency = np.empty(2 * m, dtype=np.int64)
    edge_id = np.empty(2 * m, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid in range(m):
        u, v = int(lo[eid]), int(hi[eid])
        adjacency[cursor[u]] = v
        edge_id[cursor[u]] = eid
        cursor[u] += 1
        adjacency[cursor[v]] = u
        edge_id[cursor[v]] = eid
        cursor[v] += 1
    reverse = np.full(2 * m, -1, dtype=np.int64)
    first_position = np.full(m, -1, dtype=np.int64)
    for p in range(2 * m):
        eid = edge_id[p]
        if first_position[eid] < 0:
            first_position[eid] = p
        else:
            reverse[p] = first_position[eid]
            reverse[first_position[eid]] = p
    return indptr, adjacency, edge_id, reverse


class TestMatrices:
    def test_adjacency_matrix_symmetric(self, karate):
        adjacency = karate.adjacency_matrix().toarray()
        assert np.allclose(adjacency, adjacency.T)
        assert adjacency.sum() == 2 * karate.m

    def test_degree_matrix_diagonal(self, karate):
        degree = karate.degree_matrix().toarray()
        assert np.allclose(np.diag(degree), karate.degrees)
        assert np.allclose(degree - np.diag(np.diag(degree)), 0.0)


class TestSubgraph:
    def test_induced_subgraph(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, mapping = graph.subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 2
        assert mapping.tolist() == [0, 1, 2]

    def test_subgraph_relabels(self):
        graph = Graph(5, [(2, 3), (3, 4)])
        sub, mapping = graph.subgraph([2, 3, 4])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]
        assert mapping.tolist() == [2, 3, 4]

    def test_subgraph_invalid_node(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            graph.subgraph([0, 5])


class TestEquality:
    def test_equal_graphs(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 2)])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Graph(2, [(0, 1)]) != "graph"


class TestDegreeSequence:
    def test_degree_sequence_sorted(self, star6):
        assert degree_sequence(star6) == [5, 1, 1, 1, 1, 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=200))
def test_handshake_lemma(n, seed):
    """Sum of degrees equals twice the edge count for arbitrary random graphs."""
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(rng.integers(0, 3 * n)):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    graph = Graph(n, sorted(edges))
    assert int(graph.degrees.sum()) == 2 * graph.m


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_complete_graph_degrees(n):
    graph = generators.complete_graph(n)
    assert graph.m == n * (n - 1) // 2
    assert all(graph.degree(v) == n - 1 for v in range(n))
