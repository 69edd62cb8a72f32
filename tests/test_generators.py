"""Tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.traversal import is_connected


class TestDeterministicFamilies:
    def test_path_graph(self):
        graph = generators.path_graph(5)
        assert graph.n == 5 and graph.m == 4
        assert graph.degrees[0] == 1 and graph.degrees[2] == 2

    def test_cycle_graph(self):
        graph = generators.cycle_graph(6)
        assert graph.m == 6
        assert all(graph.degrees[v] == 2 for v in range(6))

    def test_cycle_too_small(self):
        with pytest.raises(InvalidParameterError):
            generators.cycle_graph(2)

    def test_complete_graph(self):
        graph = generators.complete_graph(5)
        assert graph.m == 10

    def test_star_graph(self):
        graph = generators.star_graph(7)
        assert graph.degrees[0] == 6
        assert graph.m == 6

    def test_grid_graph(self):
        graph = generators.grid_graph(3, 4)
        assert graph.n == 12
        assert graph.m == 3 * 3 + 2 * 4
        assert is_connected(graph)

    def test_binary_tree(self):
        graph = generators.binary_tree(3)
        assert graph.n == 15
        assert graph.m == 14

    def test_lollipop(self):
        graph = generators.lollipop_graph(4, 3)
        assert graph.n == 7
        assert graph.m == 6 + 3
        assert is_connected(graph)

    def test_barbell(self):
        graph = generators.barbell_graph(3, 2)
        assert graph.n == 8
        assert is_connected(graph)


class TestRandomFamilies:
    def test_erdos_renyi_connected_component(self):
        graph = generators.erdos_renyi(80, 0.08, seed=0)
        assert is_connected(graph)
        assert graph.n <= 80

    def test_erdos_renyi_reproducible(self):
        a = generators.erdos_renyi(50, 0.1, seed=7)
        b = generators.erdos_renyi(50, 0.1, seed=7)
        assert a == b

    def test_barabasi_albert_counts(self):
        graph = generators.barabasi_albert(100, 3, seed=1)
        assert graph.n == 100
        assert is_connected(graph)
        # m initial star edges + (n - m - 1) * m attachments
        assert graph.m == 3 + (100 - 4) * 3

    def test_barabasi_albert_hub_exists(self):
        graph = generators.barabasi_albert(300, 2, seed=2)
        assert graph.max_degree() > 10

    def test_barabasi_albert_invalid_m(self):
        with pytest.raises(InvalidParameterError):
            generators.barabasi_albert(10, 10, seed=0)

    def test_watts_strogatz_connected(self):
        graph = generators.watts_strogatz(60, 4, 0.1, seed=3)
        assert is_connected(graph)
        assert graph.n == 60

    def test_watts_strogatz_zero_rewiring_is_lattice(self):
        graph = generators.watts_strogatz(20, 4, 0.0, seed=0)
        assert graph.m == 20 * 2
        assert all(graph.degrees[v] == 4 for v in range(20))

    def test_watts_strogatz_odd_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            generators.watts_strogatz(20, 3, 0.1, seed=0)

    def test_powerlaw_cluster_connected(self):
        graph = generators.powerlaw_cluster(120, 3, 0.4, seed=4)
        assert is_connected(graph)
        assert graph.n == 120

    def test_powerlaw_cluster_denser_than_ba(self):
        sparse = generators.barabasi_albert(100, 2, seed=5)
        dense = generators.powerlaw_cluster(100, 6, 0.3, seed=5)
        assert dense.m > sparse.m

    def test_random_regular_degrees(self):
        graph = generators.random_regular(30, 4, seed=6)
        assert all(graph.degrees[v] == 4 for v in range(30))
        assert is_connected(graph)

    def test_random_regular_parity_check(self):
        with pytest.raises(InvalidParameterError):
            generators.random_regular(9, 3, seed=0)

    def test_random_regular_high_degree(self):
        # d = 6 matchings almost never come out simple; the generator must
        # repair conflicts by degree-preserving double-edge swaps instead of
        # rejecting whole matchings.
        for seed in range(5):
            graph = generators.random_regular(60, 6, seed=seed)
            assert all(graph.degrees[v] == 6 for v in range(60))
            assert is_connected(graph)

    def test_random_regular_reproducible(self):
        first = generators.random_regular(40, 6, seed=11)
        second = generators.random_regular(40, 6, seed=11)
        assert list(first.edges()) == list(second.edges())

    def test_planted_partition_connected(self):
        graph = generators.planted_partition(80, 4, 0.4, 0.02, seed=3)
        assert graph.n == 80
        assert is_connected(graph)

    def test_planted_partition_community_structure(self):
        # With p_in >> p_out, within-block edges dominate cross-block ones.
        graph = generators.planted_partition(80, 4, 0.5, 0.01, seed=4)
        block = 80 // 4
        within = sum(1 for u, v in graph.edges() if u // block == v // block)
        assert within > graph.m / 2

    def test_planted_partition_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            generators.planted_partition(10, 0, 0.5, 0.1, seed=0)
        with pytest.raises(InvalidParameterError):
            generators.planted_partition(10, 2, 1.5, 0.1, seed=0)

    def test_random_tree_edge_count(self):
        graph = generators.random_tree(40, seed=7)
        assert graph.m == 39
        assert is_connected(graph)

    def test_random_tree_tiny(self):
        assert generators.random_tree(1).m == 0
        assert generators.random_tree(2).m == 1

    def test_random_geometric_connected(self):
        graph = generators.random_geometric(120, 0.18, seed=8)
        assert is_connected(graph)

    def test_random_geometric_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            generators.random_geometric(10, 0.0, seed=0)

    def test_generator_accepts_generator_instance(self):
        rng = np.random.default_rng(9)
        graph = generators.barabasi_albert(50, 2, seed=rng)
        assert graph.n == 50


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=1000))
def test_random_tree_is_spanning_tree(n, seed):
    """A random tree always has n - 1 edges and is connected (hence acyclic)."""
    graph = generators.random_tree(n, seed=seed)
    assert graph.n == n
    assert graph.m == n - 1
    assert is_connected(graph)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=40), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=100))
def test_barabasi_albert_connected_property(n, m, seed):
    m = min(m, n - 1)
    graph = generators.barabasi_albert(n, m, seed=seed)
    assert is_connected(graph)
    assert graph.n == n
