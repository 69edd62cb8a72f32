"""Tests for Wilson's rooted spanning-forest sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.centrality.absorbing import expected_wilson_visits
from repro.exceptions import DisconnectedGraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.linalg.schur import absorption_probabilities
from repro.sampling.wilson import (
    empirical_root_distribution,
    sample_rooted_forest,
)


class TestForestValidity:
    def test_single_root_spanning_tree(self, karate):
        forest = sample_rooted_forest(karate, [0], seed=0)
        forest.validate_against(karate)
        assert forest.tree_sizes() == {0: karate.n}

    def test_multi_root_forest(self, karate):
        roots = [0, 33, 16]
        forest = sample_rooted_forest(karate, roots, seed=1)
        forest.validate_against(karate)
        assert sorted(forest.tree_sizes()) == sorted(roots)
        assert sum(forest.tree_sizes().values()) == karate.n

    def test_every_node_reaches_a_root(self, medium_ba):
        roots = [0, 5, 9]
        forest = sample_rooted_forest(medium_ba, roots, seed=2)
        root_of = forest.root_of()
        assert set(np.unique(root_of)) <= set(roots)

    def test_tree_graph_is_recovered(self):
        tree = generators.random_tree(30, seed=3)
        forest = sample_rooted_forest(tree, [0], seed=4)
        # A tree has exactly one spanning tree: the forest must equal it.
        for node in range(1, 30):
            assert tree.has_edge(node, int(forest.parent[node]))

    def test_reproducible_with_seed(self, karate):
        a = sample_rooted_forest(karate, [0], seed=123)
        b = sample_rooted_forest(karate, [0], seed=123)
        assert np.array_equal(a.parent, b.parent)

    def test_different_seeds_differ(self, karate):
        a = sample_rooted_forest(karate, [0], seed=1)
        b = sample_rooted_forest(karate, [0], seed=2)
        assert not np.array_equal(a.parent, b.parent)

    def test_source_order_does_not_break_validity(self, karate):
        order = list(reversed(range(karate.n)))
        forest = sample_rooted_forest(karate, [0], seed=5, source_order=order)
        forest.validate_against(karate)

    def test_invalid_source_order(self, karate):
        with pytest.raises(InvalidParameterError):
            sample_rooted_forest(karate, [0], seed=0, source_order=[0, 1])

    def test_empty_roots_rejected(self, karate):
        with pytest.raises(InvalidParameterError):
            sample_rooted_forest(karate, [], seed=0)

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            sample_rooted_forest(graph, [0], seed=0)


class TestDistribution:
    def test_cycle_root_distribution_uniformish(self):
        """On a cycle with one root, each spanning tree removes one edge uniformly."""
        cycle = generators.cycle_graph(5)
        counts = {}
        rng = np.random.default_rng(0)
        samples = 600
        for _ in range(samples):
            forest = sample_rooted_forest(cycle, [0], seed=rng)
            missing = tuple(sorted(
                edge for edge in cycle.edges()
                if forest.parent[edge[0]] != edge[1] and forest.parent[edge[1]] != edge[0]
            ))
            counts[missing] = counts.get(missing, 0) + 1
        assert len(counts) == 5
        for value in counts.values():
            assert value > samples / 5 * 0.5

    def test_root_distribution_matches_absorption(self, karate):
        """Lemma 4.2: Pr(ρ_u = t) equals the absorption probability F_ut."""
        grounded = [0]
        boundary = [32, 33]
        roots = grounded + boundary
        exact, interior = absorption_probabilities(karate, grounded, boundary)
        empirical = empirical_root_distribution(karate, roots, samples=800, seed=7)
        boundary_columns = [roots.index(t) for t in boundary]
        observed = empirical[np.ix_(interior, boundary_columns)]
        assert np.max(np.abs(observed - exact)) < 0.1
        assert np.mean(np.abs(observed - exact)) < 0.03


class TestSamplingCost:
    def test_cost_positive(self, karate):
        assert expected_wilson_visits(karate, [0]) > 0

    def test_cost_decreases_with_more_roots(self, karate):
        """Adding high-degree roots reduces the expected work (SchurCFCM's rationale)."""
        single = expected_wilson_visits(karate, [0])
        hubs = list(np.argsort(-karate.degrees)[:4])
        enlarged = expected_wilson_visits(karate, sorted(set([0] + [int(v) for v in hubs])))
        assert enlarged < single

    def test_path_graph_cost_formula(self):
        """For a path rooted at one end the expected visits are sum of hitting times."""
        path = generators.path_graph(5)
        cost = expected_wilson_visits(path, [0])
        assert cost > 4  # strictly more work than just walking the path once


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=4))
def test_sampled_forest_always_valid(n, seed, root_count):
    graph = generators.barabasi_albert(n, 2, seed=seed)
    rng = np.random.default_rng(seed)
    roots = sorted(set(int(v) for v in rng.choice(n, size=min(root_count, n - 1),
                                                  replace=False)))
    forest = sample_rooted_forest(graph, roots, seed=seed)
    forest.validate_against(graph)
    assert sum(forest.tree_sizes().values()) == n
