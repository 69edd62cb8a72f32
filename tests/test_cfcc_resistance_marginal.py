"""Tests for exact CFCC, resistance distances and marginal gains."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DisconnectedGraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.builders import to_networkx
from repro.graph.graph import Graph
from repro.centrality.cfcc import (
    group_cfcc,
    group_cfcc_estimate,
    grounded_trace,
    single_cfcc_all,
)
from repro.centrality.marginal import (
    first_pick_objective,
    marginal_gain,
    marginal_gains_all,
    trace_drop,
)
from repro.centrality.resistance import (
    resistance_distance,
    resistance_matrix,
    resistance_to_group,
    total_group_resistance,
)


class TestResistance:
    def test_matches_networkx(self, karate):
        nx_graph = to_networkx(karate)
        for u, v in [(0, 33), (1, 2), (13, 26)]:
            assert resistance_distance(karate, u, v) == pytest.approx(
                nx.resistance_distance(nx_graph, u, v), rel=1e-6
            )

    def test_zero_on_diagonal(self, karate):
        assert resistance_distance(karate, 7, 7) == 0.0

    def test_symmetry(self, karate):
        assert resistance_distance(karate, 3, 19) == pytest.approx(
            resistance_distance(karate, 19, 3)
        )

    def test_resistance_at_most_shortest_path(self, karate):
        """Effective resistance is upper-bounded by the shortest-path distance."""
        nx_graph = to_networkx(karate)
        for u, v in [(0, 33), (5, 25), (14, 16)]:
            assert resistance_distance(karate, u, v) <= (
                nx.shortest_path_length(nx_graph, u, v) + 1e-9
            )

    def test_group_resistance_member_is_zero(self, karate):
        assert resistance_to_group(karate, 4, [4, 7]) == 0.0

    def test_group_resistance_decreases_with_larger_group(self, karate):
        single = resistance_to_group(karate, 20, [0])
        double = resistance_to_group(karate, 20, [0, 33])
        assert double < single

    def test_group_resistance_single_matches_pairwise(self, karate):
        assert resistance_to_group(karate, 12, [3]) == pytest.approx(
            resistance_distance(karate, 12, 3), rel=1e-9
        )

    def test_total_group_resistance_is_trace(self, karate):
        assert total_group_resistance(karate, [0, 5]) == pytest.approx(
            grounded_trace(karate, [0, 5]), rel=1e-12
        )

    def test_disconnected_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            resistance_distance(graph, 0, 2)

    def test_resistance_matrix_consistent(self, small_ba):
        matrix = resistance_matrix(small_ba)
        assert matrix[4, 9] == pytest.approx(resistance_distance(small_ba, 4, 9))


class TestSingleCFCC:
    def test_matches_networkx_information_centrality(self, karate):
        """Single-node CFCC equals networkx's information centrality up to the
        paper's factor n (networkx normalises by 1/sum R(u, v), the paper by
        n/sum R(u, v))."""
        reference = nx.information_centrality(to_networkx(karate))
        ours = single_cfcc_all(karate)
        for node, value in reference.items():
            assert ours[node] == pytest.approx(value * karate.n, rel=1e-6)

    def test_hub_more_central_than_leaf(self, star6):
        values = single_cfcc_all(star6)
        assert values[0] > values[1]


class TestGroupCFCC:
    def test_definition(self, karate):
        group = [0, 33]
        assert group_cfcc(karate, group) == pytest.approx(
            karate.n / grounded_trace(karate, group)
        )

    def test_monotone_in_group(self, karate):
        assert group_cfcc(karate, [0, 33]) > group_cfcc(karate, [0])

    def test_estimate_route_close(self, medium_ba):
        group = [0, 1, 2]
        estimate = group_cfcc_estimate(medium_ba, group, probes=256, seed=0)
        assert estimate == pytest.approx(group_cfcc(medium_ba, group), rel=0.15)

    def test_group_validation(self, karate):
        with pytest.raises(InvalidParameterError):
            group_cfcc(karate, [])
        with pytest.raises(InvalidParameterError):
            group_cfcc(karate, list(range(karate.n)))

    def test_star_centre_is_best_group_of_one(self, star6):
        centre = group_cfcc(star6, [0])
        leaf = group_cfcc(star6, [3])
        assert centre > leaf


class TestMarginalGains:
    def test_gain_equals_trace_drop(self, karate):
        """Eq. (5): the closed form equals the direct trace difference."""
        group = [0]
        for node in (5, 12, 33):
            assert marginal_gain(karate, node, group) == pytest.approx(
                trace_drop(karate, node, group), rel=1e-8
            )

    def test_gains_all_matches_individual(self, karate):
        group = [3, 8]
        gains = marginal_gains_all(karate, group)
        for node in (0, 20, 33):
            assert gains[node] == pytest.approx(marginal_gain(karate, node, group))

    def test_gains_positive(self, karate):
        gains = marginal_gains_all(karate, [0])
        assert all(value > 0 for value in gains.values())

    def test_member_rejected(self, karate):
        with pytest.raises(ValueError):
            marginal_gain(karate, 0, [0])

    def test_supermodularity_of_trace(self, karate):
        """Marginal gains shrink as the group grows (diminishing returns)."""
        small_group = [0]
        large_group = [0, 33, 2]
        gains_small = marginal_gains_all(karate, small_group)
        gains_large = marginal_gains_all(karate, large_group)
        for node in gains_large:
            assert gains_large[node] <= gains_small[node] + 1e-9

    def test_first_pick_objective_formula(self, karate):
        """Eq. (4): Tr(L+) + n L+_uu equals the sum of resistances from u."""
        objective = first_pick_objective(karate)
        matrix = resistance_matrix(karate)
        for node in (0, 17, 33):
            assert objective[node] == pytest.approx(matrix[node].sum(), rel=1e-8)


class TestCFCMonotonicityProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=8, max_value=40), st.integers(min_value=0, max_value=100))
    def test_adding_any_node_increases_cfcc(self, n, seed):
        graph = generators.barabasi_albert(n, 2, seed=seed)
        rng = np.random.default_rng(seed)
        base = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        candidates = [v for v in range(n) if v not in base]
        extra = int(rng.choice(candidates))
        assert group_cfcc(graph, base + [extra]) > group_cfcc(graph, base)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=6, max_value=30), st.integers(min_value=0, max_value=100))
    def test_resistance_triangle_inequality(self, n, seed):
        graph = generators.barabasi_albert(n, 2, seed=seed)
        matrix = resistance_matrix(graph)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(n, size=3, replace=False)
        a, b, c = (int(v) for v in nodes)
        assert matrix[a, c] <= matrix[a, b] + matrix[b, c] + 1e-9
