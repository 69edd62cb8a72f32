"""Tests for the absorbing random-walk quantities."""

import numpy as np
import pytest

from repro.graph import generators
from repro.centrality.absorbing import (
    expected_wilson_visits,
    hitting_times_to_group,
    mean_group_hitting_time,
    weighted_group_resistance_identity,
)
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.heuristics import degree_group
from repro.sampling.wilson import expected_sampling_cost


class TestHittingTimes:
    def test_path_graph_closed_form(self):
        """On a path rooted at one end, E[T_u] = u * (2L - u) for length-L path."""
        length = 5
        path = generators.path_graph(length + 1)
        times = hitting_times_to_group(path, [0])
        for u in range(length + 1):
            assert times[u] == pytest.approx(u * (2 * length - u), rel=1e-9)

    def test_group_members_zero(self, karate):
        times = hitting_times_to_group(karate, [3, 7])
        assert times[3] == 0.0 and times[7] == 0.0
        assert np.all(times >= 0)

    def test_larger_group_absorbs_faster(self, karate):
        single = mean_group_hitting_time(karate, [0])
        double = mean_group_hitting_time(karate, [0, 33])
        assert double < single


class TestWilsonCostIdentities:
    def test_matches_sampling_module(self, karate):
        assert expected_wilson_visits(karate, [0]) == pytest.approx(
            expected_sampling_cost(karate, [0]), rel=1e-9
        )

    def test_degree_weighted_identity(self, karate):
        """Tr((I - P_{-S})^{-1}) = sum_u d_u (inv(L_{-S}))_uu."""
        for group in ([0], [0, 33], [5, 10]):
            assert expected_wilson_visits(karate, group) == pytest.approx(
                weighted_group_resistance_identity(karate, group), rel=1e-9
            )

    def test_hub_roots_cheaper_than_leaf_roots(self, small_ba):
        hubs = degree_group(small_ba, 3).group
        order = np.argsort(small_ba.degrees, kind="stable")
        leaves = [int(v) for v in order[:3]]
        assert expected_wilson_visits(small_ba, hubs) < expected_wilson_visits(
            small_ba, leaves
        )

    def test_cfcm_group_is_good_absorber(self, small_ba):
        """The CFCM-selected group absorbs walks faster than a random group."""
        greedy = ExactGreedy(small_ba).run(4).group
        rng = np.random.default_rng(0)
        random_group = sorted(int(v) for v in rng.choice(small_ba.n, 4, replace=False))
        assert mean_group_hitting_time(small_ba, greedy) <= mean_group_hitting_time(
            small_ba, random_group
        )
