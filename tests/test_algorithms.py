"""Tests for the CFCM algorithms: exact greedy, ApproxGreedy, ForestCFCM, SchurCFCM."""

import copy

import numpy as np
import pytest

from repro.centrality import estimators
from repro.exceptions import InvalidNodeError, InvalidParameterError
from repro.graph import datasets, generators
from repro.centrality.api import maximize_cfcc
from repro.centrality.approx_greedy import ApproxGreedy
from repro.centrality.cfcc import group_cfcc
from repro.centrality.estimators import ForestAccumulator, SamplingConfig
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.forest_cfcm import ForestCFCM
from repro.centrality.heuristics import degree_group, top_cfcc_group
from repro.centrality.marginal import marginal_gains_all
from repro.centrality.optimum import optimum_cfcm
from repro.centrality.schur_cfcm import SchurCFCM, choose_extra_roots
from repro.linalg.pseudoinverse import pseudoinverse_diagonal

FAST_CONFIG = SamplingConfig(eps=0.3, max_samples=160, min_samples=16,
                             initial_batch=16, max_jl_dimension=64)


def forests_drawn(result):
    """Forests a run drew: the ``samples`` of its iteration log."""
    return sum(int(entry.get("samples", 0)) for entry in result.iteration_log)


def assert_valid_group(result, graph, k):
    assert len(result.group) == k
    assert len(set(result.group)) == k
    assert all(0 <= v < graph.n for v in result.group)


class TestExactGreedy:
    def test_group_validity(self, karate):
        result = ExactGreedy(karate).run(4)
        assert_valid_group(result, karate, 4)

    def test_first_pick_minimises_pseudoinverse_diagonal(self, karate):
        result = ExactGreedy(karate).run(1)
        diag = pseudoinverse_diagonal(karate)
        assert result.group[0] == int(np.argmin(diag))

    def test_each_pick_maximises_marginal_gain(self, karate):
        result = ExactGreedy(karate).run(3)
        group = [result.group[0]]
        for node in result.group[1:]:
            gains = marginal_gains_all(karate, group)
            best = max(gains.values())
            assert gains[node] == pytest.approx(best, rel=1e-9)
            group.append(node)

    def test_cfcc_monotone_along_prefixes(self, karate):
        result = ExactGreedy(karate).run(5)
        values = [group_cfcc(karate, result.prefix(k)) for k in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_optimum_on_tiny_graph(self):
        graph = datasets.zebra_substitute()
        greedy = ExactGreedy(graph).run(2)
        best = optimum_cfcm(graph, 2)
        greedy_value = group_cfcc(graph, greedy.group)
        assert greedy_value >= 0.95 * best.cfcc

    def test_invalid_k(self, karate):
        with pytest.raises(InvalidParameterError):
            ExactGreedy(karate).run(0)
        with pytest.raises(InvalidParameterError):
            ExactGreedy(karate).run(karate.n)

    def test_iteration_log(self, karate):
        result = ExactGreedy(karate).run(3)
        assert len(result.iteration_log) == 3
        assert result.iteration_log[0]["iteration"] == 0


class TestApproxGreedy:
    def test_group_validity(self, karate):
        result = ApproxGreedy(karate, eps=0.3, seed=0).run(4)
        assert_valid_group(result, karate, 4)

    def test_close_to_exact(self, small_ba):
        exact_value = group_cfcc(small_ba, ExactGreedy(small_ba).run(4).group)
        approx_value = group_cfcc(small_ba, ApproxGreedy(small_ba, eps=0.2, seed=1).run(4).group)
        assert approx_value >= 0.9 * exact_value

    def test_reproducible(self, karate):
        a = ApproxGreedy(karate, eps=0.3, seed=7).run(3)
        b = ApproxGreedy(karate, eps=0.3, seed=7).run(3)
        assert a.group == b.group

    def test_records_solve_counts(self, karate):
        result = ApproxGreedy(karate, eps=0.3, seed=0).run(2)
        assert all("solves" in entry for entry in result.iteration_log)


class TestForestCFCM:
    def test_group_validity(self, karate):
        result = ForestCFCM(karate, seed=0, config=FAST_CONFIG).run(4)
        assert_valid_group(result, karate, 4)

    def test_close_to_exact(self, small_ba):
        exact_value = group_cfcc(small_ba, ExactGreedy(small_ba).run(4).group)
        forest_value = group_cfcc(
            small_ba, ForestCFCM(small_ba, seed=2, config=FAST_CONFIG).run(4).group
        )
        assert forest_value >= 0.85 * exact_value

    def test_reproducible(self, karate):
        a = ForestCFCM(karate, seed=9, config=FAST_CONFIG).run(3)
        b = ForestCFCM(karate, seed=9, config=FAST_CONFIG).run(3)
        assert a.group == b.group

    def test_samples_recorded(self, karate):
        result = ForestCFCM(karate, seed=0, config=FAST_CONFIG).run(2)
        assert forests_drawn(result) > 0

    def test_forest_delta_function(self, karate):
        gains, _ = estimators.estimate_forest_delta(karate, [0], FAST_CONFIG,
                                                    seed=0)
        assert set(gains) == set(range(1, karate.n))
        assert all(value > 0 for value in gains.values())

    def test_forest_delta_requires_group(self, karate):
        with pytest.raises(InvalidParameterError):
            estimators.estimate_forest_delta(karate, [], FAST_CONFIG)


class TestSchurCFCM:
    def test_group_validity(self, karate):
        result = SchurCFCM(karate, seed=0, config=FAST_CONFIG).run(4)
        assert_valid_group(result, karate, 4)

    def test_close_to_exact(self, small_ba):
        exact_value = group_cfcc(small_ba, ExactGreedy(small_ba).run(4).group)
        schur_value = group_cfcc(
            small_ba, SchurCFCM(small_ba, seed=3, config=FAST_CONFIG).run(4).group
        )
        assert schur_value >= 0.85 * exact_value

    def test_reproducible(self, karate):
        a = SchurCFCM(karate, seed=4, config=FAST_CONFIG).run(3)
        b = SchurCFCM(karate, seed=4, config=FAST_CONFIG).run(3)
        assert a.group == b.group

    def test_extra_roots_recorded(self, karate):
        result = SchurCFCM(karate, seed=0, config=FAST_CONFIG).run(2)
        assert len(result.parameters["extra_roots"]) >= 1

    def test_explicit_extra_roots(self, karate):
        result = SchurCFCM(karate, seed=0, config=FAST_CONFIG,
                           extra_roots=[33, 0, 2]).run(3)
        assert_valid_group(result, karate, 3)

    def test_schur_delta_function(self, karate):
        gains, _ = estimators.estimate_schur_delta(karate, [0], [33, 32],
                                                   FAST_CONFIG, seed=0)
        assert set(gains) == set(range(1, karate.n))

    def test_choose_extra_roots_highest_degree(self, karate):
        roots = choose_extra_roots(karate, size=3)
        top = list(np.argsort(-karate.degrees, kind="stable")[:3])
        assert roots == [int(v) for v in top]

    def test_choose_extra_roots_automatic(self, karate):
        roots = choose_extra_roots(karate)
        assert len(roots) >= 1
        assert len(roots) <= karate.n - 1


class TestSchurCFCMHeldSample:
    """With two or more extra roots the first pick roots its forests at
    ``T`` and holds them; a gain round whose root set ``S ∪ T`` is the held
    sample's reuses it instead of drawing."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Sizes of the forest batches the estimators draw."""
        sizes = []
        draw = estimators.sample_forest_batch_vectorized

        def counting(graph, roots, count, seed=None):
            sizes.append(int(count))
            return draw(graph, roots, count, seed=seed)

        monkeypatch.setattr(estimators, "sample_forest_batch_vectorized",
                            counting)
        return sizes

    @staticmethod
    def reused(result):
        return [bool(entry.get("reused")) for entry in result.iteration_log]

    def test_picks_in_t_draw_only_for_the_first_pick(self, drawn):
        graph = generators.powerlaw_cluster(1000, 4, 0.3, seed=7)
        solver = SchurCFCM(graph, seed=1)
        result = solver.run(4)
        # Every pick before a gain round is a hub of T.
        assert set(result.group[:3]) <= set(solver.extra_roots)
        samples = [entry["samples"] for entry in result.iteration_log]
        assert samples == [200, 0, 0, 0]
        assert self.reused(result) == [False, True, True, True]
        assert all(entry["stopped_early"] for entry in result.iteration_log)
        assert forests_drawn(result) == sum(drawn) == 200

    # The last two runs pick all of T by their first gain round, so the
    # round after it is ForestDelta on the held root set, and draws.  With
    # T = [33] the first pick draws as with no extra roots and holds nothing.
    @pytest.mark.parametrize("seed, extra_roots", [
        (0, None), (1, None), (2, None), (3, None), (2, [33]), (4, [0, 33])])
    def test_a_round_reuses_exactly_when_the_last_pick_was_in_t(
            self, karate, drawn, seed, extra_roots):
        solver = SchurCFCM(karate, seed=seed, config=FAST_CONFIG,
                           extra_roots=extra_roots)
        result = solver.run(5)
        hubs = set(solver.extra_roots)
        expected = [False] + [
            result.group[i - 1] in hubs and not hubs <= set(result.group[:i])
            for i in range(1, 5)]
        assert self.reused(result) == expected
        for entry, reused in zip(result.iteration_log, expected):
            assert (entry["samples"] == 0) == reused
        assert forests_drawn(result) == sum(drawn)

    def test_extra_roots_away_from_the_picks_draw_every_round(self, karate,
                                                              drawn):
        leaves = [int(v) for v in np.argsort(karate.degrees, kind="stable")[:3]]
        result = SchurCFCM(karate, seed=0, config=FAST_CONFIG,
                           extra_roots=leaves).run(4)
        # A pick in T would leave the next round's root set as it was.
        assert not set(result.group[:-1]) & set(leaves)
        assert not any(self.reused(result))
        assert all(entry["samples"] > 0 for entry in result.iteration_log)
        assert forests_drawn(result) == sum(drawn)

    def test_each_run_starts_without_a_held_sample(self, karate, drawn):
        solver = SchurCFCM(karate, seed=0, config=FAST_CONFIG)
        first = solver.run(2)
        rng = copy.deepcopy(solver.rng)
        second = solver.run(2)
        # Both first picks are hubs, so both gain rounds are rooted at T.
        assert {first.group[0], second.group[0]} <= set(solver.extra_roots)
        assert second.iteration_log[0]["samples"] > 0
        assert self.reused(second) == [False, True]
        assert sum(drawn) == forests_drawn(first) + forests_drawn(second)
        # The second run reads only what it drew itself.
        alone = SchurCFCM(karate, seed=rng, config=FAST_CONFIG).run(2)
        assert alone.group == second.group
        assert alone.iteration_log == second.iteration_log


class TestBadNodeIds:
    """Out-of-range node ids raise a typed error before any forest is drawn."""

    @pytest.fixture(autouse=True)
    def refuse_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a forest was drawn before validation")

        monkeypatch.setattr(ForestAccumulator, "add_samples", refuse)

    @pytest.mark.parametrize("extra", [34, -1])
    def test_schur_cfcm_extra_roots(self, karate, extra):
        with pytest.raises(InvalidNodeError):
            SchurCFCM(karate, extra_roots=[33, extra])
        with pytest.raises(InvalidNodeError):
            SchurCFCM(karate, extra_roots=[extra])


class TestHeuristics:
    def test_degree_group_selects_top_degrees(self, karate):
        result = degree_group(karate, 3)
        top = set(int(v) for v in np.argsort(-karate.degrees, kind="stable")[:3])
        assert set(result.group) == top

    def test_top_cfcc_group(self, karate):
        result = top_cfcc_group(karate, 3)
        assert len(result.group) == 3
        # The single most central node must be included.
        from repro.centrality.cfcc import single_cfcc_all

        best = int(np.argmax(single_cfcc_all(karate)))
        assert best in result.group

    def test_heuristics_weaker_than_greedy(self, small_ba):
        """On scale-free graphs the greedy group beats the top-degree group."""
        exact_value = group_cfcc(small_ba, ExactGreedy(small_ba).run(6).group)
        degree_value = group_cfcc(small_ba, degree_group(small_ba, 6).group)
        assert exact_value >= degree_value - 1e-9


class TestOptimum:
    def test_optimum_beats_or_matches_everything(self):
        graph = datasets.zebra_substitute()
        best = optimum_cfcm(graph, 2)
        for method_result in (
            ExactGreedy(graph).run(2),
            degree_group(graph, 2),
            top_cfcc_group(graph, 2),
        ):
            assert best.cfcc >= group_cfcc(graph, method_result.group) - 1e-9

    def test_optimum_k1_matches_single_cfcc(self, karate):
        best = optimum_cfcm(karate, 1)
        from repro.centrality.cfcc import single_cfcc_all

        # Maximising C(S) for |S| = 1 minimises L+_uu, i.e. maximises C(u).
        assert best.group[0] == int(np.argmax(single_cfcc_all(karate)))

    def test_candidate_cap(self, medium_ba):
        with pytest.raises(InvalidParameterError):
            optimum_cfcm(medium_ba, 5, max_candidates=1000)


class TestMaximizeCFCCApi:
    @pytest.mark.parametrize("method", ["exact", "approx", "forest", "schur",
                                        "degree", "top-cfcc"])
    def test_all_methods_dispatch(self, karate, method):
        result = maximize_cfcc(karate, 3, method=method, eps=0.3, seed=0,
                               config=FAST_CONFIG if method in ("forest", "schur") else None)
        assert_valid_group(result, karate, 3)
        assert result.method == method

    def test_optimum_dispatch(self):
        graph = datasets.zebra_substitute()
        result = maximize_cfcc(graph, 2, method="optimum")
        assert result.method == "optimum"
        assert result.cfcc is not None

    def test_unknown_method(self, karate):
        with pytest.raises(InvalidParameterError):
            maximize_cfcc(karate, 2, method="quantum")


class TestAlgorithmAgreementOnTinyGraphs:
    """Fig. 1-style check: every greedy variant lands near the optimum."""

    @pytest.mark.parametrize("graph_name", ["Zebra*", "Karate"])
    def test_near_optimal(self, graph_name):
        graph = datasets.tiny_suite()[graph_name]
        k = 3
        best = optimum_cfcm(graph, k).cfcc
        for method in ("exact", "approx", "forest", "schur"):
            result = maximize_cfcc(
                graph, k, method=method, eps=0.2, seed=1,
                config=SamplingConfig(eps=0.2, max_samples=256) if method in ("forest", "schur") else None,
            )
            value = group_cfcc(graph, result.group)
            assert value >= 0.9 * best
