"""Fig. 4 / Fig. 5 benchmarks — behaviour as the error parameter eps varies.

Fig. 4 shape: running time of both sampling algorithms grows as eps shrinks
(more JL directions and more forests per round), with SchurCFCM at or below
ForestCFCM at every eps.  A round's forest budget, ``ceil(8 / eps^2)``,
exceeds every tier's ``max_samples``, so the per-tier caps (24, 32 and 48
forests) stand in for it and keep the step short.

Fig. 5 shape: solution quality relative to the exact greedy improves (the
relative difference shrinks) as eps decreases; the assertions bound the
difference at the tight end of the sweep.
"""

from __future__ import annotations

import pytest

from repro.centrality.cfcc import group_cfcc
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.forest_cfcm import ForestCFCM
from repro.centrality.schur_cfcm import SchurCFCM

K = 5


@pytest.mark.benchmark(group="fig4-eps-runtime-forest")
class TestForestEpsSweep:
    def test_eps_030(self, benchmark, smallworld_graph, loose_config):
        benchmark(lambda: ForestCFCM(smallworld_graph, seed=3,
                                     config=loose_config).run(K))

    def test_eps_020(self, benchmark, smallworld_graph, bench_config):
        benchmark(lambda: ForestCFCM(smallworld_graph, seed=3,
                                     config=bench_config).run(K))

    def test_eps_015(self, benchmark, smallworld_graph, tight_config):
        benchmark(lambda: ForestCFCM(smallworld_graph, seed=3,
                                     config=tight_config).run(K))


@pytest.mark.benchmark(group="fig4-eps-runtime-schur")
class TestSchurEpsSweep:
    def test_eps_030(self, benchmark, smallworld_graph, loose_config):
        benchmark(lambda: SchurCFCM(smallworld_graph, seed=3,
                                    config=loose_config).run(K))

    def test_eps_020(self, benchmark, smallworld_graph, bench_config):
        benchmark(lambda: SchurCFCM(smallworld_graph, seed=3,
                                    config=bench_config).run(K))

    def test_eps_015(self, benchmark, smallworld_graph, tight_config):
        benchmark(lambda: SchurCFCM(smallworld_graph, seed=3,
                                    config=tight_config).run(K))


@pytest.mark.benchmark(group="fig5-eps-quality")
class TestQualityVersusExact:
    def test_schur_quality_tight_eps(self, benchmark, sparse_graph, tight_config):
        exact_value = group_cfcc(sparse_graph, ExactGreedy(sparse_graph).run(K).group)
        result = benchmark(lambda: SchurCFCM(sparse_graph, seed=4,
                                             config=tight_config).run(K))
        value = group_cfcc(sparse_graph, result.group)
        assert (exact_value - value) / exact_value < 0.15

    def test_forest_quality_tight_eps(self, benchmark, sparse_graph, tight_config):
        exact_value = group_cfcc(sparse_graph, ExactGreedy(sparse_graph).run(K).group)
        result = benchmark(lambda: ForestCFCM(sparse_graph, seed=4,
                                              config=tight_config).run(K))
        value = group_cfcc(sparse_graph, result.group)
        assert (exact_value - value) / exact_value < 0.2
