"""Ablation benchmarks for two design choices of SchurCFCM's estimators.

* **Auxiliary root-set size |T|** — SchurCFCM's advantage comes from sampling
  forests rooted at ``S ∪ T``; sweeping |T| shows the trade-off between
  cheaper walks (larger |T|) and the cubic cost of inverting the sampled
  Schur complement.
* **JL dimension** — the numerator estimate needs O(eps^-2 log n) random
  directions; halving the cap halves the per-sample cost at some accuracy
  loss.
"""

from __future__ import annotations

import pytest

from repro.centrality.estimators import SamplingConfig
from repro.centrality.schur_cfcm import SchurCFCM, choose_extra_roots

K = 5


def config(max_samples: int = 32, jl: int = 48,
           eps: float = 0.2) -> SamplingConfig:
    return SamplingConfig(eps=eps, max_samples=max_samples,
                          max_jl_dimension=jl)


@pytest.mark.benchmark(group="ablation-extra-roots")
class TestExtraRootSetSize:
    def test_t_equals_1(self, benchmark, sparse_graph, bench_config):
        roots = choose_extra_roots(sparse_graph, size=1)
        benchmark(lambda: SchurCFCM(sparse_graph, seed=5, config=bench_config,
                                    extra_roots=roots).run(K))

    def test_t_equals_8(self, benchmark, sparse_graph, bench_config):
        roots = choose_extra_roots(sparse_graph, size=8)
        benchmark(lambda: SchurCFCM(sparse_graph, seed=5, config=bench_config,
                                    extra_roots=roots).run(K))

    def test_t_equals_32(self, benchmark, sparse_graph, bench_config):
        roots = choose_extra_roots(sparse_graph, size=32)
        benchmark(lambda: SchurCFCM(sparse_graph, seed=5, config=bench_config,
                                    extra_roots=roots).run(K))

    def test_t_automatic(self, benchmark, sparse_graph, bench_config):
        benchmark(lambda: SchurCFCM(sparse_graph, seed=5,
                                    config=bench_config).run(K))


@pytest.mark.benchmark(group="ablation-jl-dimension")
class TestJLDimension:
    def test_jl_16(self, benchmark, sparse_graph):
        benchmark(lambda: SchurCFCM(sparse_graph, seed=7,
                                    config=config(jl=16)).run(K))

    def test_jl_48(self, benchmark, sparse_graph):
        benchmark(lambda: SchurCFCM(sparse_graph, seed=7,
                                    config=config(jl=48)).run(K))

    def test_jl_96(self, benchmark, sparse_graph):
        benchmark(lambda: SchurCFCM(sparse_graph, seed=7,
                                    config=config(jl=96)).run(K))
