"""Shared fixtures and workloads for the pytest-benchmark suite.

Benchmarks are sized for a single-core laptop: every graph is a scaled-down
synthetic stand-in (see :data:`repro.graph.datasets.PAPER_NETWORKS`) and the
sampling budgets are modest.  Set
``REPRO_BENCH_SCALE=large`` to benchmark on the bigger stand-ins.
"""

from __future__ import annotations

import os

import pytest

from repro.centrality.estimators import SamplingConfig
from repro.graph import generators

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def scaled(small: int, large: int) -> int:
    """Pick a workload size according to ``REPRO_BENCH_SCALE``."""
    return large if BENCH_SCALE == "large" else small


@pytest.fixture(scope="session")
def sparse_graph():
    """Sparse scale-free graph (stand-in for Routeviews / web-EPA)."""
    return generators.barabasi_albert(scaled(400, 2000), 2, seed=11)


@pytest.fixture(scope="session")
def dense_graph():
    """Dense clustered scale-free graph (stand-in for Facebook / buzznet)."""
    return generators.powerlaw_cluster(scaled(300, 1500), 12, 0.3, seed=12)


@pytest.fixture(scope="session")
def smallworld_graph():
    """Small-world ring graph (stand-in for Euroroads / Amazon)."""
    return generators.watts_strogatz(scaled(300, 1500), 4, 0.05, seed=13)


@pytest.fixture(scope="session")
def tiny_graph():
    """Tiny graph for the optimality benchmarks (Fig. 1 regime)."""
    return generators.powerlaw_cluster(40, 2, 0.3, seed=14)


@pytest.fixture(scope="session")
def bench_config():
    """Sampling configuration used by the benchmark runs (eps = 0.2 tier)."""
    return SamplingConfig(eps=0.2, max_samples=32, max_jl_dimension=48)


@pytest.fixture(scope="session")
def loose_config():
    """Sampling configuration for the eps = 0.3 tier."""
    return SamplingConfig(eps=0.3, max_samples=24, max_jl_dimension=32)


@pytest.fixture(scope="session")
def tight_config():
    """Sampling configuration for the eps = 0.15 tier."""
    return SamplingConfig(eps=0.15, max_samples=48, max_jl_dimension=64)
