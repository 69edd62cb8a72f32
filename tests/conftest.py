"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import datasets, generators
from repro.graph.graph import Graph


@pytest.fixture
def path4() -> Graph:
    """Path graph 0-1-2-3."""
    return generators.path_graph(4)


@pytest.fixture
def cycle5() -> Graph:
    """Cycle graph on 5 nodes."""
    return generators.cycle_graph(5)


@pytest.fixture
def star6() -> Graph:
    """Star graph with centre 0 and 5 leaves."""
    return generators.star_graph(6)


@pytest.fixture
def karate() -> Graph:
    """Zachary's karate club graph."""
    return datasets.karate()


@pytest.fixture
def small_ba() -> Graph:
    """Deterministic 60-node Barabási–Albert graph."""
    return generators.barabasi_albert(60, 2, seed=12345)


@pytest.fixture
def medium_ba() -> Graph:
    """Deterministic 200-node Barabási–Albert graph."""
    return generators.barabasi_albert(200, 3, seed=54321)


@pytest.fixture
def hub_ba() -> Graph:
    """200-node Barabási–Albert graph whose Laplacian grounded at {0, 1} is
    hub-heavy (largest off-diagonal row count 13.5x the mean)."""
    return generators.barabasi_albert(200, 2, seed=7)


@pytest.fixture
def grid5x5() -> Graph:
    """5x5 grid graph."""
    return generators.grid_graph(5, 5)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for statistical tests."""
    return np.random.default_rng(2024)
