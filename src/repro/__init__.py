"""repro — reproduction of "Fast Maximization of Current Flow Group Closeness Centrality".

The package implements the paper's two contributions — ForestCFCM and
SchurCFCM — together with every substrate they rely on (graph structures,
Laplacian solvers, spanning-forest sampling) and every baseline the paper
compares against (exact greedy, ApproxGreedy, Degree, Top-CFCC, brute-force
optimum), plus an experiment harness regenerating each table and figure of
the evaluation section.

Quickstart
----------
>>> import repro
>>> from repro.graph import generators
>>> graph = generators.barabasi_albert(300, 3, seed=0)
>>> result = repro.maximize_cfcc(graph, k=5, method="schur", eps=0.3, seed=1)
>>> value = repro.group_cfcc(graph, result.group)
"""

import repro.obs as obs
from repro.exceptions import (
    ConvergenceError,
    DisconnectedGraphError,
    GraphError,
    InvalidNodeError,
    InvalidParameterError,
    NotComputedError,
    ReproError,
)
from repro.graph.graph import Graph
from repro.centrality import (
    ApproxGreedy,
    CFCMResult,
    ExactGreedy,
    ForestCFCM,
    METHODS,
    SchurCFCM,
    degree_group,
    first_pick_objective,
    group_cfcc,
    group_cfcc_estimate,
    grounded_trace,
    marginal_gain,
    marginal_gains_all,
    maximize_cfcc,
    optimum_cfcm,
    resistance_distance,
    resistance_to_group,
    single_cfcc_all,
    top_cfcc_group,
    total_group_resistance,
)
from repro.centrality.estimators import SamplingConfig
from repro.dynamic import DynamicCFCM, DynamicGraph, IncrementalResistance

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # exceptions
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "InvalidNodeError",
    "InvalidParameterError",
    "ConvergenceError",
    "NotComputedError",
    # core types
    "Graph",
    "CFCMResult",
    "SamplingConfig",
    # dynamic engine
    "DynamicGraph",
    "DynamicCFCM",
    "IncrementalResistance",
    # algorithms
    "maximize_cfcc",
    "METHODS",
    "ForestCFCM",
    "SchurCFCM",
    "ApproxGreedy",
    "ExactGreedy",
    "degree_group",
    "top_cfcc_group",
    "optimum_cfcm",
    # exact quantities
    "group_cfcc",
    "group_cfcc_estimate",
    "grounded_trace",
    "single_cfcc_all",
    "resistance_distance",
    "resistance_to_group",
    "total_group_resistance",
    "marginal_gain",
    "marginal_gains_all",
    "first_pick_objective",
]
