"""Current-flow closeness centrality: exact quantities, baselines and the paper's algorithms."""

from repro.centrality.cfcc import (
    group_cfcc,
    group_cfcc_estimate,
    grounded_trace,
    single_cfcc_all,
)
from repro.centrality.resistance import (
    resistance_distance,
    resistance_to_group,
    total_group_resistance,
)
from repro.centrality.marginal import (
    first_pick_objective,
    marginal_gain,
    marginal_gains_all,
)
from repro.centrality.result import CFCMResult
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.approx_greedy import ApproxGreedy
from repro.centrality.forest_cfcm import ForestCFCM
from repro.centrality.schur_cfcm import SchurCFCM, choose_extra_roots
from repro.centrality.heuristics import degree_group, top_cfcc_group
from repro.centrality.optimum import optimum_cfcm
from repro.centrality.api import maximize_cfcc, METHODS

__all__ = [
    "group_cfcc",
    "group_cfcc_estimate",
    "grounded_trace",
    "single_cfcc_all",
    "resistance_distance",
    "resistance_to_group",
    "total_group_resistance",
    "first_pick_objective",
    "marginal_gain",
    "marginal_gains_all",
    "CFCMResult",
    "ExactGreedy",
    "ApproxGreedy",
    "ForestCFCM",
    "SchurCFCM",
    "choose_extra_roots",
    "degree_group",
    "top_cfcc_group",
    "optimum_cfcm",
    "maximize_cfcc",
    "METHODS",
]
