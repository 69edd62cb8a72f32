"""Decision audit: how close is each SchurCFCM pick to the round's best?

The final CFCC hides poor greedy decisions (later picks make up for an
early miss), so these tests score every decision directly.  For SchurCFCM
with k = 4, eps = 0.2 and the default :class:`SamplingConfig`, over seeds
1–6, each graph is run six times and both tests read the same runs:

* a gain round with group ``S`` that picks ``u`` scores the exact
  ``Δ(u, S)`` over the exact ``max_v Δ(v, S)``, both from a dense inverse
  (:func:`repro.centrality.marginal_gains_all`).  Over the 18 gain rounds
  of each graph the median must reach 0.85 and the 10th percentile 0.6;
* the first pick scores its single-node CFCC over the best single node's
  (:func:`repro.centrality.cfcc.single_cfcc_all`).  The minimum over the
  six runs must reach 0.9.

The graphs span a hub-heavy power-law graph (the ``select`` benchmark's) and
two slow-mixing ones, where Jacobi smoothing contracts least.

On the power-law graph SchurCFCM roots its forests at 17 hubs ``T``
besides ``S``, the first pick's too, and the greedy picks among them, so
the gain rounds reuse the first pick's forests
(:class:`repro.centrality.estimators.ForestSample`).  There the gain gate is
a median of 0.99 and a 10th percentile of 0.9 (measured: 1.0 and 0.962,
minimum 0.616), and the first-pick gate a minimum of 0.99 (measured: 1.0
on every seed; 0.953 when the first pick rooted its forests at the top hub
alone).  The grid and the small world keep a single extra root, their
first pick roots at the top hub, and every round draws afresh: their first
picks measure a minimum of 0.947 and 0.925.
"""

import functools

import numpy as np
import pytest

from repro.centrality import marginal_gains_all
from repro.centrality.cfcc import single_cfcc_all
from repro.centrality.schur_cfcm import SchurCFCM
from repro.graph import generators

GRAPHS = {
    "powerlaw_cluster": lambda: generators.powerlaw_cluster(1000, 4, 0.3, seed=7),
    "grid": lambda: generators.grid_graph(20, 20),
    "watts_strogatz": lambda: generators.watts_strogatz(400, 4, 0.05, seed=13),
}
#: (median, 10th percentile) each graph's gain ratios must reach.
GATES = {"powerlaw_cluster": (0.99, 0.9), "grid": (0.85, 0.6),
         "watts_strogatz": (0.85, 0.6)}
#: Minimum each graph's first-pick ratios must reach.
FIRST_PICK_GATES = {"powerlaw_cluster": 0.99, "grid": 0.9,
                    "watts_strogatz": 0.9}
K, EPS, SEEDS = 4, 0.2, range(1, 7)


@functools.lru_cache(maxsize=None)
def runs(name):
    """The graph and the groups of its six SchurCFCM runs."""
    graph = GRAPHS[name]()
    return graph, [SchurCFCM(graph, eps=EPS, seed=seed).run(K).group
                   for seed in SEEDS]


def gain_ratios(name):
    """Exact gain of each round's pick over the round's exact best gain."""
    graph, groups = runs(name)
    exact = {}
    ratios = []
    for group in groups:
        for size in range(1, K):
            key = tuple(sorted(group[:size]))
            if key not in exact:
                exact[key] = marginal_gains_all(graph, key)
            gains = exact[key]
            ratios.append(gains[group[size]] / max(gains.values()))
    return np.array(ratios)


def first_pick_ratios(name):
    """Single-node CFCC of each first pick over the best single node's."""
    graph, groups = runs(name)
    closeness = single_cfcc_all(graph)
    return closeness[[group[0] for group in groups]] / closeness.max()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_gain_rounds_pick_near_the_exact_best(name):
    ratios = gain_ratios(name)
    assert ratios.size == len(SEEDS) * (K - 1)
    median, p10 = GATES[name]
    assert np.median(ratios) >= median
    assert np.percentile(ratios, 10) >= p10


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_first_pick_is_near_the_best_single_node(name):
    ratios = first_pick_ratios(name)
    assert ratios.size == len(SEEDS)
    assert ratios.min() >= FIRST_PICK_GATES[name]
