"""Decision audit: how close is each SchurCFCM pick to the round's best?

The final CFCC hides poor greedy decisions (later picks make up for an
early miss), so these tests score every gain round directly.  For
SchurCFCM with k = 4, eps = 0.2 and the default :class:`SamplingConfig`,
over seeds 1–6, a round with group ``S`` that picks ``u`` scores the exact
``Δ(u, S)`` over the exact ``max_v Δ(v, S)``, both from a dense inverse
(:func:`repro.centrality.marginal_gains_all`).  Over the 18 gain rounds of
each graph the median must reach 0.85 and the 10th percentile 0.6.  The
graphs span a hub-heavy power-law graph (the ``select`` benchmark's) and two
slow-mixing ones, where Jacobi smoothing contracts least.

On the power-law graph SchurCFCM roots its forests at 17 hubs besides
``S``, the greedy picks among them, and later rounds reuse the forests of
the round before (:class:`repro.centrality.estimators.HeldSample`).  There
the gate is a median of 0.99 and a 10th percentile of 0.9 (measured: 1.0
and 0.989).  The grid and the small world keep a single extra root, and
their ratios are those of independent draws in every round.
"""

import numpy as np
import pytest

from repro.centrality import marginal_gains_all
from repro.centrality.schur_cfcm import SchurCFCM
from repro.graph import generators

GRAPHS = {
    "powerlaw_cluster": lambda: generators.powerlaw_cluster(1000, 4, 0.3, seed=7),
    "grid": lambda: generators.grid_graph(20, 20),
    "watts_strogatz": lambda: generators.watts_strogatz(400, 4, 0.05, seed=13),
}
#: (median, 10th percentile) each graph's ratios must reach.
GATES = {"powerlaw_cluster": (0.99, 0.9), "grid": (0.85, 0.6),
         "watts_strogatz": (0.85, 0.6)}
K, EPS, SEEDS = 4, 0.2, range(1, 7)


def gain_ratios(graph):
    """Exact gain of each round's pick over the round's exact best gain."""
    exact = {}
    ratios = []
    for seed in SEEDS:
        group = SchurCFCM(graph, eps=EPS, seed=seed).run(K).group
        for size in range(1, K):
            key = tuple(sorted(group[:size]))
            if key not in exact:
                exact[key] = marginal_gains_all(graph, key)
            gains = exact[key]
            ratios.append(gains[group[size]] / max(gains.values()))
    return np.array(ratios)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_gain_rounds_pick_near_the_exact_best(name):
    ratios = gain_ratios(GRAPHS[name]())
    assert ratios.size == len(SEEDS) * (K - 1)
    median, p10 = GATES[name]
    assert np.median(ratios) >= median
    assert np.percentile(ratios, 10) >= p10
