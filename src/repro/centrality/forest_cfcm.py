"""ForestCFCM (Algorithm 3) and ForestDelta (Algorithm 2).

The greedy loop:

1. *First pick* — sample forests rooted at the maximum-degree node ``s`` and
   select the node minimising the Lemma 3.5 reformulation of ``L†_uu``.
2. *Subsequent picks* — call ForestDelta to estimate the marginal gain
   ``Δ(u, S) = (inv(L_{-S})^2)_uu / (inv(L_{-S}))_uu`` for every candidate and
   add the maximiser.

Both steps draw rooted spanning forests with Wilson's algorithm, use the
BFS-path current estimators of Lemma 3.3 and JL projections (Lemma 3.4) for
the numerator, Jacobi-smooth the sampled columns, and draw a fixed budget of
``ceil(8 / eps^2)`` forests per step (see
:meth:`repro.centrality.estimators.SamplingConfig.sample_cap`; this replaces
the per-node empirical-Bernstein rule of Lemma 3.6).
The algorithm achieves the ``1 - (k/(k-1))/e - eps`` approximation factor of
Theorem 3.11.

ForestDelta is SchurDelta with an empty auxiliary root set ``T``, so
ForestCFCM is :mod:`repro.centrality.schur_cfcm` with ``T = ∅``.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.graph import Graph
from repro.centrality.estimators import SamplingConfig
from repro.centrality.schur_cfcm import SchurCFCM
from repro.utils.rng import RandomState


class ForestCFCM(SchurCFCM):
    """Greedy CFCM solver based purely on spanning-forest sampling.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    eps:
        Error parameter in ``(0, 1)`` controlling the JL dimension and the
        forests drawn per step.
    seed:
        Seed or generator for all randomness.
    config:
        Optional full :class:`SamplingConfig` (overrides ``eps``).

    Examples
    --------
    >>> from repro.graph import generators
    >>> graph = generators.barabasi_albert(200, 2, seed=1)
    >>> result = ForestCFCM(graph, eps=0.3, seed=0).run(k=3)
    >>> len(result.group)
    3
    """

    method_name = "forest"

    def __init__(self, graph: Graph, eps: float = 0.2, seed: RandomState = None,
                 config: Optional[SamplingConfig] = None):
        super().__init__(graph, eps=eps, extra_roots=(), seed=seed,
                         config=config)
