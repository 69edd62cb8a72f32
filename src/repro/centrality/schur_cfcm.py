"""SchurCFCM (Algorithm 5) and SchurDelta (Algorithm 4), and so ForestCFCM.

SchurCFCM improves on ForestCFCM by sampling forests rooted at the enlarged
set ``S ∪ T`` where ``T`` contains the highest-degree nodes:

* random walks are absorbed much faster, so Wilson's algorithm is cheaper
  (Lemma 3.7 with the larger root set);
* ``inv(L_{-S ∪ T})`` is more diagonally dominant, so the per-sample variance
  of the estimators drops.

The quantities referring to the original root set ``S`` are recovered through
the Eq. (11) block representation of ``inv(L_{-S})`` using the sampled
rooted-probability matrix ``F`` (Lemma 4.2) and the sampled Schur complement
``S_T(L_{-S})`` (Eq. 15, Lemma 4.3).  The approximation factor of Theorem 4.7
matches ForestCFCM's.

With ``T = ∅`` SchurDelta is ForestDelta, so ForestCFCM
(:mod:`repro.centrality.forest_cfcm`) is this class with no extra roots.  The
greedy loop itself is :class:`repro.centrality.result.GreedyCFCM`; this
module supplies its first pick and its gain oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.properties import EXTRA_ROOT_CAP, extra_root_size
from repro.graph.traversal import require_connected
from repro.centrality.estimators import (
    SamplingConfig,
    estimate_first_pick,
    estimate_schur_delta,
)
from repro.centrality.result import GreedyCFCM
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_integer, check_node


def choose_extra_roots(graph: Graph, size: Optional[int] = None,
                       max_size: int = EXTRA_ROOT_CAP) -> List[int]:
    """Select the additional root set ``T`` of SchurCFCM.

    The paper repeatedly takes the highest-degree node of the remaining graph
    and sizes the set as ``|T*| = argmin_{|T|} { |T| - dmax(T) }``, balancing
    the cubic cost of inverting the Schur complement against the degree bound
    entering the sampling complexity.  Passing ``size`` overrides the
    automatic choice.
    """
    if size is None:
        size = extra_root_size(graph, max_size=max_size)
    else:
        check_integer("size", size, minimum=1, maximum=graph.n - 1)
    order = np.argsort(-graph.degrees, kind="stable")
    return [int(v) for v in order[:size]]


def schur_delta(graph: Graph, group: Sequence[int], extra_roots: Sequence[int],
                eps: float = 0.2, seed: RandomState = None,
                config: Optional[SamplingConfig] = None) -> Dict[int, float]:
    """SchurDelta: sampled marginal gains using the auxiliary root set ``T``.

    ``extra_roots=()`` gives ForestDelta.  Node ids are validated before any
    forest is drawn.
    """
    require_connected(graph)
    group = [check_node(v, graph.n) for v in group]
    extra_roots = [check_node(t, graph.n) for t in extra_roots]
    if not group:
        raise InvalidParameterError("SchurDelta requires a non-empty group S")
    config = config or SamplingConfig(eps=eps)
    gains, _ = estimate_schur_delta(graph, group, extra_roots, config, seed=seed)
    return gains


def _sampling_log(diagnostics: Dict[str, float]) -> Dict[str, object]:
    return {"samples": int(diagnostics["samples"]),
            "stopped_early": bool(diagnostics["stopped_early"])}


class SchurCFCM(GreedyCFCM):
    """Greedy CFCM solver based on forest sampling plus the Schur complement.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    eps:
        Error parameter in ``(0, 1)``.
    extra_roots:
        Explicit auxiliary root set ``T`` (repeats are ignored); by default
        the highest-degree nodes, sized by ``argmin(|T| - dmax(T))`` as in
        the paper.  An empty ``T`` runs ForestDelta in every round.
    seed, config:
        Randomness and full sampling configuration.

    Examples
    --------
    >>> from repro.graph import generators
    >>> graph = generators.barabasi_albert(200, 2, seed=1)
    >>> result = SchurCFCM(graph, eps=0.3, seed=0).run(k=3)
    >>> len(result.group)
    3
    """

    method_name = "schur"

    def __init__(self, graph: Graph, eps: float = 0.2,
                 extra_roots: Optional[Sequence[int]] = None,
                 seed: RandomState = None,
                 config: Optional[SamplingConfig] = None):
        require_connected(graph)
        self.graph = graph
        self.config = config or SamplingConfig(eps=eps)
        self.rng = as_rng(seed)
        if extra_roots is None:
            extra_roots = choose_extra_roots(graph)
        self.extra_roots = sorted(set(check_node(t, graph.n)
                                      for t in extra_roots))

    # ------------------------------------------------------------ greedy hooks
    def _first_pick(self) -> Tuple[int, np.ndarray, Dict[str, object]]:
        first, scores, diagnostics = estimate_first_pick(
            self.graph, self.config, seed=self.rng
        )
        return first, scores, _sampling_log(diagnostics)

    def _gains(self, group: Sequence[int]
               ) -> Tuple[Dict[int, float], Dict[str, object]]:
        # estimate_schur_delta drops the extra roots already in the group.
        gains, diagnostics = estimate_schur_delta(
            self.graph, group, self.extra_roots, self.config, seed=self.rng
        )
        return gains, _sampling_log(diagnostics)

    def _parameters(self) -> Dict[str, object]:
        return {
            "eps": self.config.eps,
            "max_samples": self.config.max_samples,
            "jl_rows": self.config.jl_rows(self.graph.n),
            "extra_roots": list(self.extra_roots),
        }
