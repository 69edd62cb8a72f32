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

``T`` holds the top hubs (:func:`choose_extra_roots`).  With two or more,
the first pick roots its forests at ``T`` too (Lemma 3.5 holds for any
grounding node, and Eq. (11) rebuilds the ``{s}``-grounded quantities), and
the greedy often picks a node of ``T``, which leaves the root set ``S ∪ T``
as it was.  The next round then reuses the forests of the last draw, the
first pick's included (:class:`~repro.centrality.estimators.HeldSample`),
instead of drawing: a run whose picks stay in ``T`` draws once.

With ``T = ∅`` SchurDelta is ForestDelta, so ForestCFCM
(:mod:`repro.centrality.forest_cfcm`) is this class with no extra roots.  The
greedy loop itself is :class:`repro.centrality.result.GreedyCFCM`; this
module supplies its first pick and its gain oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.properties import extra_root_size
from repro.graph.traversal import require_connected
from repro.centrality.estimators import (
    HeldSample,
    SamplingConfig,
    estimate_first_pick,
    estimate_schur_delta,
)
from repro.centrality.result import GreedyCFCM
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_integer, check_node


def choose_extra_roots(graph: Graph, size: Optional[int] = None) -> List[int]:
    """Select the additional root set ``T`` of SchurCFCM.

    The paper repeatedly takes the highest-degree node of the remaining graph
    and sizes the set by trading the ``|T| x |T|`` Schur complement against
    the degree bound ``dmax(V \\ T)`` of the sampling cost.  Its literal
    ``argmin |T| - dmax(V \\ T)`` is 1 on every graph, so
    :func:`~repro.graph.properties.extra_root_size` minimises
    ``|T| + dmax(V \\ T)`` instead.  Passing ``size`` overrides the
    automatic choice.
    """
    if size is None:
        size = extra_root_size(graph)
    else:
        check_integer("size", size, minimum=1, maximum=graph.n - 1)
    order = np.argsort(-graph.degrees, kind="stable")
    return [int(v) for v in order[:size]]


def _sampling_log(diagnostics: Dict[str, float]) -> Dict[str, object]:
    log = {"samples": int(diagnostics["samples"]),
           "stopped_early": bool(diagnostics["stopped_early"])}
    if diagnostics.get("reused"):
        log["reused"] = True
    return log


class SchurCFCM(GreedyCFCM):
    """Greedy CFCM solver based on forest sampling plus the Schur complement.

    With ``|T| >= 2`` the first pick roots its forests at ``T``.  A gain
    round whose root set ``S ∪ T`` is the last draw's (the previous pick was
    in ``T``) reuses those forests and logs ``samples`` 0 and ``reused``;
    the iteration log's ``samples`` sum to the forests the run drew.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    eps:
        Error parameter in ``(0, 1)``.
    extra_roots:
        Explicit auxiliary root set ``T`` (repeats are ignored); by default
        the highest-degree nodes, sized by ``argmin |T| + dmax(V \\ T)``
        (:func:`choose_extra_roots`: the paper's literal ``|T| - dmax`` is
        1 on every graph).  An empty ``T`` runs ForestDelta in every round.
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
        # A run starts with no held sample; with |T| >= 2 the first pick
        # fills it, and its gain rounds share it.
        self._held = HeldSample()
        first, scores, diagnostics = estimate_first_pick(
            self.graph, self.config, seed=self.rng,
            extra_roots=self.extra_roots, held=self._held,
        )
        return first, scores, _sampling_log(diagnostics)

    def _gains(self, group: Sequence[int]
               ) -> Tuple[Dict[int, float], Dict[str, object]]:
        # estimate_schur_delta drops the extra roots already in the group,
        # and draws only when S ∪ T differs from the held sample's.
        gains, diagnostics = estimate_schur_delta(
            self.graph, group, self.extra_roots, self.config, seed=self.rng,
            held=self._held,
        )
        return gains, _sampling_log(diagnostics)

    def _parameters(self) -> Dict[str, object]:
        return {
            "eps": self.config.eps,
            "max_samples": self.config.max_samples,
            "jl_rows": self.config.jl_rows(self.graph.n),
            "extra_roots": list(self.extra_roots),
        }
