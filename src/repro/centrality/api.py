"""High-level entry point: ``maximize_cfcc``.

Dispatches to the individual algorithms so that examples, experiments and
downstream users only need one call:

>>> from repro import maximize_cfcc
>>> from repro.graph import generators
>>> graph = generators.barabasi_albert(150, 2, seed=0)
>>> result = maximize_cfcc(graph, k=3, method="schur", eps=0.3, seed=1)
>>> result.k
3
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.centrality.approx_greedy import ApproxGreedy
from repro.centrality.cfcc import group_cfcc, group_cfcc_estimate
from repro.centrality.estimators import SamplingConfig
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.forest_cfcm import ForestCFCM
from repro.centrality.heuristics import degree_group, top_cfcc_group
from repro.centrality.optimum import optimum_cfcm
from repro.centrality.result import CFCMResult
from repro.centrality.schur_cfcm import SchurCFCM
from repro.utils.rng import RandomState
from repro.utils.validation import check_integer

METHODS = ("schur", "forest", "approx", "exact", "degree", "top-cfcc", "optimum")

# Methods whose accuracy is governed by the error parameter eps.
_EPS_METHODS = ("schur", "forest", "approx")


def validate_cfcm_parameters(n: int, k: int, method: str, eps: float,
                             config: Optional[SamplingConfig]) -> int:
    """Validate the shared CFCM parameters; returns the normalised ``k``.

    Shared by :func:`maximize_cfcc` and :meth:`repro.dynamic.DynamicCFCM.query`
    so both entry points fail fast with the same messages (in particular
    *before* any cache key is derived from the raw arguments).
    """
    k = check_integer("k", k, minimum=1)
    if k >= n:
        raise InvalidParameterError(
            f"k={k} must satisfy 1 <= k < n={n}: the selected group has to be "
            "a strict subset of the nodes"
        )
    if method in _EPS_METHODS and config is None:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise InvalidParameterError(
                f"eps must lie in (0, 1) for method {method!r}, got {eps}"
            )
    return k


def maximize_cfcc(graph: Graph, k: int, method: str = "schur", eps: float = 0.2,
                  seed: RandomState = None,
                  config: Optional[SamplingConfig] = None,
                  extra_roots: Optional[Sequence[int]] = None,
                  evaluate: bool | str = False) -> CFCMResult:
    """Approximately solve CFCM: pick ``k`` nodes maximising group CFCC.

    Parameters
    ----------
    graph:
        Connected undirected :class:`repro.Graph` (a unit-weighted
        :class:`repro.dynamic.DynamicGraph` is frozen to a snapshot).  To
        select through a :class:`repro.dynamic.DynamicCFCM`'s version-aware
        cache, call its ``query`` instead.
    k:
        Group cardinality constraint (``k << n``).
    method:
        One of :data:`METHODS`:

        ``"schur"``
            SchurCFCM — forest sampling + Schur complement (recommended).
        ``"forest"``
            ForestCFCM — pure forest sampling.
        ``"approx"``
            ApproxGreedy — the JL + Laplacian-solver state-of-the-art baseline.
        ``"exact"``
            Exact greedy with dense marginal gains.
        ``"degree"`` / ``"top-cfcc"``
            Heuristic baselines.
        ``"optimum"``
            Brute force over all groups (tiny graphs only).
    eps:
        Error parameter for the randomised methods.
    seed:
        Seed or :class:`numpy.random.Generator`.
    config:
        Full :class:`SamplingConfig` for the sampling methods (overrides
        ``eps``).
    extra_roots:
        Explicit auxiliary root set ``T`` for SchurCFCM.
    evaluate:
        ``False`` (default) leaves ``result.cfcc`` empty; ``True`` or
        ``"exact"`` fills it with the exact CFCC of the selected group;
        ``"estimate"`` uses the sparse-solver estimate (large graphs).

    Returns
    -------
    :class:`CFCMResult`
    """
    method = str(method).lower()
    if method not in METHODS:
        raise InvalidParameterError(
            f"unknown method {method!r}; valid methods: {METHODS}"
        )

    if graph is None:
        raise InvalidParameterError("graph is required")
    k = validate_cfcm_parameters(graph.n, k, method, eps, config)

    # A DynamicGraph (or anything snapshot-able) is frozen to an immutable
    # CSR graph so the batch algorithms below run unmodified.  The snapshot
    # only carries the topology, so a weighted dynamic graph must be refused
    # here or every method below would silently optimise the wrong objective.
    if not isinstance(graph, Graph) and hasattr(graph, "snapshot"):
        if not getattr(graph, "is_unit_weighted", True):
            raise InvalidParameterError(
                "CFCM selection assumes unit edge weights; reset weights to 1 "
                "(weighted graphs are supported for evaluation via "
                "DynamicCFCM.evaluate_exact only)"
            )
        graph = graph.snapshot()

    if method == "schur":
        result = SchurCFCM(graph, eps=eps, seed=seed, config=config,
                           extra_roots=extra_roots).run(k)
    elif method == "forest":
        result = ForestCFCM(graph, eps=eps, seed=seed, config=config).run(k)
    elif method == "approx":
        result = ApproxGreedy(graph, eps=eps, seed=seed).run(k)
    elif method == "exact":
        result = ExactGreedy(graph).run(k)
    elif method == "degree":
        result = degree_group(graph, k)
    elif method == "top-cfcc":
        result = top_cfcc_group(graph, k)
    else:  # optimum
        result = optimum_cfcm(graph, k)

    if evaluate and result.cfcc is None:
        if evaluate == "estimate":
            result.cfcc = group_cfcc_estimate(graph, result.group)
        else:
            result.cfcc = group_cfcc(graph, result.group)
    return result
