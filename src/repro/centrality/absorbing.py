"""Absorbing random-walk quantities related to grounded node groups.

The complexity analysis of the paper (Lemma 3.7 and the SchurCFCM rationale)
is phrased in terms of absorbing random walks: the expected number of steps a
walk takes before hitting the root set bounds the cost of Wilson's algorithm,
and the entrywise monotonicity of ``inv(L_{-S})`` explains why enlarging the
root set with hubs makes sampling cheaper.  These quantities are also what
make CFCC meaningful for applications (a group with high CFCC is quickly
reached by random-walk search, spike propagation, or diffusing load).

This module exposes them directly:

* :func:`hitting_times_to_group` — expected steps from every node until a
  walk is absorbed by the group ``S`` (``(I - P_{-S})^{-1} 1``);
* :func:`mean_group_hitting_time` — the average over start nodes, a natural
  "search cost" companion to ``C(S)``;
* :func:`expected_wilson_visits` — ``Tr((I - P_{-S})^{-1})``, the Lemma 3.7
  bound on the sampler's work;
* :func:`weighted_group_resistance_identity` — the degree-weighted diagonal
  of ``inv(L_{-S})``, which equals that trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import require_connected
from repro.linalg.laplacian import grounded_transition_matrix
from repro.utils.validation import check_group


def _fundamental_matrix(graph: Graph, group: Sequence[int]) -> tuple:
    """Dense ``(I - P_{-S})^{-1}`` plus the kept-node index array."""
    submatrix, kept = grounded_transition_matrix(graph, group)
    dense = submatrix.toarray()
    fundamental = np.linalg.inv(np.eye(dense.shape[0]) - dense)
    return fundamental, kept


def hitting_times_to_group(graph: Graph, group: Sequence[int]) -> np.ndarray:
    """Expected absorption time into ``group`` from every node.

    Returns an ``(n,)`` vector; entries of group members are zero.  Uses the
    standard absorbing-chain identity ``t = (I - P_{-S})^{-1} 1``.
    """
    require_connected(graph)
    group = check_group(group, graph.n)
    fundamental, kept = _fundamental_matrix(graph, group)
    times = np.zeros(graph.n)
    times[kept] = fundamental @ np.ones(kept.size)
    return times


def mean_group_hitting_time(graph: Graph, group: Sequence[int]) -> float:
    """Average absorption time over all start nodes (group members count as 0)."""
    return float(hitting_times_to_group(graph, group).mean())


def expected_wilson_visits(graph: Graph, group: Sequence[int]) -> float:
    """``Tr((I - P_{-S})^{-1})`` — Lemma 3.7's bound on Wilson's algorithm cost."""
    require_connected(graph)
    group = check_group(group, graph.n)
    fundamental, _ = _fundamental_matrix(graph, group)
    return float(np.trace(fundamental))


def weighted_group_resistance_identity(graph: Graph, group: Sequence[int]) -> float:
    """Degree-weighted diagonal identity ``sum_u d_u (inv(L_{-S}))_uu``.

    Equals ``Tr((I - P_{-S})^{-1})`` because
    ``(I - P_{-S})^{-1} = D_{-S} inv(L_{-S})``; exposed separately so tests can
    validate the identity the SchurCFCM analysis relies on.
    """
    require_connected(graph)
    group = check_group(group, graph.n)
    from repro.linalg.laplacian import grounded_laplacian_dense

    dense, kept = grounded_laplacian_dense(graph, group)
    inverse = np.linalg.inv(dense)
    degrees = graph.degrees[kept].astype(np.float64)
    return float(np.sum(degrees * np.diag(inverse)))

