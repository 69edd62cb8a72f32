"""Resistance distance between nodes and between a node and a grounded group.

Definitions (Section II-D of the paper):

* ``R(i, j) = L†_ii + L†_jj - 2 L†_ij`` — pairwise effective resistance;
* ``R(u, S) = (inv(L_{-S}))_uu`` — resistance between ``u`` and the grounded
  node group ``S`` (all nodes of ``S`` held at potential zero).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.centrality.cfcc import grounded_trace
from repro.graph.graph import Graph
from repro.graph.traversal import require_connected
from repro.linalg.laplacian import grounded_laplacian_dense
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.utils.validation import check_group, check_node


def resistance_distance(graph: Graph, u: int, v: int) -> float:
    """Effective resistance ``R(u, v)`` between two nodes."""
    require_connected(graph)
    check_node(u, graph.n)
    check_node(v, graph.n)
    if u == v:
        return 0.0
    pinv = laplacian_pseudoinverse(graph)
    return float(pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v])


def resistance_to_group(graph: Graph, u: int, group: Sequence[int]) -> float:
    """Effective resistance ``R(u, S)`` between node ``u`` and grounded group ``S``."""
    require_connected(graph)
    group = check_group(group, graph.n)
    check_node(u, graph.n)
    if u in group:
        return 0.0
    matrix, kept = grounded_laplacian_dense(graph, group)
    inverse = np.linalg.inv(matrix)
    local = int(np.flatnonzero(kept == u)[0])
    return float(inverse[local, local])


def total_group_resistance(graph: Graph, group: Sequence[int]) -> float:
    """``Σ_{u ∈ V} R(u, S) = Tr(inv(L_{-S}))`` — the reciprocal objective of CFCM."""
    return grounded_trace(graph, group)


def resistance_matrix(graph: Graph) -> np.ndarray:
    """Dense matrix of pairwise effective resistances."""
    require_connected(graph)
    pinv = laplacian_pseudoinverse(graph)
    diag = np.diag(pinv)
    return diag[:, None] + diag[None, :] - 2.0 * pinv
