"""Current flow closeness centrality of single nodes and of node groups.

* single node (Brandes & Fleischer 2005):
  ``C(u) = n / (Tr(L†) + n L†_uu)``;
* node group (Li et al. 2019, Eq. 3 of the paper):
  ``C(S) = n / Tr(inv(L_{-S}))``.

Exact evaluation uses dense linear algebra and is intended for graphs of up
to a few thousand nodes.  :func:`group_cfcc_estimate` is the Hutchinson route
the paper uses to evaluate solutions on graphs where exact inversion is
infeasible (Fig. 3), and :func:`group_cfcc_solver` the deterministic one;
both solve through :class:`repro.linalg.solvers.LaplacianSolver` (a sparse
factor, conjugate gradient only when factoring fails).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import require_connected
from repro.linalg.laplacian import grounded_laplacian, grounded_laplacian_dense
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.linalg.solvers import LaplacianSolver, estimate_trace_of_inverse
from repro.utils.validation import check_group


def grounded_trace(graph: Graph, group: Sequence[int]) -> float:
    """Exact ``Tr(inv(L_{-S}))`` — the quantity greedy minimises."""
    require_connected(graph)
    group = check_group(group, graph.n)
    matrix, _ = grounded_laplacian_dense(graph, group)
    return float(np.trace(np.linalg.inv(matrix)))


def group_cfcc(graph: Graph, group: Sequence[int]) -> float:
    """Exact group CFCC ``C(S) = n / Tr(inv(L_{-S}))``."""
    return graph.n / grounded_trace(graph, group)


def group_cfcc_estimate(graph: Graph, group: Sequence[int],
                        probes: int = 64, seed: int | None = 0) -> float:
    """Estimate ``C(S)`` via Hutchinson trace probes over a sparse solver.

    This is the evaluation route used for the large-graph effectiveness study
    (Fig. 3): ``Tr(inv(L_{-S}))`` is approximated by Rademacher probes whose
    solves share one :class:`repro.linalg.solvers.LaplacianSolver`.
    """
    require_connected(graph)
    group = check_group(group, graph.n)
    matrix, _ = grounded_laplacian(graph, group)
    trace = estimate_trace_of_inverse(matrix, probes=probes, seed=seed)
    return graph.n / trace


def group_cfcc_solver(graph: Graph, group: Sequence[int]) -> float:
    """Exact-to-solver-tolerance ``C(S)`` via ``|V \\ S|`` linear solves.

    More expensive than :func:`group_cfcc_estimate` but deterministic; used in
    tests as an independent cross-check of the dense route.
    """
    require_connected(graph)
    group = check_group(group, graph.n)
    matrix, _ = grounded_laplacian(graph, group)
    solver = LaplacianSolver(matrix)
    return graph.n / solver.trace_of_inverse()


def single_cfcc_all(graph: Graph) -> np.ndarray:
    """Exact single-node CFCC for every node (one pseudoinverse, n values)."""
    require_connected(graph)
    pinv = laplacian_pseudoinverse(graph)
    trace = float(np.trace(pinv))
    diag = np.diag(pinv)
    return graph.n / (trace + graph.n * diag)
