"""Moore–Penrose pseudoinverse of the Laplacian.

``L`` is singular (its null space is spanned by the all-ones vector), so the
paper works with the pseudoinverse ``L† = (L + J/n)^{-1} - J/n`` where
``J = 11^T``.  The diagonal of ``L†`` determines single-node CFCC and the
first greedy pick of every CFCM algorithm (Eq. 4).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.linalg.laplacian import laplacian_dense
from repro.utils.validation import check_node


def laplacian_pseudoinverse(graph: Graph) -> np.ndarray:
    """Dense pseudoinverse ``L†`` computed via the rank-one shift identity.

    Uses ``L† = (L + 11^T / n)^{-1} - 11^T / n`` which is numerically stable
    for connected graphs and avoids an SVD.
    """
    n = graph.n
    laplacian = laplacian_dense(graph)
    shift = np.full((n, n), 1.0 / n)
    return np.linalg.inv(laplacian + shift) - shift


def pseudoinverse_diagonal(graph: Graph) -> np.ndarray:
    """Diagonal of ``L†`` (used for single-node CFCC and the first greedy pick)."""
    return np.diag(laplacian_pseudoinverse(graph)).copy()


def pseudoinverse_diagonal_grounded(graph: Graph, anchor: int) -> np.ndarray:
    """Diagonal of ``L†`` computed through the grounded reformulation.

    Implements Lemma 3.5 of the paper: with ``S = {s}``,

    ``L†_uu = (L_{-s}^{-1})_uu - (2/n) 1^T L_{-s}^{-1} e_u + (1/n^2) 1^T L_{-s}^{-1} 1``

    for ``u != s`` and ``L†_ss = (1/n^2) 1^T L_{-s}^{-1} 1``.  The reformulated
    computation only involves the well-conditioned grounded Laplacian, which is
    why the sampling algorithms prefer it.  Dense linear algebra is used here;
    the sampling-based estimator lives in :mod:`repro.centrality.estimators`.
    """
    check_node(anchor, graph.n)
    n = graph.n
    laplacian = laplacian_dense(graph)
    kept = [v for v in range(n) if v != anchor]
    reduced = laplacian[np.ix_(kept, kept)]
    inv_reduced = np.linalg.inv(reduced)
    ones = np.ones(n - 1)
    column_sums = ones @ inv_reduced
    constant = float(ones @ inv_reduced @ ones) / (n * n)
    diag = np.full(n, constant)
    diag[kept] += np.diag(inv_reduced) - (2.0 / n) * column_sums
    return diag


def kirchhoff_index(graph: Graph) -> float:
    """Kirchhoff index ``Kf = n * Tr(L†)`` = sum of all pairwise resistances / 1."""
    return float(graph.n * np.trace(laplacian_pseudoinverse(graph)))
