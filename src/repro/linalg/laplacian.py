"""Laplacian and grounded-Laplacian construction.

For a graph ``G`` with adjacency matrix ``A`` and degree matrix ``D`` the
Laplacian is ``L = D - A``.  Removing the rows and columns indexed by a node
group ``S`` yields the *grounded Laplacian* ``L_{-S}``, which is symmetric,
diagonally dominant and positive definite for connected graphs — the central
matrix of the paper, since ``C(S) = n / Tr(inv(L_{-S}))``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.utils.validation import check_group


def laplacian_matrix(graph: Graph) -> sp.csr_matrix:
    """Sparse Laplacian ``L = D - A`` of ``graph``."""
    return (graph.degree_matrix() - graph.adjacency_matrix()).tocsr()


def laplacian_dense(graph: Graph) -> np.ndarray:
    """Dense Laplacian; intended for small graphs and exact baselines."""
    return laplacian_matrix(graph).toarray()


def complement_indices(n: int, group: Sequence[int]) -> np.ndarray:
    """Nodes of ``0..n-1`` not in ``group``, in increasing order.

    The ordering defines the row/column labelling of ``L_{-S}``: entry ``i``
    of the reduced matrix corresponds to node ``complement_indices(n, S)[i]``.
    """
    mask = np.ones(n, dtype=bool)
    mask[list(group)] = False
    return np.flatnonzero(mask)


def grounded_laplacian(graph: Graph, group: Sequence[int]
                       ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Sparse grounded Laplacian ``L_{-S}`` and the kept-node index array.

    Returns
    -------
    (matrix, kept):
        ``matrix[i, j]`` equals ``L[kept[i], kept[j]]``.
    """
    group = check_group(group, graph.n)
    kept = complement_indices(graph.n, group)
    full = laplacian_matrix(graph)
    reduced = full[kept][:, kept].tocsr()
    return reduced, kept


def grounded_laplacian_dense(graph: Graph, group: Sequence[int]
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense grounded Laplacian ``L_{-S}`` and the kept-node index array."""
    matrix, kept = grounded_laplacian(graph, group)
    return matrix.toarray(), kept


def transition_matrix(graph: Graph) -> sp.csr_matrix:
    """Random-walk transition matrix ``P = D^{-1} A``."""
    inv_degree = sp.diags(1.0 / graph.degrees.astype(np.float64), format="csr")
    return (inv_degree @ graph.adjacency_matrix()).tocsr()


def grounded_transition_matrix(graph: Graph, group: Sequence[int]
                               ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Submatrix ``P_{-S}`` of the transition matrix, plus kept indices.

    ``Tr((I - P_{-S})^{-1})`` bounds the expected running time of Wilson's
    algorithm with root set ``S`` (Lemma 3.7).
    """
    group = check_group(group, graph.n)
    kept = complement_indices(graph.n, group)
    full = transition_matrix(graph)
    return full[kept][:, kept].tocsr(), kept
