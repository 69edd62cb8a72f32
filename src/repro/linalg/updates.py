"""Incremental updates of grounded-Laplacian inverses.

The exact greedy baseline repeatedly needs ``inv(L_{-S ∪ {u}})`` after having
computed ``inv(L_{-S})``.  Removing one more row/column corresponds to the
standard block-inverse *downdate*

``inv(M_{-u}) = inv(M)_{-u,-u} - inv(M)_{-u,u} inv(M)_{u,-u} / inv(M)_{u,u}``

which costs O(n^2) instead of a fresh O(n^3) inversion, making the exact
greedy feasible on graphs with a few thousand nodes.

The dynamic-graph engine (:mod:`repro.dynamic`) needs the complementary
*edge* update: changing the weight of edge ``(u, v)`` by ``δ`` perturbs the
Laplacian by the rank-1 term ``δ b bᵀ`` with ``b = e_u - e_v``, so the
grounded inverse follows from the Sherman–Morrison formula

``inv(M + δ b bᵀ) = inv(M) - δ inv(M) b bᵀ inv(M) / (1 + δ bᵀ inv(M) b)``

again in O(n^2) — see :func:`grounded_inverse_edge_update`.

A burst of ``t`` edge events is the rank-``t`` perturbation ``B D Bᵀ`` (one
signed incidence column and one signed weight change per event), which folds
into the inverse with a single Woodbury solve

``inv(M + B D Bᵀ) = inv(M) - inv(M) B inv(I + D Bᵀ inv(M) B) D Bᵀ inv(M)``

at O(n²t) in one BLAS-3 pass instead of ``t`` sequential O(n²) outer products
— see :func:`grounded_inverse_block_update`.  Node joins and leaves are such
bursts too: the tracker keeps the matrix's size fixed and writes a node event
as rank-(deg+1) terms on spare or tombstoned identity rows.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.laplacian import grounded_laplacian_dense


def grounded_inverse(graph: Graph, group: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ``inv(L_{-S})`` and the kept-node index array (direct inversion)."""
    matrix, kept = grounded_laplacian_dense(graph, group)
    return np.linalg.inv(matrix), kept


def grounded_inverse_downdate(inverse: np.ndarray, local_index: int) -> np.ndarray:
    """Inverse of the matrix with row/column ``local_index`` removed.

    Parameters
    ----------
    inverse:
        ``inv(M)`` for an invertible matrix ``M``.
    local_index:
        Row/column (of the *current* matrix) to remove.

    Returns
    -------
    ``inv(M_{-local_index})`` of shape ``(n - 1, n - 1)``, rows/columns keeping
    their relative order.
    """
    inverse = np.asarray(inverse, dtype=np.float64)
    n = inverse.shape[0]
    if inverse.ndim != 2 or inverse.shape[1] != n:
        raise InvalidParameterError("inverse must be a square matrix")
    if not 0 <= local_index < n:
        raise InvalidParameterError(
            f"local_index {local_index} outside [0, {n - 1}]"
        )
    pivot = inverse[local_index, local_index]
    if abs(pivot) < 1e-15:
        raise InvalidParameterError("cannot downdate: pivot entry is numerically zero")
    keep = np.arange(n) != local_index
    column = inverse[keep, local_index]
    row = inverse[local_index, keep]
    reduced = inverse[np.ix_(keep, keep)] - np.outer(column, row) / pivot
    return reduced


def grounded_inverse_edge_update(inverse: np.ndarray, i: int, j: int | None,
                                 delta: float) -> np.ndarray:
    """Sherman–Morrison update of ``inv(M)`` after ``M += delta * b bᵀ``.

    ``b`` encodes a weight change of ``delta`` on one graph edge: ``b = e_i -
    e_j`` when both endpoints are kept rows of the grounded matrix, and
    ``b = e_i`` when the second endpoint is grounded (``j is None``), since
    grounded rows/columns are absent from ``M``.

    Parameters
    ----------
    inverse:
        ``inv(M)`` for an invertible matrix ``M``.
    i, j:
        Kept-row indices of the edge endpoints; ``j=None`` for an edge whose
        other endpoint belongs to the grounded set.
    delta:
        Signed weight change (``+w`` insertion, ``-w`` deletion, ``w' - w``
        reweighting).

    Returns
    -------
    ``inv(M + delta * b bᵀ)`` of the same shape.

    Raises
    ------
    InvalidParameterError
        If the update is singular (``1 + delta bᵀ inv(M) b ≈ 0``), which for a
        grounded Laplacian means the deletion disconnects the grounded graph;
        callers should fall back to a fresh factorisation or reject the edit.
    """
    inverse = np.asarray(inverse, dtype=np.float64)
    n = inverse.shape[0]
    if inverse.ndim != 2 or inverse.shape[1] != n:
        raise InvalidParameterError("inverse must be a square matrix")
    if not 0 <= int(i) < n:
        raise InvalidParameterError(f"index i={i} outside [0, {n - 1}]")
    if j is not None and not 0 <= int(j) < n:
        raise InvalidParameterError(f"index j={j} outside [0, {n - 1}]")
    if j is not None and int(i) == int(j):
        raise InvalidParameterError("edge endpoints must be distinct rows")
    delta = float(delta)
    if delta == 0.0:
        return inverse.copy()

    if j is None:
        column = inverse[:, i].copy()
        row = inverse[i, :].copy()
        quadratic = row[i]
    else:
        column = inverse[:, i] - inverse[:, j]
        row = inverse[i, :] - inverse[j, :]
        quadratic = row[i] - row[j]
    denominator = 1.0 + delta * float(quadratic)
    if abs(denominator) < 1e-12:
        raise InvalidParameterError(
            "singular edge update: 1 + delta * b^T inv(M) b is numerically "
            "zero (the edit would make the grounded matrix singular)"
        )
    return inverse - (delta / denominator) * np.outer(column, row)


def grounded_inverse_block_update(
    inverse: np.ndarray,
    events: Iterable[Tuple[int, Optional[int], float]],
) -> np.ndarray:
    """Woodbury update of ``inv(M)`` after ``M += Σ_k delta_k b_k b_kᵀ``.

    Folds a whole burst of edge events into the inverse at once: with ``B``
    the ``n×t`` matrix of signed incidence columns ``b_k`` and ``D`` the
    diagonal of the ``delta_k``,

    ``inv(M + B D Bᵀ) = inv(M) - inv(M) B inv(C) D Bᵀ inv(M)``

    where ``C = I + D Bᵀ inv(M) B`` is the ``t×t`` capacitance matrix.  One
    O(n²t) BLAS-3 pass replaces ``t`` sequential O(n²) rank-1 updates and
    accumulates less floating-point drift.  Because the perturbations are
    summed rather than chained, a batch whose *intermediate* states would be
    singular (e.g. remove an edge and re-add it) is still well posed as long
    as the final matrix is invertible.

    Parameters
    ----------
    inverse:
        ``inv(M)`` for an invertible matrix ``M``.
    events:
        Iterable of ``(i, j, delta)`` triples with the same semantics as
        :func:`grounded_inverse_edge_update` (``j=None`` when the second
        endpoint is grounded).  Zero-delta events are skipped.

    Returns
    -------
    ``inv(M + B D Bᵀ)`` of the same shape (a copy, even for empty batches).

    Raises
    ------
    InvalidParameterError
        On invalid indices, or when the capacitance matrix is numerically
        singular (the batch would make the grounded matrix singular);
        callers should fall back to a fresh factorisation.
    """
    inverse = np.asarray(inverse, dtype=np.float64)
    n = inverse.shape[0]
    if inverse.ndim != 2 or inverse.shape[1] != n:
        raise InvalidParameterError("inverse must be a square matrix")
    triples = []
    for i, j, delta in events:
        if not 0 <= int(i) < n:
            raise InvalidParameterError(f"index i={i} outside [0, {n - 1}]")
        if j is not None and not 0 <= int(j) < n:
            raise InvalidParameterError(f"index j={j} outside [0, {n - 1}]")
        if j is not None and int(i) == int(j):
            raise InvalidParameterError("edge endpoints must be distinct rows")
        if float(delta) != 0.0:
            triples.append((int(i), None if j is None else int(j), float(delta)))
    t = len(triples)
    if t == 0:
        return inverse.copy()
    if t == 1:
        return grounded_inverse_edge_update(inverse, *triples[0])

    # U = inv(M) B and V = Bᵀ inv(M), assembled column-by-column because B has
    # at most two non-zeros per column — O(nt) instead of a dense O(n²t) GEMM.
    deltas = np.array([delta for _, _, delta in triples], dtype=np.float64)
    left = np.empty((n, t), dtype=np.float64)
    right = np.empty((t, n), dtype=np.float64)
    for k, (i, j, _) in enumerate(triples):
        if j is None:
            left[:, k] = inverse[:, i]
            right[k, :] = inverse[i, :]
        else:
            left[:, k] = inverse[:, i] - inverse[:, j]
            right[k, :] = inverse[i, :] - inverse[j, :]
    # Bᵀ U, again via incidence structure: row k of Bᵀ U picks rows of U.
    gram = np.empty((t, t), dtype=np.float64)
    for k, (i, j, _) in enumerate(triples):
        gram[k, :] = left[i, :] if j is None else left[i, :] - left[j, :]
    capacitance = np.eye(t) + deltas[:, None] * gram
    singular_values = np.linalg.svd(capacitance, compute_uv=False)
    if singular_values[-1] < 1e-12 * max(1.0, float(singular_values[0])):
        raise InvalidParameterError(
            "singular block update: the capacitance matrix I + D B^T inv(M) B "
            "is numerically singular (the batch would make the grounded "
            "matrix singular)"
        )
    core = np.linalg.solve(capacitance, deltas[:, None] * right)
    return inverse - left @ core


class GroundedInverseTracker:
    """Maintains ``inv(L_{-S})`` across greedy node additions.

    Starts from a given group ``S`` (typically a singleton after the first
    greedy pick) and updates the dense inverse with an O(n^2) downdate each
    time a node is added to ``S``.
    """

    def __init__(self, graph: Graph, group: Sequence[int]):
        self.graph = graph
        self.group = sorted(int(v) for v in group)
        self.inverse, self.kept = grounded_inverse(graph, self.group)

    def local_index(self, node: int) -> int:
        """Row index of ``node`` inside the current reduced matrix."""
        positions = np.flatnonzero(self.kept == node)
        if positions.size == 0:
            raise InvalidParameterError(f"node {node} is already grounded")
        return int(positions[0])

    def diagonal(self) -> np.ndarray:
        """Diagonal of the current ``inv(L_{-S})`` (indexed by :attr:`kept`)."""
        return np.diag(self.inverse).copy()

    def trace(self) -> float:
        """``Tr(inv(L_{-S}))`` for the current group."""
        return float(np.trace(self.inverse))

    def add_node(self, node: int) -> None:
        """Ground one more node and downdate the inverse accordingly."""
        local = self.local_index(node)
        self.inverse = grounded_inverse_downdate(self.inverse, local)
        self.kept = np.delete(self.kept, local)
        self.group = sorted(self.group + [int(node)])
