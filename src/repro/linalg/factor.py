"""One factorisation entry point for SPD (grounded-Laplacian) systems.

:func:`factorize_spd` returns an object with ``.solve(rhs)`` for one or many
right-hand sides.  Two factorisations sit behind it, chosen from the sparsity
pattern alone:

* **Sparse LU** (SciPy ``splu`` in symmetric mode with a minimum-degree
  ordering on ``AᵀA + A``) — the default, and the choice on every matrix
  whose row counts are near uniform (lattices, meshes, their shards), where
  elimination rounds gain nothing.
* **Hub core** (:class:`HubCoreFactor`) — on hub-heavy matrices, whose largest
  off-diagonal row count is at least :data:`HUB_DEGREE_RATIO` times the mean.
  This is the structure behind the paper's SchurCFCM (Section IV): once the
  low-degree rows are eliminated, what is left is a small dense Schur
  complement on the hubs.  SuperLU reaches the same trailing block but
  factors it with BLAS-2 kernels; here it goes to LAPACK Cholesky.

The hub core eliminates rows in rounds.  Each round picks an independent set
``I`` of low-degree rows (no two adjacent), so ``K_II = D`` is diagonal and
the exact Schur complement onto the rest ``R`` is one sparse product,
``K_RR − K_RI D⁻¹ K_IR``.  Rounds stop once the remainder is dense
(:data:`CORE_DENSITY`) or a round removes too few rows
(:data:`STALL_FRACTION`); the remainder — the core — is factored with
``scipy.linalg.cho_factor``.  A solve runs forward through the rounds, does
``cho_solve`` on the core and runs back.

The hub core falls back to sparse LU within the same call on an asymmetric
matrix, a non-positive pivot, a Cholesky failure or a core over
:data:`MAX_CORE_ROWS` rows.  The choice is a pure function of the matrix:
ties in the independent-set choice are broken by a fixed pseudo-random order
of row ids, so an identical matrix always yields an identical factor (the
checkpoint → restore → replay contract refactorises on restore).

:func:`break_even` estimates, from a factor's structure alone, how many
right-hand-side columns cost as much to solve as the factor cost to build.
It is a pure function of the matrix too, so a refresh schedule built on it
is deterministic.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: A matrix is hub-heavy when its largest off-diagonal row count is at least
#: this multiple of the mean count.
HUB_DEGREE_RATIO = 8.0
#: Elimination stops once the remainder's nonzeros fill this share of it.
CORE_DENSITY = 0.05
#: ...or once a round removes fewer than this share of the remaining rows.
STALL_FRACTION = 0.01
#: Cores larger than this fall back to sparse LU (Cholesky is O(c³)).
MAX_CORE_ROWS = 4096

# Cost-model constants of break_even, in dense-flop equivalents (one flop of
# LAPACK Cholesky or a blocked triangular solve).  Fitted once on a 2-vCPU
# VM with one BLAS thread: hub-core rounds spent ~0.65 µs per input nonzero
# and ~5.4 ns per coupling nonzero and solved column, while dense kernels
# ran at ~20 GFlop/s.
#: One stored nonzero touched by a sparse kernel (scipy products, gathers,
#: SuperLU's numeric factorisation and triangular solves).
SPARSE_ENTRY_FLOPS = 27.0
#: One nonzero of the input analysed at factorisation time: the hub core's
#: elimination rounds, SuperLU's minimum-degree ordering and symbolic pass.
ANALYSIS_ENTRY_FLOPS = 13000.0

# Multiplier of the fixed pseudo-random row order (Knuth's multiplicative
# hash); raw indices would pick corners-only sets on regular patterns.
_ORDER_HASH = np.uint64(0x9E3779B97F4A7C15)


def sparse_lu(matrix: sp.spmatrix):
    """SuperLU of an SPD matrix in symmetric mode.

    Grounded Laplacians are SPD: symmetric-mode SuperLU with a fill-reducing
    symmetric ordering keeps the factors sparse (COLAMD fills in badly on
    power-law graphs — order-of-magnitude slower factor/solve on hub-heavy
    topologies).
    """
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))


def _offdiagonal(matrix: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the stored off-diagonal entries, row-major."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    off = matrix.indices != rows
    return rows[off], matrix.indices[off]


def _is_hub_heavy(matrix: sp.spmatrix) -> bool:
    """Whether the largest off-diagonal row count is ≥ ``HUB_DEGREE_RATIO``× the mean."""
    rows, _ = _offdiagonal(sp.csr_matrix(matrix))
    counts = np.bincount(rows, minlength=matrix.shape[0])
    mean = float(counts.mean()) if counts.size else 0.0
    return mean > 0.0 and float(counts.max()) >= HUB_DEGREE_RATIO * mean


class HubCoreFactor:
    """Rounds of independent-set elimination onto a dense Cholesky core.

    Built by :func:`factorize_spd`; raises :class:`ValueError` when the
    matrix is not symmetric, has a non-positive pivot or leaves a core over
    :data:`MAX_CORE_ROWS` rows, and :class:`numpy.linalg.LinAlgError` when the
    core is not positive definite.
    """

    def __init__(self, matrix: sp.spmatrix):
        current = sp.csr_matrix(matrix, dtype=np.float64)
        if (current != current.T).nnz:
            # The elimination uses K_RI = K_IRᵀ; LU handles the general case.
            raise ValueError("hub-core elimination needs a symmetric matrix")
        self.n = current.shape[0]
        # Each round: (eliminated, kept) positions in the round's input
        # numbering, the eliminated pivots and the K_IR coupling block.
        self.rounds: List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                sp.csr_matrix]] = []
        ids = np.arange(self.n, dtype=np.uint64)
        while current.shape[0] > 0:
            size = current.shape[0]
            if current.nnz >= CORE_DENSITY * size * size:
                break
            picked = self._independent_set(current, ids)
            if picked.size < max(1, STALL_FRACTION * size):
                break
            kept = np.setdiff1d(np.arange(size), picked, assume_unique=True)
            pivots = current.diagonal()[picked]
            if not np.all(pivots > 0.0):
                raise ValueError("non-positive pivot in hub-core elimination")
            coupling = current[picked][:, kept]                  # K_IR
            scaled = sp.diags(1.0 / pivots) @ coupling           # D⁻¹ K_IR
            current = (current[kept][:, kept]
                       - (coupling.T @ scaled)).tocsr()
            current.sort_indices()
            self.rounds.append((picked, kept, pivots, coupling))
            ids = ids[kept]
        if current.shape[0] > MAX_CORE_ROWS:
            raise ValueError(
                f"hub core of {current.shape[0]} rows exceeds {MAX_CORE_ROWS}"
            )
        self.core_rows = current.shape[0]
        self._core = (sla.cho_factor(current.toarray(), lower=False,
                                     check_finite=False)
                      if self.core_rows else None)

    @staticmethod
    def _independent_set(matrix: sp.csr_matrix, ids: np.ndarray) -> np.ndarray:
        """Rows whose (degree, hashed id) key is below every neighbour's."""
        size = matrix.shape[0]
        rows, cols = _offdiagonal(matrix)
        degree = np.bincount(rows, minlength=size)
        rank = np.empty(size, dtype=np.int64)
        rank[np.argsort(ids * _ORDER_HASH, kind="stable")] = np.arange(size)
        key = degree * size + rank
        # Row-wise minimum of the neighbours' keys; rows without neighbours
        # (all of them eliminated) are always picked.
        lowest = np.full(size, np.iinfo(np.int64).max)
        has = degree > 0
        starts = (np.cumsum(degree) - degree)[has]
        lowest[has] = np.minimum.reduceat(key[cols], starts)
        return np.flatnonzero(key < lowest)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``K⁻¹ rhs`` for a ``(n,)`` or ``(n, k)`` right-hand side."""
        rhs = np.asarray(rhs, dtype=np.float64)
        work = rhs.reshape(self.n, -1)
        stack = []
        for picked, kept, pivots, coupling in self.rounds:
            y = work[picked] / pivots[:, None]
            stack.append(y)
            work = work[kept] - coupling.T @ y
        if self._core is not None:
            work = sla.cho_solve(self._core, work, check_finite=False)
        for (picked, kept, pivots, coupling), y in zip(reversed(self.rounds),
                                                       reversed(stack)):
            full = np.empty((picked.size + kept.size, work.shape[1]))
            full[kept] = work
            full[picked] = y - (coupling @ work) / pivots[:, None]
            work = full
        return work.reshape(rhs.shape)


def break_even(factor: Union[HubCoreFactor, "spla.SuperLU"],
               matrix: sp.spmatrix) -> float:
    """Solved columns that cost as much as building ``factor`` from ``matrix``.

    Both costs come from the factor's structure, in dense-flop equivalents:

    * hub core with ``c`` core rows: ``c³/3`` Cholesky flops plus the
      elimination rounds' analysis to build; ``2c²`` for the core solve plus
      four passes over every round coupling per column;
    * SuperLU with ``f = nnz(L + U)`` over ``n`` rows: the ordering and
      symbolic analysis plus about ``f²/n`` numeric entry updates to build;
      two passes over ``f`` per column.
    """
    analysis = ANALYSIS_ENTRY_FLOPS * matrix.nnz
    if isinstance(factor, HubCoreFactor):
        couplings = sum(rnd[3].nnz for rnd in factor.rounds)
        core = float(factor.core_rows)
        build = core ** 3 / 3.0 + analysis
        column = 2.0 * core ** 2 + 4.0 * SPARSE_ENTRY_FLOPS * couplings
    else:
        fill = float(factor.nnz)
        build = SPARSE_ENTRY_FLOPS * fill * fill / factor.shape[0] + analysis
        column = 2.0 * SPARSE_ENTRY_FLOPS * fill
    return build / max(column, 1.0)


def factorize_spd(matrix: sp.spmatrix) -> Union[HubCoreFactor, "spla.SuperLU"]:
    """Factor an SPD matrix; the result's ``.solve(rhs)`` applies its inverse.

    Hub-heavy patterns (largest off-diagonal row count at least
    :data:`HUB_DEGREE_RATIO` times the mean) get a :class:`HubCoreFactor`;
    every other matrix, and a hub core that fails, gets :func:`sparse_lu`.
    """
    matrix = sp.csc_matrix(matrix, dtype=np.float64)
    if _is_hub_heavy(matrix):
        try:
            return HubCoreFactor(matrix)
        except (ValueError, np.linalg.LinAlgError):
            pass
    return sparse_lu(matrix)
