"""The one solve policy for grounded-Laplacian (SPD) systems.

The state-of-the-art baseline (ApproxGreedy, Li et al. 2019) relies on a fast
Laplacian solver; the original code uses the Julia ``Laplacians.jl``
approximate-Cholesky solver.  :class:`LaplacianSolver` is the substitute, and
every caller that solves a grounded Laplacian goes through it: the baseline,
the CFCC evaluation routes and the sparse resistance backend's base solves.

* It factors through :func:`repro.linalg.factor.factorize_spd`: a
  dense-Cholesky hub core on hub-heavy patterns, symmetric-mode SuperLU
  otherwise.
* Only when that raises does it fall back to Jacobi-preconditioned conjugate
  gradient (the method the paper's Fig. 3 uses to evaluate CFCC on graphs
  where exact inversion is infeasible), at :data:`CG_TOLERANCE`.

:attr:`LaplacianSolver.solver_used` reports which of the three is in force.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.linalg.factor import HubCoreFactor, factorize_spd
from repro.utils.faultpoints import fault_point

Matrix = Union[np.ndarray, sp.spmatrix]

#: Relative residual tolerance of the CG fallback.
CG_TOLERANCE = 1e-10
#: Iteration cap of the CG fallback (``None``: SciPy's ``10 n``).
CG_MAXITER: Optional[int] = None

#: Right-hand-side columns per solve when many unit columns are needed.
SOLVE_BLOCK = 256


class LaplacianSolver:
    """Solver for a symmetric positive-definite (grounded-Laplacian) matrix.

    The matrix (dense array or scipy sparse) is factored by
    :func:`repro.linalg.factor.factorize_spd`; when that raises, solves run
    through Jacobi-preconditioned CG (:func:`build_preconditioner`, built
    once and shared by every solve).  Grounded Laplacians ``L_{-S}`` of
    connected graphs always qualify.

    Attributes
    ----------
    factor:
        The :class:`~repro.linalg.factor.HubCoreFactor` or SuperLU object,
        or ``None`` under CG; :func:`repro.linalg.factor.break_even` reads it.
    """

    def __init__(self, matrix: Matrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError("solver matrix must be square")
        self._n = matrix.shape[0]
        try:
            self.factor = factorize_spd(matrix)
        except (RuntimeError, ValueError):  # SuperLU: singular or malformed
            self.factor = None
            self._matrix = sp.csr_matrix(matrix, dtype=np.float64)
            self._preconditioner = build_preconditioner(self._matrix)

    @property
    def n(self) -> int:
        """Number of unknowns."""
        return self._n

    @property
    def solver_used(self) -> str:
        """``"hub_core"``, ``"splu"`` or ``"cg"``."""
        if self.factor is None:
            return "cg"
        return "hub_core" if isinstance(self.factor, HubCoreFactor) else "splu"

    # ------------------------------------------------------------------ solve
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a single right-hand side."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self._n,):
            raise InvalidParameterError(
                f"right-hand side must have shape ({self._n},), got {rhs.shape}"
            )
        if self.factor is not None:
            return self.factor.solve(rhs)
        return self._solve_cg(rhs)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` for a ``(n, k)`` right-hand side."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            return self.solve(rhs)[:, None]
        if rhs.shape[0] != self._n:
            raise InvalidParameterError(
                f"right-hand sides must have {self._n} rows, got {rhs.shape[0]}"
            )
        if self.factor is not None:
            return self.factor.solve(np.ascontiguousarray(rhs))
        columns = [self._solve_cg(rhs[:, j]) for j in range(rhs.shape[1])]
        return np.stack(columns, axis=1)

    def diagonal_of_inverse(self) -> np.ndarray:
        """Exact diagonal of ``A^{-1}`` via ``n`` unit solves."""
        return blocked_diagonal(self.solve_many, self._n)

    def trace_of_inverse(self) -> float:
        """Exact ``Tr(A^{-1})``; cost is ``n`` solves."""
        return float(np.sum(self.diagonal_of_inverse()))

    # -------------------------------------------------------------- internals
    def _solve_cg(self, rhs: np.ndarray) -> np.ndarray:
        fault_point("solver.cg", subject=self)
        solution, info = _cg(
            self._matrix, rhs, rtol=CG_TOLERANCE,
            maxiter=CG_MAXITER, M=self._preconditioner,
        )
        if info > 0:
            residual = float(np.linalg.norm(self._matrix @ solution - rhs))
            raise ConvergenceError(
                f"conjugate gradient did not converge within {info} iterations",
                iterations=int(info), residual=residual, rtol=CG_TOLERANCE,
            )
        if info < 0:
            raise ConvergenceError(
                "conjugate gradient received an illegal input",
                iterations=int(info), rtol=CG_TOLERANCE,
            )
        return solution


def blocked_diagonal(solve_many: Callable[[np.ndarray], np.ndarray],
                     n: int) -> np.ndarray:
    """Diagonal of an ``n × n`` inverse from its unit-column solves.

    Solves :data:`SOLVE_BLOCK` unit columns at a time, so it needs
    O(n·SOLVE_BLOCK) memory rather than a dense ``n × n`` identity.
    """
    values = np.empty(n, dtype=np.float64)
    for lo in range(0, n, SOLVE_BLOCK):
        width = min(SOLVE_BLOCK, n - lo)
        unit = np.zeros((n, width), dtype=np.float64)
        unit[lo + np.arange(width), np.arange(width)] = 1.0
        values[lo:lo + width] = np.einsum(
            "ii->i", solve_many(unit)[lo:lo + width])
    return values


def _cg(matrix, rhs, rtol, maxiter, M):
    """Version-portable wrapper around :func:`scipy.sparse.linalg.cg`."""
    try:
        return spla.cg(matrix, rhs, rtol=rtol, maxiter=maxiter, M=M)
    except TypeError:  # older scipy uses `tol`
        return spla.cg(matrix, rhs, tol=rtol, maxiter=maxiter, M=M)


def build_preconditioner(matrix: Matrix) -> spla.LinearOperator:
    """Jacobi (inverse-diagonal) CG preconditioner of an SPD grounded Laplacian."""
    sparse = matrix if sp.issparse(matrix) else sp.csr_matrix(matrix)
    diagonal = np.asarray(sparse.diagonal(), dtype=np.float64)
    if np.any(diagonal <= 0):
        raise InvalidParameterError(
            "CG with Jacobi preconditioning requires positive diagonal entries"
        )
    inverse_diag = 1.0 / diagonal
    return spla.LinearOperator(sparse.shape, matvec=lambda x: inverse_diag * x)


def estimate_trace_of_inverse(matrix: Matrix, probes: int = 32,
                              seed: Optional[int] = 0) -> float:
    """Hutchinson estimator of ``Tr(A^{-1})`` using Rademacher probes.

    This is the evaluation route the paper uses to report CFCC values on
    graphs too large for exact inversion (Fig. 3).
    """
    if probes <= 0:
        raise InvalidParameterError(f"probes must be positive, got {probes}")
    solver = LaplacianSolver(matrix)
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random((solver.n, probes)) < 0.5, -1.0, 1.0)
    solved = solver.solve_many(signs)
    return float(np.mean(np.sum(signs * solved, axis=0)))
