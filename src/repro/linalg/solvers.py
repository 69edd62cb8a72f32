"""SDD / Laplacian linear-system solvers.

The state-of-the-art baseline (ApproxGreedy, Li et al. 2019) relies on a fast
Laplacian solver; the original code uses the Julia ``Laplacians.jl``
approximate-Cholesky solver.  This module provides the substitute substrate:

* dense Cholesky (small systems, exact baselines),
* sparse factorisation (medium systems, many right-hand sides) through
  :func:`repro.linalg.factor.factorize_spd`: a dense-Cholesky hub core on
  hub-heavy patterns, symmetric-mode SuperLU otherwise,
* Jacobi-preconditioned conjugate gradient (large sparse systems — the method
  the paper's Fig. 3 uses to evaluate CFCC on graphs where exact inversion is
  infeasible).

A :class:`LaplacianSolver` facade picks a method automatically and exposes a
uniform ``solve`` interface for one or many right-hand sides.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.linalg.factor import factorize_spd
from repro.utils.faultpoints import fault_point

Matrix = Union[np.ndarray, sp.spmatrix]

#: ``AUTO`` factors systems of up to this many unknowns by dense Cholesky.
DENSE_THRESHOLD = 600


class SolverMethod(str, Enum):
    """Available factorisation / iteration strategies."""

    DENSE_CHOLESKY = "dense_cholesky"
    SPARSE_LU = "sparse_lu"
    CONJUGATE_GRADIENT = "cg"
    AUTO = "auto"


class LaplacianSolver:
    """Solver for symmetric positive-definite (grounded-Laplacian) systems.

    Parameters
    ----------
    matrix:
        The SPD matrix (dense array or scipy sparse matrix).  Grounded
        Laplacians ``L_{-S}`` of connected graphs always qualify.
    method:
        One of :class:`SolverMethod`; ``AUTO`` selects dense Cholesky up to
        :data:`DENSE_THRESHOLD` unknowns and ``SPARSE_LU`` otherwise.
        ``SPARSE_LU`` factors through
        :func:`repro.linalg.factor.factorize_spd` (a dense-Cholesky hub core
        on hub-heavy patterns, symmetric-mode SuperLU otherwise).
    tol:
        Relative residual tolerance for the CG method.
    maxiter:
        CG iteration cap (``None`` lets scipy pick ``10 n``).  CG is
        preconditioned with :func:`build_preconditioner`.
    """

    def __init__(self, matrix: Matrix,
                 method: Union[SolverMethod, str] = SolverMethod.AUTO,
                 tol: float = 1e-10,
                 maxiter: Optional[int] = None):
        method = SolverMethod(method)
        self.tol = float(tol)
        self.maxiter = maxiter
        self._n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError("solver matrix must be square")

        if method is SolverMethod.AUTO:
            method = (SolverMethod.DENSE_CHOLESKY if self._n <= DENSE_THRESHOLD
                      else SolverMethod.SPARSE_LU)
        self.method = method

        self._dense_factor = None
        self._sparse_factor = None
        self._sparse_matrix: Optional[sp.csr_matrix] = None
        self._preconditioner: Optional[spla.LinearOperator] = None

        if method is SolverMethod.DENSE_CHOLESKY:
            dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, float)
            try:
                self._dense_factor = sla.cho_factor(dense, lower=True)
            except np.linalg.LinAlgError as exc:
                raise InvalidParameterError(
                    "dense Cholesky requires a positive-definite matrix"
                ) from exc
        elif method is SolverMethod.SPARSE_LU:
            self._sparse_factor = factorize_spd(matrix)
        elif method is SolverMethod.CONJUGATE_GRADIENT:
            sparse = sp.csr_matrix(matrix, dtype=np.float64)
            self._sparse_matrix = sparse
            self._preconditioner = build_preconditioner(sparse)
        else:  # pragma: no cover - exhaustive enum
            raise InvalidParameterError(f"unsupported solver method {method}")

    @property
    def n(self) -> int:
        """Number of unknowns."""
        return self._n

    # ------------------------------------------------------------------ solve
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a single right-hand side."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self._n,):
            raise InvalidParameterError(
                f"right-hand side must have shape ({self._n},), got {rhs.shape}"
            )
        if self.method is SolverMethod.DENSE_CHOLESKY:
            return sla.cho_solve(self._dense_factor, rhs)
        if self.method is SolverMethod.SPARSE_LU:
            return self._sparse_factor.solve(rhs)
        return self._solve_cg(rhs)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` column-by-column for a ``(n, k)`` right-hand side."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            return self.solve(rhs)[:, None]
        if rhs.shape[0] != self._n:
            raise InvalidParameterError(
                f"right-hand sides must have {self._n} rows, got {rhs.shape[0]}"
            )
        if self.method is SolverMethod.DENSE_CHOLESKY:
            return sla.cho_solve(self._dense_factor, rhs)
        if self.method is SolverMethod.SPARSE_LU:
            return self._sparse_factor.solve(rhs)
        columns = [self._solve_cg(rhs[:, j]) for j in range(rhs.shape[1])]
        return np.stack(columns, axis=1)

    def diagonal_of_inverse(self) -> np.ndarray:
        """Exact diagonal of ``A^{-1}`` via ``n`` solves (small systems only)."""
        identity = np.eye(self._n)
        return np.diag(self.solve_many(identity)).copy()

    def trace_of_inverse(self) -> float:
        """Exact ``Tr(A^{-1})``; cost is ``n`` solves."""
        return float(np.sum(self.diagonal_of_inverse()))

    # -------------------------------------------------------------- internals
    def _solve_cg(self, rhs: np.ndarray) -> np.ndarray:
        fault_point("solver.cg", subject=self)
        solution, info = _cg(
            self._sparse_matrix, rhs, rtol=self.tol,
            maxiter=self.maxiter, M=self._preconditioner,
        )
        if info > 0:
            residual = float(np.linalg.norm(self._sparse_matrix @ solution - rhs))
            raise ConvergenceError(
                f"conjugate gradient did not converge within {info} iterations",
                iterations=int(info), residual=residual, rtol=self.tol,
            )
        if info < 0:
            raise ConvergenceError(
                "conjugate gradient received an illegal input",
                iterations=int(info), rtol=self.tol,
            )
        return solution


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
                              seed: Optional[int] = 0,
                              method: Union[SolverMethod, str] = SolverMethod.AUTO,
                              ) -> float:
    """Hutchinson estimator of ``Tr(A^{-1})`` using Rademacher probes.

    This is the conjugate-gradient-based evaluation route the paper uses to
    report CFCC values on graphs too large for exact inversion (Fig. 3).
    """
    if probes <= 0:
        raise InvalidParameterError(f"probes must be positive, got {probes}")
    solver = LaplacianSolver(matrix, method=method)
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random((solver.n, probes)) < 0.5, -1.0, 1.0)
    solved = solver.solve_many(signs)
    return float(np.mean(np.sum(signs * solved, axis=0)))
