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
        One of :class:`SolverMethod`; ``AUTO`` selects dense Cholesky below
        ``dense_threshold`` unknowns and ``SPARSE_LU`` otherwise.
        ``SPARSE_LU`` factors through
        :func:`repro.linalg.factor.factorize_spd` (a dense-Cholesky hub core
        on hub-heavy patterns, symmetric-mode SuperLU otherwise).
    tol:
        Relative residual tolerance for the CG method.
    maxiter:
        CG iteration cap (``None`` lets scipy pick ``10 n``).
    preconditioner:
        Optional pre-built preconditioner for the CG method (e.g. from
        :class:`PreconditionerCache`); when omitted a Jacobi preconditioner
        is built from the matrix diagonal.
    """

    def __init__(self, matrix: Matrix,
                 method: Union[SolverMethod, str] = SolverMethod.AUTO,
                 tol: float = 1e-10,
                 maxiter: Optional[int] = None,
                 dense_threshold: int = 600,
                 preconditioner: Optional[spla.LinearOperator] = None):
        method = SolverMethod(method)
        self.tol = float(tol)
        self.maxiter = maxiter
        self._n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError("solver matrix must be square")

        if method is SolverMethod.AUTO:
            method = (SolverMethod.DENSE_CHOLESKY if self._n <= dense_threshold
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
            if preconditioner is not None:
                self._preconditioner = preconditioner
            else:
                self._preconditioner = build_preconditioner(sparse, kind="jacobi")
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


def build_preconditioner(matrix: Matrix, kind: str = "jacobi",
                         drop_tol: float = 1e-4,
                         fill_factor: float = 10.0) -> spla.LinearOperator:
    """Build a CG preconditioner for an SPD (grounded-Laplacian) matrix.

    ``kind`` is ``"jacobi"`` (inverse diagonal — cheap, always applicable to
    grounded Laplacians) or ``"ilu"`` (incomplete LU via ``spilu`` — costlier
    to build, stronger on ill-conditioned systems).
    """
    kind = str(kind).lower()
    if kind == "jacobi":
        sparse = matrix if sp.issparse(matrix) else sp.csr_matrix(matrix)
        diagonal = np.asarray(sparse.diagonal(), dtype=np.float64)
        if np.any(diagonal <= 0):
            raise InvalidParameterError(
                "CG with Jacobi preconditioning requires positive diagonal entries"
            )
        inverse_diag = 1.0 / diagonal
        return spla.LinearOperator(sparse.shape, matvec=lambda x: inverse_diag * x)
    if kind == "ilu":
        sparse = sp.csc_matrix(matrix, dtype=np.float64)
        factor = spla.spilu(sparse, drop_tol=drop_tol, fill_factor=fill_factor)
        return spla.LinearOperator(sparse.shape, matvec=factor.solve)
    raise InvalidParameterError(
        f"preconditioner kind must be 'jacobi' or 'ilu', got {kind!r}"
    )


class PreconditionerCache:
    """Reuse a preconditioner across repeated solves on one matrix version.

    Iterative callers (the sparse resistance backend, repeated
    ``solve_grounded`` sweeps) re-solve against the same matrix many times
    between mutations.  Keyed on a caller-supplied version counter (plus the
    system size, so stale versions of a *different* matrix never alias), the
    cache rebuilds the preconditioner only when the version moves on.
    """

    def __init__(self, kind: str = "jacobi", drop_tol: float = 1e-4,
                 fill_factor: float = 10.0):
        if str(kind).lower() not in ("jacobi", "ilu"):
            raise InvalidParameterError(
                f"preconditioner kind must be 'jacobi' or 'ilu', got {kind!r}"
            )
        self.kind = str(kind).lower()
        self.drop_tol = float(drop_tol)
        self.fill_factor = float(fill_factor)
        self._key: Optional[tuple] = None
        self._operator: Optional[spla.LinearOperator] = None
        #: Cache statistics, for tests and tuning.
        self.builds = 0
        self.hits = 0

    def get(self, matrix: Matrix, version: int) -> spla.LinearOperator:
        """The preconditioner for ``matrix`` at ``version`` (cached if fresh)."""
        key = (int(version), int(matrix.shape[0]))
        if self._operator is not None and self._key == key:
            self.hits += 1
            return self._operator
        self._operator = build_preconditioner(
            matrix, kind=self.kind,
            drop_tol=self.drop_tol, fill_factor=self.fill_factor,
        )
        self._key = key
        self.builds += 1
        return self._operator

    def invalidate(self) -> None:
        """Drop the cached operator (next ``get`` rebuilds)."""
        self._key = None
        self._operator = None


def solve_grounded(matrix: Matrix, rhs: np.ndarray,
                   method: Union[SolverMethod, str] = SolverMethod.AUTO,
                   rtol: float = 1e-10,
                   maxiter: Optional[int] = None,
                   preconditioner: Optional[spla.LinearOperator] = None,
                   ) -> np.ndarray:
    """One-shot convenience wrapper: factor ``matrix`` and solve for ``rhs``.

    ``rtol``/``maxiter``/``preconditioner`` reach the CG method when it is
    selected; the direct methods ignore them.
    """
    solver = LaplacianSolver(matrix, method=method, tol=rtol, maxiter=maxiter,
                             preconditioner=preconditioner)
    return solver.solve(np.asarray(rhs, float))


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
