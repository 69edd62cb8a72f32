"""Tests for the Laplacian / SDD solver substrate."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.graph import generators
from repro.linalg.laplacian import grounded_laplacian, grounded_laplacian_dense
from repro.linalg.solvers import (
    LaplacianSolver,
    SolverMethod,
    estimate_trace_of_inverse,
)


@pytest.fixture
def grounded_system(karate):
    matrix, kept = grounded_laplacian(karate, [0])
    dense, _ = grounded_laplacian_dense(karate, [0])
    rhs = np.linspace(-1.0, 1.0, kept.size)
    reference = np.linalg.solve(dense, rhs)
    return matrix, rhs, reference


class TestSolveMethods:
    @pytest.mark.parametrize("method", [
        SolverMethod.DENSE_CHOLESKY,
        SolverMethod.SPARSE_LU,
        SolverMethod.CONJUGATE_GRADIENT,
    ])
    def test_single_rhs(self, grounded_system, method):
        matrix, rhs, reference = grounded_system
        solver = LaplacianSolver(matrix, method=method)
        assert np.allclose(solver.solve(rhs), reference, atol=1e-6)

    @pytest.mark.parametrize("method", [
        SolverMethod.DENSE_CHOLESKY,
        SolverMethod.SPARSE_LU,
        SolverMethod.CONJUGATE_GRADIENT,
    ])
    def test_multiple_rhs(self, grounded_system, method):
        matrix, rhs, reference = grounded_system
        block = np.stack([rhs, 2.0 * rhs], axis=1)
        solver = LaplacianSolver(matrix, method=method)
        solved = solver.solve_many(block)
        assert solved.shape == block.shape
        assert np.allclose(solved[:, 0], reference, atol=1e-6)
        assert np.allclose(solved[:, 1], 2.0 * reference, atol=1e-6)

    def test_string_method_accepted(self, grounded_system):
        matrix, rhs, reference = grounded_system
        solver = LaplacianSolver(matrix, method="cg")
        assert np.allclose(solver.solve(rhs), reference, atol=1e-6)

    def test_auto_small_uses_dense(self, grounded_system):
        matrix, _, _ = grounded_system
        solver = LaplacianSolver(matrix, method=SolverMethod.AUTO)
        assert solver.method is SolverMethod.DENSE_CHOLESKY

    def test_auto_large_uses_sparse(self):
        graph = generators.barabasi_albert(800, 2, seed=0)
        matrix, _ = grounded_laplacian(graph, [0])
        solver = LaplacianSolver(matrix, method=SolverMethod.AUTO)
        assert solver.method is SolverMethod.SPARSE_LU


class TestValidation:
    def test_wrong_rhs_shape(self, grounded_system):
        matrix, _, _ = grounded_system
        solver = LaplacianSolver(matrix)
        with pytest.raises(InvalidParameterError):
            solver.solve(np.ones(3))

    def test_wrong_block_shape(self, grounded_system):
        matrix, _, _ = grounded_system
        solver = LaplacianSolver(matrix)
        with pytest.raises(InvalidParameterError):
            solver.solve_many(np.ones((3, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameterError):
            LaplacianSolver(np.ones((2, 3)))

    def test_indefinite_matrix_rejected_by_cholesky(self):
        indefinite = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            LaplacianSolver(indefinite, method=SolverMethod.DENSE_CHOLESKY)

    def test_cg_requires_positive_diagonal(self):
        bad = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            LaplacianSolver(bad, method=SolverMethod.CONJUGATE_GRADIENT)

    def test_cg_iteration_cap(self, grounded_system):
        matrix, rhs, _ = grounded_system
        solver = LaplacianSolver(matrix, method=SolverMethod.CONJUGATE_GRADIENT,
                                 maxiter=1, tol=1e-14)
        with pytest.raises(ConvergenceError):
            solver.solve(rhs)


class TestTraceEstimation:
    def test_diagonal_of_inverse(self, karate):
        matrix, _ = grounded_laplacian(karate, [0])
        dense, _ = grounded_laplacian_dense(karate, [0])
        solver = LaplacianSolver(matrix)
        assert np.allclose(solver.diagonal_of_inverse(),
                           np.diag(np.linalg.inv(dense)), atol=1e-8)

    def test_trace_of_inverse(self, karate):
        matrix, _ = grounded_laplacian(karate, [5])
        dense, _ = grounded_laplacian_dense(karate, [5])
        solver = LaplacianSolver(matrix)
        assert solver.trace_of_inverse() == pytest.approx(
            np.trace(np.linalg.inv(dense)), rel=1e-9
        )

    def test_hutchinson_estimate_within_tolerance(self, medium_ba):
        matrix, _ = grounded_laplacian(medium_ba, [0, 1])
        dense, _ = grounded_laplacian_dense(medium_ba, [0, 1])
        exact = float(np.trace(np.linalg.inv(dense)))
        estimate = estimate_trace_of_inverse(matrix, probes=256, seed=1)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_hutchinson_rejects_zero_probes(self, karate):
        matrix, _ = grounded_laplacian(karate, [0])
        with pytest.raises(InvalidParameterError):
            estimate_trace_of_inverse(matrix, probes=0)
