"""Tests for the grounded-Laplacian solve policy (repro.linalg.solvers)."""

import numpy as np
import pytest

import repro.linalg.solvers as solvers_module
from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.graph import generators
from repro.linalg.laplacian import grounded_laplacian, grounded_laplacian_dense
from repro.linalg.solvers import (
    SOLVE_BLOCK,
    LaplacianSolver,
    estimate_trace_of_inverse,
)


@pytest.fixture
def grounded_system(karate):
    matrix, kept = grounded_laplacian(karate, [0])
    dense, _ = grounded_laplacian_dense(karate, [0])
    rhs = np.linspace(-1.0, 1.0, kept.size)
    reference = np.linalg.solve(dense, rhs)
    return matrix, rhs, reference


@pytest.fixture
def unfactorable(monkeypatch):
    """Make every factorisation raise, so solvers fall back to CG."""
    def unavailable(matrix):
        raise RuntimeError("factorisation unavailable")

    monkeypatch.setattr(solvers_module, "factorize_spd", unavailable)


@pytest.fixture(params=["sparse_lu", "cg"])
def solver_path(request):
    """The factored solver, and the CG fallback taken when factoring fails."""
    if request.param == "cg":
        request.getfixturevalue("unfactorable")
    return request.param


class TestSolveMethods:
    def test_single_rhs(self, grounded_system, solver_path):
        matrix, rhs, reference = grounded_system
        solver = LaplacianSolver(matrix)
        assert solver.solver_used == ("cg" if solver_path == "cg" else "splu")
        assert np.allclose(solver.solve(rhs), reference, atol=1e-6)

    def test_multiple_rhs(self, grounded_system, solver_path):
        matrix, rhs, reference = grounded_system
        block = np.stack([rhs, 2.0 * rhs], axis=1)
        solver = LaplacianSolver(matrix)
        solved = solver.solve_many(block)
        assert solved.shape == block.shape
        assert np.allclose(solved[:, 0], reference, atol=1e-6)
        assert np.allclose(solved[:, 1], 2.0 * reference, atol=1e-6)

    def test_small_system_is_factored(self, grounded_system):
        # Small systems get the same sparse factor as large ones, and CG
        # runs only when factoring fails.
        matrix, _, _ = grounded_system
        assert matrix.shape[0] <= 600
        solver = LaplacianSolver(matrix)
        assert solver.solver_used in ("hub_core", "splu")
        assert solver.factor is not None


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

    def test_cg_requires_positive_diagonal(self):
        # Singular, so SuperLU raises and the CG fallback's Jacobi
        # preconditioner meets the zero pivot.
        bad = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            LaplacianSolver(bad)

    def test_cg_iteration_cap(self, grounded_system, unfactorable,
                              monkeypatch):
        monkeypatch.setattr(solvers_module, "CG_MAXITER", 1)
        matrix, rhs, _ = grounded_system
        solver = LaplacianSolver(matrix)
        with pytest.raises(ConvergenceError) as excinfo:
            solver.solve(rhs)
        assert excinfo.value.iterations == 1
        assert excinfo.value.rtol == solvers_module.CG_TOLERANCE


class TestTraceEstimation:
    def test_diagonal_of_inverse(self, karate):
        matrix, _ = grounded_laplacian(karate, [0])
        dense, _ = grounded_laplacian_dense(karate, [0])
        solver = LaplacianSolver(matrix)
        assert np.allclose(solver.diagonal_of_inverse(),
                           np.diag(np.linalg.inv(dense)), atol=1e-8)

    def test_diagonal_of_inverse_spans_several_blocks(self):
        graph = generators.barabasi_albert(2 * SOLVE_BLOCK + 40, 2, seed=3)
        matrix, _ = grounded_laplacian(graph, [0])
        dense, _ = grounded_laplacian_dense(graph, [0])
        assert matrix.shape[0] > 2 * SOLVE_BLOCK
        np.testing.assert_allclose(
            LaplacianSolver(matrix).diagonal_of_inverse(),
            np.diag(np.linalg.inv(dense)), rtol=1e-10, atol=0)

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
