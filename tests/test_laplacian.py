"""Tests for Laplacian construction and grounded Laplacians."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.linalg.laplacian import (
    complement_indices,
    grounded_laplacian,
    grounded_laplacian_dense,
    grounded_transition_matrix,
    laplacian_dense,
    laplacian_matrix,
    transition_matrix,
)


def assert_sdd(matrix):
    """Symmetric and (weakly) diagonally dominant."""
    assert np.allclose(matrix, matrix.T)
    off_diagonal = np.abs(matrix).sum(axis=1) - np.abs(np.diag(matrix))
    assert np.all(np.diag(matrix) + 1e-9 >= off_diagonal)


class TestLaplacian:
    def test_row_sums_zero(self, karate):
        laplacian = laplacian_dense(karate)
        assert np.allclose(laplacian.sum(axis=1), 0.0)

    def test_diagonal_is_degree(self, karate):
        laplacian = laplacian_dense(karate)
        assert np.allclose(np.diag(laplacian), karate.degrees)

    def test_symmetric(self, karate):
        laplacian = laplacian_dense(karate)
        assert np.allclose(laplacian, laplacian.T)

    def test_positive_semidefinite(self, karate):
        eigenvalues = np.linalg.eigvalsh(laplacian_dense(karate))
        assert eigenvalues.min() >= -1e-9

    def test_connected_graph_has_one_zero_eigenvalue(self, karate):
        eigenvalues = np.linalg.eigvalsh(laplacian_dense(karate))
        assert np.sum(np.abs(eigenvalues) < 1e-8) == 1

    def test_sparse_dense_agree(self, small_ba):
        assert np.allclose(laplacian_matrix(small_ba).toarray(),
                           laplacian_dense(small_ba))

    def test_is_sdd(self, karate):
        assert_sdd(laplacian_dense(karate))


class TestGroundedLaplacian:
    def test_shape(self, karate):
        matrix, kept = grounded_laplacian(karate, [0, 33])
        assert matrix.shape == (32, 32)
        assert kept.size == 32
        assert 0 not in kept and 33 not in kept

    def test_entries_match_full_laplacian(self, karate):
        full = laplacian_dense(karate)
        reduced, kept = grounded_laplacian_dense(karate, [3, 5])
        assert np.allclose(reduced, full[np.ix_(kept, kept)])

    def test_positive_definite(self, karate):
        reduced, _ = grounded_laplacian_dense(karate, [0])
        eigenvalues = np.linalg.eigvalsh(reduced)
        assert eigenvalues.min() > 0

    def test_still_sdd(self, karate):
        reduced, _ = grounded_laplacian_dense(karate, [2, 7])
        assert_sdd(reduced)

    def test_rejects_empty_group(self, karate):
        with pytest.raises(InvalidParameterError):
            grounded_laplacian(karate, [])

    def test_rejects_duplicates(self, karate):
        with pytest.raises(InvalidParameterError):
            grounded_laplacian(karate, [1, 1])

    def test_rejects_full_group(self, path4):
        with pytest.raises(InvalidParameterError):
            grounded_laplacian(path4, [0, 1, 2, 3])

    def test_complement_indices(self):
        assert complement_indices(5, [1, 3]).tolist() == [0, 2, 4]


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, karate):
        transition = transition_matrix(karate).toarray()
        assert np.allclose(transition.sum(axis=1), 1.0)

    def test_entries(self, star6):
        transition = transition_matrix(star6).toarray()
        assert transition[1, 0] == pytest.approx(1.0)
        assert transition[0, 1] == pytest.approx(1.0 / 5.0)

    def test_grounded_transition_substochastic(self, karate):
        reduced, kept = grounded_transition_matrix(karate, [0])
        sums = np.asarray(reduced.sum(axis=1)).ravel()
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.any(sums < 1.0)
        assert kept.size == karate.n - 1

    def test_grounded_spectral_radius_below_one(self, small_ba):
        reduced, _ = grounded_transition_matrix(small_ba, [0, 1])
        radius = np.max(np.abs(np.linalg.eigvals(reduced.toarray())))
        assert radius < 1.0
