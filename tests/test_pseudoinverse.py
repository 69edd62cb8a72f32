"""Tests for the Laplacian pseudoinverse and resistance-distance identities."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import generators
from repro.graph.builders import to_networkx
from repro.linalg.laplacian import laplacian_dense
from repro.linalg.pseudoinverse import (
    effective_resistance_matrix,
    kirchhoff_index,
    laplacian_pseudoinverse,
    pseudoinverse_diagonal,
    pseudoinverse_diagonal_grounded,
)


class TestPseudoinverse:
    def test_moore_penrose_identity(self, karate):
        laplacian = laplacian_dense(karate)
        pinv = laplacian_pseudoinverse(karate)
        assert np.allclose(laplacian @ pinv @ laplacian, laplacian, atol=1e-7)
        assert np.allclose(pinv @ laplacian @ pinv, pinv, atol=1e-9)

    def test_symmetry(self, karate):
        pinv = laplacian_pseudoinverse(karate)
        assert np.allclose(pinv, pinv.T)

    def test_row_sums_zero(self, karate):
        pinv = laplacian_pseudoinverse(karate)
        assert np.allclose(pinv.sum(axis=1), 0.0, atol=1e-9)

    def test_matches_numpy_pinv(self, small_ba):
        ours = laplacian_pseudoinverse(small_ba)
        reference = np.linalg.pinv(laplacian_dense(small_ba))
        assert np.allclose(ours, reference, atol=1e-7)

    def test_diagonal_positive(self, karate):
        assert np.all(pseudoinverse_diagonal(karate) > 0)

    def test_grounded_reformulation_matches(self, karate):
        """Lemma 3.5: L+ diagonal recovered from the grounded inverse."""
        direct = pseudoinverse_diagonal(karate)
        for anchor in (0, 33, 12):
            via_grounded = pseudoinverse_diagonal_grounded(karate, anchor)
            assert np.allclose(via_grounded, direct, atol=1e-8)


class TestResistanceIdentities:
    def test_resistance_matrix_matches_networkx(self, karate):
        ours = effective_resistance_matrix(karate)
        nx_graph = to_networkx(karate)
        for u, v in [(0, 1), (0, 33), (5, 20), (14, 15)]:
            reference = nx.resistance_distance(nx_graph, u, v)
            assert ours[u, v] == pytest.approx(reference, rel=1e-6)

    def test_resistance_matrix_zero_diagonal(self, karate):
        ours = effective_resistance_matrix(karate)
        assert np.allclose(np.diag(ours), 0.0, atol=1e-9)

    def test_path_graph_resistance_is_distance(self):
        path = generators.path_graph(6)
        resistances = effective_resistance_matrix(path)
        for u in range(6):
            for v in range(6):
                assert resistances[u, v] == pytest.approx(abs(u - v), abs=1e-8)

    def test_kirchhoff_index_complete_graph(self):
        # For K_n all pairwise resistances equal 2/n, so Kf = n(n-1)/2 * 2/n = n - 1.
        n = 8
        complete = generators.complete_graph(n)
        total_resistance = effective_resistance_matrix(complete).sum() / 2.0
        assert total_resistance == pytest.approx(n - 1, rel=1e-9)
        assert kirchhoff_index(complete) == pytest.approx(n - 1, rel=1e-9)

    def test_kirchhoff_index_equals_resistance_sum(self, small_ba):
        total_resistance = effective_resistance_matrix(small_ba).sum() / 2.0
        assert kirchhoff_index(small_ba) == pytest.approx(total_resistance, rel=1e-8)
