"""Tests for JL dimensions, Schur complements, incidence factors and inverse updates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidParameterError
from repro.linalg.incidence import grounded_incidence_factor
from repro.linalg.jl import jl_dimension
from repro.linalg.laplacian import grounded_laplacian_dense
from repro.linalg.schur import (
    absorption_probabilities,
    grounded_inverse_block,
    schur_complement,
    schur_onto,
)
from repro.linalg.updates import (
    GroundedInverseTracker,
    grounded_inverse,
    grounded_inverse_downdate,
)


class TestJL:
    def test_dimension_formula(self):
        assert jl_dimension(1000, 0.5, constant=24.0) >= 24 * 4 * np.log(1000) - 1

    def test_dimension_clamped(self):
        assert jl_dimension(1000, 0.1, maximum=64) == 64
        assert jl_dimension(2, 0.9, minimum=5) >= 5

    def test_dimension_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            jl_dimension(10, 1.5)


class TestSchur:
    def test_schur_complement_identity_block(self):
        matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
        assert np.allclose(schur_complement(matrix, [0, 1]), matrix)

    def test_schur_complement_2x2(self):
        matrix = np.array([[2.0, -1.0], [-1.0, 2.0]])
        schur = schur_complement(matrix, [0])
        assert schur.shape == (1, 1)
        assert schur[0, 0] == pytest.approx(2.0 - 1.0 / 2.0)

    def test_schur_onto_is_laplacian(self, karate):
        keep = [0, 1, 2, 3, 33]
        schur = schur_onto(karate, keep)
        assert np.allclose(schur.sum(axis=1), 0.0, atol=1e-9)
        off_diag = schur - np.diag(np.diag(schur))
        assert np.all(off_diag <= 1e-12)

    def test_schur_inverse_is_submatrix_of_inverse(self, karate):
        """inv(S_T(L_{-S})) equals the T-block of inv(L_{-S}) (block-inverse identity)."""
        grounded = [0]
        boundary = [32, 33]
        dense, kept = grounded_laplacian_dense(karate, grounded)
        inverse = np.linalg.inv(dense)
        positions = [int(np.flatnonzero(kept == t)[0]) for t in boundary]
        block = grounded_inverse_block(karate, grounded, boundary)
        assert np.allclose(np.linalg.inv(block.schur),
                           inverse[np.ix_(positions, positions)], atol=1e-8)

    def test_lemma_4_3_consistency(self, karate):
        """S_T(L_{-S}) equals the Schur of L onto S ∪ T with S rows/cols removed."""
        grounded = [0, 1]
        boundary = [32, 33]
        block = grounded_inverse_block(karate, grounded, boundary)
        full_schur = schur_onto(karate, sorted(grounded + boundary))
        labels = sorted(grounded + boundary)
        keep_positions = [labels.index(t) for t in boundary]
        reduced = full_schur[np.ix_(keep_positions, keep_positions)]
        assert np.allclose(block.schur, reduced, atol=1e-9)

    def test_block_assembly_matches_direct_inverse(self, karate):
        grounded = [0]
        boundary = [33, 2]
        block = grounded_inverse_block(karate, grounded, boundary)
        assembled, labels = block.assemble()
        dense, kept = grounded_laplacian_dense(karate, grounded)
        inverse = np.linalg.inv(dense)
        positions = [int(np.flatnonzero(kept == v)[0]) for v in labels]
        assert np.allclose(assembled, inverse[np.ix_(positions, positions)], atol=1e-8)

    def test_absorption_probabilities_are_distributions(self, karate):
        absorption, interior = absorption_probabilities(karate, [0], [32, 33])
        assert absorption.shape == (interior.size, 2)
        assert np.all(absorption >= -1e-12)
        assert np.all(absorption.sum(axis=1) <= 1.0 + 1e-9)

    def test_overlapping_sets_rejected(self, karate):
        with pytest.raises(InvalidParameterError):
            grounded_inverse_block(karate, [0, 1], [1, 2])

    def test_empty_boundary_rejected(self, karate):
        with pytest.raises(InvalidParameterError):
            grounded_inverse_block(karate, [0], [])

    def test_schur_invalid_indices(self):
        with pytest.raises(InvalidParameterError):
            schur_complement(np.eye(3), [5])
        with pytest.raises(InvalidParameterError):
            schur_complement(np.eye(3), [])


class TestIncidence:
    def test_grounded_factorisation(self, karate):
        for group in ([0], [0, 33], [5, 10, 20]):
            factor, kept = grounded_incidence_factor(karate, group)
            dense, kept2 = grounded_laplacian_dense(karate, group)
            assert np.array_equal(kept, kept2)
            assert np.allclose((factor.T @ factor).toarray(), dense)

    def test_grounded_factor_star(self, star6):
        factor, kept = grounded_incidence_factor(star6, [0])
        dense, _ = grounded_laplacian_dense(star6, [0])
        assert np.allclose((factor.T @ factor).toarray(), dense)


class TestInverseUpdates:
    def test_downdate_matches_direct(self, karate):
        inverse, kept = grounded_inverse(karate, [0])
        local = 4
        downdated = grounded_inverse_downdate(inverse, local)
        removed_node = int(kept[local])
        direct, _ = grounded_inverse(karate, [0, removed_node])
        assert np.allclose(downdated, direct, atol=1e-8)

    def test_downdate_invalid_index(self):
        with pytest.raises(InvalidParameterError):
            grounded_inverse_downdate(np.eye(3), 5)

    def test_downdate_requires_square(self):
        with pytest.raises(InvalidParameterError):
            grounded_inverse_downdate(np.ones((2, 3)), 0)

    def test_tracker_matches_direct_inverse(self, small_ba):
        tracker = GroundedInverseTracker(small_ba, [0])
        for node in (3, 11, 25):
            tracker.add_node(node)
            direct, kept = grounded_inverse(small_ba, tracker.group)
            assert np.array_equal(tracker.kept, kept)
            assert np.allclose(tracker.inverse, direct, atol=1e-7)

    def test_tracker_trace_decreases(self, small_ba):
        tracker = GroundedInverseTracker(small_ba, [0])
        previous = tracker.trace()
        for node in (5, 9):
            tracker.add_node(node)
            assert tracker.trace() < previous
            previous = tracker.trace()

    def test_tracker_rejects_grounded_node(self, small_ba):
        tracker = GroundedInverseTracker(small_ba, [0])
        with pytest.raises(InvalidParameterError):
            tracker.local_index(0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=100))
def test_downdate_property(n, seed):
    """Downdating a random SPD matrix matches removing the row/column first."""
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(n, n))
    spd = factor @ factor.T + n * np.eye(n)
    inverse = np.linalg.inv(spd)
    index = int(rng.integers(0, n))
    keep = [i for i in range(n) if i != index]
    expected = np.linalg.inv(spd[np.ix_(keep, keep)])
    assert np.allclose(grounded_inverse_downdate(inverse, index), expected, atol=1e-6)
