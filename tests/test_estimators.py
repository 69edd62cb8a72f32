"""Tests for the forest-sampling estimators (the statistical core of the paper)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.centrality.estimators import (
    ForestAccumulator,
    SamplingConfig,
    estimate_first_pick,
    estimate_forest_delta,
    estimate_schur_delta,
    rademacher_weights,
    run_adaptive_sampling,
    schur_reassembly,
)
from repro.centrality.marginal import marginal_gains_all
from repro.linalg.pseudoinverse import pseudoinverse_diagonal
from repro.linalg.schur import absorption_probabilities, grounded_inverse_block
from repro.linalg.updates import grounded_inverse


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert 0 < config.eps < 1
        assert config.max_samples >= config.min_samples

    def test_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(eps=0.0)
        with pytest.raises(InvalidParameterError):
            SamplingConfig(eps=1.5)

    def test_invalid_max_samples(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(max_samples=0)

    def test_jl_rows_scaling(self):
        config = SamplingConfig(eps=0.2, max_jl_dimension=1000, jl_constant=1.0)
        tighter = SamplingConfig(eps=0.1, max_jl_dimension=1000, jl_constant=1.0)
        assert tighter.jl_rows(500) > config.jl_rows(500)

    def test_jl_rows_capped(self):
        config = SamplingConfig(eps=0.15, max_jl_dimension=32)
        assert config.jl_rows(10_000) == 32

    def test_theoretical_constants_mode(self):
        config = SamplingConfig(eps=0.5, theoretical_constants=True)
        assert config.jl_rows(100) >= 24 * (0.5 / 7) ** -2 * np.log(100) - 1

    def test_sample_cap_bounded(self):
        config = SamplingConfig(eps=0.3, max_samples=100)
        assert config.sample_cap(1000) <= 100


class TestRademacherWeights:
    def test_shape_and_masking(self, rng):
        weights = rademacher_weights(8, 20, [3, 7], rng)
        assert weights.shape == (8, 20)
        assert np.all(weights[:, 3] == 0) and np.all(weights[:, 7] == 0)
        nonzero = weights[:, [c for c in range(20) if c not in (3, 7)]]
        assert np.allclose(np.abs(nonzero), 1.0 / np.sqrt(8))


class TestForestAccumulator:
    def test_diag_estimates_unbiased(self, karate):
        """Phi_{u,S}(u) converges to (inv(L_{-S}))_uu (Lemma 3.3)."""
        group = [0, 33]
        inverse, kept = grounded_inverse(karate, group)
        accumulator = ForestAccumulator(karate, group, seed=11)
        accumulator.add_samples(1500)
        estimates = accumulator.diag_estimates()
        relative = np.abs(estimates[kept] - np.diag(inverse)) / np.diag(inverse)
        assert relative.mean() < 0.08
        assert relative.max() < 0.35

    def test_projected_estimates_unbiased(self, karate):
        """Phi_{w,S}(u) converges to w^T inv(L_{-S}) e_u for fixed weights."""
        group = [0]
        inverse, kept = grounded_inverse(karate, group)
        weights = np.zeros((2, karate.n))
        weights[0, :] = 1.0
        weights[1, kept[5]] = 1.0
        accumulator = ForestAccumulator(karate, group, weights=weights, seed=13)
        accumulator.add_samples(1500)
        projected = accumulator.projected_estimates()

        exact_ones = np.ones(kept.size) @ inverse
        rel_ones = np.abs(projected[0][kept] - exact_ones) / np.abs(exact_ones)
        assert rel_ones.mean() < 0.08

        exact_row = inverse[5]
        rel_row = np.abs(projected[1][kept] - exact_row) / np.maximum(np.abs(exact_row), 1e-9)
        assert np.median(rel_row) < 0.25

    def test_diag_zero_on_roots(self, karate):
        accumulator = ForestAccumulator(karate, [0, 1], seed=0)
        accumulator.add_samples(20)
        estimates = accumulator.diag_estimates()
        assert estimates[0] == 0.0 and estimates[1] == 0.0

    def test_root_fractions_match_absorption(self, karate):
        grounded = [0]
        extras = [32, 33]
        exact, interior = absorption_probabilities(karate, grounded, extras)
        accumulator = ForestAccumulator(karate, grounded + extras,
                                        tracked_roots=extras, seed=5)
        accumulator.add_samples(1200)
        fractions = accumulator.root_fractions()
        observed = fractions[interior]
        assert np.max(np.abs(observed - exact)) < 0.1

    def test_requires_samples_before_results(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.diag_estimates()

    def test_tracked_roots_must_be_roots(self, karate):
        with pytest.raises(InvalidParameterError):
            ForestAccumulator(karate, [0], tracked_roots=[5], seed=0)

    def test_weights_shape_validated(self, karate):
        with pytest.raises(InvalidParameterError):
            ForestAccumulator(karate, [0], weights=np.ones((2, 7)), seed=0)


class TestAdaptiveSamplingLoop:
    def test_respects_cap(self, karate):
        config = SamplingConfig(eps=0.3, max_samples=40, min_samples=8, initial_batch=8)
        accumulator = ForestAccumulator(karate, [0], seed=1)
        diagnostics = run_adaptive_sampling(accumulator, config)
        assert diagnostics["samples"] <= 40
        assert accumulator.count == int(diagnostics["samples"])

    def test_early_stop_possible_on_easy_instance(self):
        star = generators.star_graph(30)
        config = SamplingConfig(eps=0.5, max_samples=4096, min_samples=8,
                                initial_batch=32)
        accumulator = ForestAccumulator(star, [0], seed=2)
        diagnostics = run_adaptive_sampling(accumulator, config)
        # eps, not max_samples, ends the round: 8 / 0.5^2 = 32 forests,
        # the first batch.
        assert diagnostics["stopped_early"] == 1.0
        assert diagnostics["samples"] == 32 == config.sample_cap(star.n)


class TestDeltaEstimators:
    def test_forest_delta_close_to_exact(self, small_ba):
        group = [int(np.argmax(small_ba.degrees))]
        exact = marginal_gains_all(small_ba, group)
        config = SamplingConfig(eps=0.2, max_samples=600, max_jl_dimension=128)
        estimates, diagnostics = estimate_forest_delta(small_ba, group, config, seed=3)
        assert set(estimates) == set(exact)
        relative = [abs(estimates[u] - exact[u]) / exact[u] for u in exact]
        assert np.mean(relative) < 0.35
        # The very top candidates must be ranked highly by the estimates.
        best_exact = max(exact, key=exact.get)
        ranked = sorted(estimates, key=estimates.get, reverse=True)
        assert best_exact in ranked[:10]

    def test_schur_delta_close_to_exact(self, small_ba):
        group = [int(np.argmax(small_ba.degrees))]
        extras = [int(v) for v in np.argsort(-small_ba.degrees)[1:5]]
        exact = marginal_gains_all(small_ba, group)
        config = SamplingConfig(eps=0.2, max_samples=600, max_jl_dimension=128)
        estimates, _ = estimate_schur_delta(small_ba, group, extras, config, seed=4)
        assert set(estimates) == set(exact)
        relative = [abs(estimates[u] - exact[u]) / exact[u] for u in exact]
        assert np.mean(relative) < 0.35
        best_exact = max(exact, key=exact.get)
        ranked = sorted(estimates, key=estimates.get, reverse=True)
        assert best_exact in ranked[:10]

    def test_schur_delta_without_extras_falls_back(self, small_ba):
        group = [0]
        config = SamplingConfig(eps=0.3, max_samples=64)
        gains, _ = estimate_schur_delta(small_ba, group, [0], config, seed=5)
        assert set(gains) == set(range(small_ba.n)) - {0}

    @pytest.mark.parametrize("group", [[0], [0, 5]])
    def test_schur_reassembly_is_exact_on_exact_blocks(self, hub_ba, group):
        """Fed the exact Eq. (11) blocks, the reassembly returns exactly
        ``W inv(L_{-S})`` and ``diag(inv(L_{-S}))``."""
        n = hub_ba.n
        extras = [int(v) for v in np.argsort(-hub_ba.degrees, kind="stable")
                  if v not in group][:3]
        blocks = grounded_inverse_block(hub_ba, group, extras)
        interior = blocks.interior
        weights = rademacher_weights(8, n, group, np.random.default_rng(0))
        projected = np.zeros((8, n))
        projected[:, interior] = weights[:, interior] @ blocks.inv_interior
        diagonal = np.zeros(n)
        diagonal[interior] = np.diag(blocks.inv_interior)
        fractions = np.zeros((n, len(extras)))
        fractions[interior] = blocks.absorption

        columns, diag = schur_reassembly(projected, diagonal, fractions,
                                         weights, extras, blocks.inv_schur)

        inverse, kept = grounded_inverse(hub_ba, group)
        expected_columns = np.zeros((8, n))
        expected_columns[:, kept] = weights[:, kept] @ inverse
        expected_diag = np.zeros(n)
        expected_diag[kept] = np.diag(inverse)
        np.testing.assert_allclose(columns, expected_columns, rtol=0, atol=1e-10)
        np.testing.assert_allclose(diag, expected_diag, rtol=0, atol=1e-10)

    def test_estimates_are_positive(self, small_ba):
        config = SamplingConfig(eps=0.3, max_samples=128)
        gains, _ = estimate_forest_delta(small_ba, [0], config, seed=6)
        assert all(value > 0 for value in gains.values())


class TestFirstPick:
    def test_first_pick_has_small_pseudoinverse_diagonal(self, karate):
        config = SamplingConfig(eps=0.2, max_samples=800)
        node, scores, _ = estimate_first_pick(karate, config, seed=7)
        diag = pseudoinverse_diagonal(karate)
        # The selected node must be among the best few nodes by exact L+_uu.
        order = np.argsort(diag)
        assert node in set(int(v) for v in order[:5])
        assert scores.shape == (karate.n,)
