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
)
from repro.centrality.marginal import marginal_gains_all
from repro.linalg.pseudoinverse import pseudoinverse_diagonal
from repro.linalg.schur import absorption_probabilities
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

    def test_invalid_delta(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(delta=0.0)

    def test_invalid_max_samples(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(max_samples=0)

    def test_failure_probability_default(self):
        assert SamplingConfig().failure_probability(100) == pytest.approx(0.01)
        assert SamplingConfig(delta=0.2).failure_probability(100) == pytest.approx(0.2)

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

    def test_half_widths_shrink(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=3)
        accumulator.add_samples(50)
        wide = accumulator.diag_half_widths(0.05).mean()
        accumulator.add_samples(450)
        narrow = accumulator.diag_half_widths(0.05).mean()
        assert narrow < wide
        # Lemma 3.6's empirical-Bernstein half-width, with the per-sample
        # range bounded by the BFS depth tau.
        delta = 0.05
        log_term = np.log(3.0 / delta)
        expected = (np.sqrt(2.0 * accumulator.diag_variances() * log_term
                            / accumulator.count)
                    + 3.0 * max(accumulator.tau, 1) * log_term
                    / accumulator.count)
        assert np.allclose(accumulator.diag_half_widths(delta), expected,
                           rtol=1e-12, atol=0.0)


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
        # Star rooted at the hub: every estimate is deterministic (variance 0),
        # so the Bernstein rule must fire long before the cap.
        assert diagnostics["stopped_early"] == 1.0
        assert diagnostics["samples"] < 4096


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

    def test_first_pick_anchor_override(self, karate):
        config = SamplingConfig(eps=0.3, max_samples=64)
        node, _, diagnostics = estimate_first_pick(karate, config, seed=8, anchor=5)
        assert 0 <= node < karate.n
        assert diagnostics["samples"] > 0
