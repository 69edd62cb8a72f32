"""Tests for the selection-quality evaluation metrics."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.centrality.evaluation import (
    approximation_ratio,
    compare_methods,
    effectiveness_curve,
    group_overlap,
    ranking_agreement,
    relative_difference,
    top_candidate_recall,
)
from repro.centrality.estimators import SamplingConfig, estimate_forest_delta
from repro.centrality.exact_greedy import ExactGreedy
from repro.centrality.heuristics import degree_group
from repro.centrality.marginal import marginal_gains_all


class TestEvaluationMetrics:
    def test_relative_difference(self):
        assert relative_difference(2.0, 1.5) == pytest.approx(0.25)
        assert relative_difference(2.0, 2.5) == 0.0
        with pytest.raises(InvalidParameterError):
            relative_difference(0.0, 1.0)

    def test_approximation_ratio(self):
        assert approximation_ratio(4.0, 3.0) == pytest.approx(0.75)
        with pytest.raises(InvalidParameterError):
            approximation_ratio(0.0, 1.0)

    def test_group_overlap(self):
        assert group_overlap([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert group_overlap([], []) == 1.0
        assert group_overlap([1], [2]) == 0.0

    def test_ranking_agreement_perfect_and_reversed(self):
        reference = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        assert ranking_agreement(reference, reference) == pytest.approx(1.0)
        reversed_scores = {k: -v for k, v in reference.items()}
        assert ranking_agreement(reference, reversed_scores) == pytest.approx(-1.0)

    def test_ranking_agreement_requires_overlap(self):
        with pytest.raises(InvalidParameterError):
            ranking_agreement({1: 1.0}, {2: 2.0})

    def test_top_candidate_recall(self):
        reference = {i: float(i) for i in range(10)}
        estimate = {i: float(i) for i in range(10)}
        estimate[9], estimate[0] = 0.5, 9.5  # swap the best and the worst
        assert top_candidate_recall(reference, estimate, top=3) == pytest.approx(2 / 3)
        with pytest.raises(InvalidParameterError):
            top_candidate_recall(reference, estimate, top=0)

    def test_sampled_gains_rank_like_exact(self, karate):
        """Integration: ForestDelta's ranking agrees strongly with the exact gains."""
        group = [33]
        exact = marginal_gains_all(karate, group)
        config = SamplingConfig(eps=0.2, max_samples=400, max_jl_dimension=96)
        estimate, _ = estimate_forest_delta(karate, group, config, seed=9)
        assert ranking_agreement(exact, estimate) > 0.6
        assert top_candidate_recall(exact, estimate, top=5) >= 0.6

    def test_effectiveness_curve_monotone(self, small_ba):
        result = ExactGreedy(small_ba).run(4)
        curve = effectiveness_curve(small_ba, result)
        values = [curve[k] for k in sorted(curve)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_compare_methods_summary(self, karate):
        results = {
            "exact": ExactGreedy(karate).run(3),
            "degree": degree_group(karate, 3),
        }
        summary = compare_methods(karate, results, reference="exact")
        assert summary["exact"]["relative_difference"] == 0.0
        assert 0.0 <= summary["degree"]["overlap_with_reference"] <= 1.0

    def test_compare_methods_missing_reference(self, karate):
        with pytest.raises(InvalidParameterError):
            compare_methods(karate, {"degree": degree_group(karate, 2)},
                            reference="exact")
