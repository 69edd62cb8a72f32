"""ForestDelta's sampled gains rank candidates like the exact gains."""

from scipy.stats import kendalltau

from repro.centrality.estimators import SamplingConfig, estimate_forest_delta
from repro.centrality.marginal import marginal_gains_all


def top_candidates(gains, top):
    return set(sorted(gains, key=gains.get, reverse=True)[:top])


class TestEvaluationMetrics:
    def test_sampled_gains_rank_like_exact(self, karate):
        """Integration: ForestDelta's ranking agrees strongly with the exact gains."""
        group = [33]
        exact = marginal_gains_all(karate, group)
        config = SamplingConfig(eps=0.2, max_samples=400, max_jl_dimension=96)
        estimate, _ = estimate_forest_delta(karate, group, config, seed=9)
        common = sorted(set(exact) & set(estimate))
        tau, _ = kendalltau([exact[u] for u in common],
                            [estimate[u] for u in common])
        assert tau > 0.6
        recall = len(top_candidates(exact, 5) & top_candidates(estimate, 5)) / 5
        assert recall >= 0.6
