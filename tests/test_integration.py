"""End-to-end integration tests spanning several subsystems.

These tests exercise the full pipeline the paper's experiments rely on —
generate a graph, run every algorithm, evaluate the objective exactly — and
assert the *qualitative shapes* of the evaluation section at miniature scale:

* every greedy method lands close to the exact greedy (Fig. 2);
* the sampling methods' per-iteration work responds to eps (Fig. 4);
* SchurCFCM samples cheaper forests than ForestCFCM (Lemma 3.7 rationale);
* the reciprocal objective is monotone and supermodular, the property that
  underpins the approximation guarantee.
"""

import numpy as np
import pytest

import repro
from repro.centrality.absorbing import expected_wilson_visits
from repro.centrality.estimators import SamplingConfig
from repro.graph import generators


@pytest.fixture(scope="module")
def workload():
    """A 150-node scale-free workload shared by the integration tests."""
    return generators.powerlaw_cluster(150, 3, 0.3, seed=99)


@pytest.fixture(scope="module")
def exact_reference(workload):
    return repro.ExactGreedy(workload).run(6)


class TestEndToEndPipeline:
    def test_all_methods_close_to_exact(self, workload, exact_reference):
        exact_value = repro.group_cfcc(workload, exact_reference.group)
        config = SamplingConfig(eps=0.25, max_samples=256)
        for method in ("approx", "forest", "schur"):
            result = repro.maximize_cfcc(workload, 6, method=method, eps=0.25,
                                         seed=11, config=config if method != "approx" else None)
            value = repro.group_cfcc(workload, result.group)
            assert value >= 0.85 * exact_value, method

    def test_greedy_beats_heuristics(self, workload, exact_reference):
        exact_value = repro.group_cfcc(workload, exact_reference.group)
        degree_value = repro.group_cfcc(workload, repro.degree_group(workload, 6).group)
        top_value = repro.group_cfcc(workload, repro.top_cfcc_group(workload, 6).group)
        assert exact_value >= degree_value - 1e-9
        assert exact_value >= top_value - 1e-9

    def test_schur_samples_cheaper_forests(self, workload):
        """Adding the auxiliary hub roots lowers the expected walk length."""
        hub = int(np.argmax(workload.degrees))
        base = expected_wilson_visits(workload, [hub])
        extras = repro.SchurCFCM(workload, seed=0).extra_roots
        enlarged = expected_wilson_visits(workload, sorted(set([hub] + extras)))
        assert enlarged <= base

    def test_smaller_eps_means_more_work(self, workload):
        loose = SamplingConfig(eps=0.4, max_samples=4096,
                               max_jl_dimension=128)
        tight = SamplingConfig(eps=0.15, max_samples=4096,
                               max_jl_dimension=128)
        assert tight.jl_rows(workload.n) > loose.jl_rows(workload.n)
        loose_run = repro.ForestCFCM(workload, seed=5, config=loose).run(2)
        tight_run = repro.ForestCFCM(workload, seed=5, config=tight).run(2)
        drawn = [sum(entry["samples"] for entry in run.iteration_log)
                 for run in (loose_run, tight_run)]
        assert drawn[1] >= drawn[0]

    def test_objective_monotone_supermodular_along_greedy_path(self, workload,
                                                               exact_reference):
        """Tr(inv(L_{-S})) decreases along the greedy path with shrinking drops."""
        traces = [repro.grounded_trace(workload, exact_reference.prefix(k))
                  for k in range(1, 7)]
        drops = [a - b for a, b in zip(traces, traces[1:])]
        assert all(d > 0 for d in drops)
        # Supermodularity implies the greedy drops are non-increasing.
        assert all(d1 >= d2 - 1e-6 for d1, d2 in zip(drops, drops[1:]))

    def test_result_round_trip_through_evaluation(self, workload, exact_reference):
        exact_value = repro.group_cfcc(workload, exact_reference.group)
        # Fig. 5's relative difference of the exact group to itself.
        again = repro.group_cfcc(workload, list(exact_reference.group))
        assert max(0.0, (exact_value - again) / exact_value) == 0.0
        degree = repro.degree_group(workload, 6)
        assert repro.group_cfcc(workload, degree.group) <= exact_value + 1e-9


class TestCrossValidationWithNetworkx:
    def test_group_cfcc_against_networkx_substrate(self, workload):
        """Independent evaluation of C(S) through networkx's dense pinv."""
        import networkx as nx
        from repro.graph.builders import to_networkx

        group = [0, 1, 2]
        nx_graph = to_networkx(workload)
        laplacian = nx.laplacian_matrix(nx_graph).toarray().astype(float)
        keep = [v for v in range(workload.n) if v not in group]
        reference = workload.n / np.trace(np.linalg.inv(laplacian[np.ix_(keep, keep)]))
        assert repro.group_cfcc(workload, group) == pytest.approx(reference, rel=1e-9)
