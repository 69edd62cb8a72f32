"""Component benchmarks — the substrate costs behind the headline algorithms.

These micro-benchmarks expose where the time goes:

* Wilson forest sampling with a single root versus an enlarged root set —
  the mechanism behind SchurCFCM's speed advantage (Lemma 3.7);
* the per-sample estimator processing (subtree sums + BFS prefix sums);
* the Laplacian solver substrate used by the ApproxGreedy baseline;
* exact Schur-complement assembly versus its sampled counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.centrality.estimators import ForestAccumulator, rademacher_weights
from repro.linalg.laplacian import grounded_laplacian
from repro.linalg.schur import grounded_inverse_block
import repro.linalg.solvers as solvers_module
from repro.linalg.solvers import LaplacianSolver
from repro.linalg.updates import GroundedInverseTracker
from repro.sampling.wilson import sample_rooted_forest


@pytest.mark.benchmark(group="component-wilson")
class TestWilsonSampling:
    def test_single_root(self, benchmark, sparse_graph):
        hub = int(np.argmax(sparse_graph.degrees))
        benchmark(lambda: sample_rooted_forest(sparse_graph, [hub], seed=0))

    def test_enlarged_root_set(self, benchmark, sparse_graph):
        hubs = [int(v) for v in np.argsort(-sparse_graph.degrees)[:8]]
        benchmark(lambda: sample_rooted_forest(sparse_graph, hubs, seed=0))

    def test_dense_graph_single_root(self, benchmark, dense_graph):
        hub = int(np.argmax(dense_graph.degrees))
        benchmark(lambda: sample_rooted_forest(dense_graph, [hub], seed=0))


@pytest.mark.benchmark(group="component-estimator")
class TestEstimatorProcessing:
    def test_accumulate_batch_with_jl_weights(self, benchmark, sparse_graph, rng=None):
        hub = int(np.argmax(sparse_graph.degrees))
        weights = rademacher_weights(32, sparse_graph.n, [hub],
                                     np.random.default_rng(0))

        def run():
            accumulator = ForestAccumulator(sparse_graph, [hub], weights=weights,
                                            seed=1)
            accumulator.add_samples(8)
            return accumulator.diag_estimates()

        benchmark(run)


@pytest.mark.benchmark(group="component-solver")
class TestSolverSubstrate:
    def test_factor_and_solve(self, benchmark, sparse_graph):
        matrix, _ = grounded_laplacian(sparse_graph, [0])
        rhs = np.ones(matrix.shape[0])

        def run():
            solver = LaplacianSolver(matrix)
            return solver.solve(rhs)

        benchmark(run)

    def test_cg_solve(self, benchmark, sparse_graph, monkeypatch):
        def unavailable(matrix):
            raise RuntimeError("factorisation unavailable")

        # With factoring unavailable the solver falls back to CG.
        monkeypatch.setattr(solvers_module, "factorize_spd", unavailable)
        matrix, _ = grounded_laplacian(sparse_graph, [0])
        rhs = np.ones(matrix.shape[0])
        solver = LaplacianSolver(matrix)
        assert solver.solver_used == "cg"
        benchmark(lambda: solver.solve(rhs))

    def test_dense_inverse_downdate(self, benchmark, sparse_graph):
        tracker = GroundedInverseTracker(sparse_graph, [0])
        candidates = [v for v in range(1, sparse_graph.n)][:5]

        def run():
            local = GroundedInverseTracker(sparse_graph, [0])
            for node in candidates:
                local.add_node(node)
            return local.trace()

        benchmark(run)
        assert tracker.trace() > 0


@pytest.mark.benchmark(group="component-schur")
class TestSchurAssembly:
    def test_exact_block_decomposition(self, benchmark, smallworld_graph):
        hubs = [int(v) for v in np.argsort(-smallworld_graph.degrees)[:6]]
        benchmark(lambda: grounded_inverse_block(smallworld_graph, [hubs[0]], hubs[1:]))
