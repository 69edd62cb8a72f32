"""Tests for the lockstep vectorised forest sampler and ForestBatch kernels.

Covers the three contracts the batch sampler must honour:

* **Scalar regression** — the scalar sampler's fixed-seed output is locked,
  so vectorisation refactors cannot silently change the reference stream.
* **Structural equivalence** — every batched derived quantity (``root_of``,
  ``depths``, ``preorder``, ``subtree_sums``, ``tree_sizes``) matches the
  per-forest :class:`repro.sampling.Forest` computation, also after
  ``select``/``with_leaf``, and the accumulator's batched fold reproduces
  the per-forest fold.
* **Distributional equivalence** — a chi-square test checks the lockstep
  sampler's empirical root distribution against the exact absorption matrix
  of Lemma 4.2, at the same thresholds the scalar sampler is held to.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.sampling.batch as batch_module
from repro.centrality.estimators import ForestAccumulator, rademacher_weights
from repro.exceptions import DisconnectedGraphError, GraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.linalg.schur import absorption_probabilities
from repro.sampling import (
    Forest,
    ForestBatch,
    sample_forest_batch_vectorized,
    sample_rooted_forest,
)
from repro.sampling.wilson import empirical_root_distribution

# Fixed-seed output of the scalar sampler on karate with roots={0}, seed=123.
# The lockstep kernel reuses scalar building blocks (e.g. the scalar finish);
# this regression pins the reference stream those blocks are validated against.
KARATE_SCALAR_PARENT_SEED123 = [
    -1, 19, 3, 1, 0, 16, 4, 3, 33, 33, 4, 0, 0, 3, 33, 32, 6, 0, 32, 0, 33, 0,
    32, 25, 31, 24, 33, 33, 33, 23, 1, 33, 30, 22,
]


class TestScalarRegression:
    def test_fixed_seed_output_locked(self, karate):
        forest = sample_rooted_forest(karate, [0], seed=123)
        assert forest.parent.tolist() == KARATE_SCALAR_PARENT_SEED123

    def test_forest_helpers_match_bruteforce(self, karate):
        forest = sample_rooted_forest(karate, [0, 33], seed=7)
        sizes = forest.tree_sizes()
        root_of = forest.root_of()
        for root in (0, 33):
            assert sizes[root] == int(np.sum(root_of == root))
        tin, tout = forest.euler_intervals()
        for node in range(karate.n):
            path = set(forest.path_to_root(node))
            for candidate in range(karate.n):
                assert forest.is_ancestor(candidate, node) == (candidate in path)


class TestLockstepValidity:
    def test_batch_forests_are_valid(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0, 33], 16, seed=0)
        assert batch.batch_size == 16 and batch.n == karate.n
        for forest in batch:
            forest.validate_against(karate)
        assert np.all(batch.tree_sizes().sum(axis=1) == karate.n)

    def test_reproducible_and_seed_sensitive(self, karate):
        a = sample_forest_batch_vectorized(karate, [0], 8, seed=42)
        b = sample_forest_batch_vectorized(karate, [0], 8, seed=42)
        c = sample_forest_batch_vectorized(karate, [0], 8, seed=43)
        assert np.array_equal(a.parent, b.parent)
        assert not np.array_equal(a.parent, c.parent)

    def test_samples_within_batch_differ(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 8, seed=1)
        assert not all(
            np.array_equal(batch.parent[0], batch.parent[i]) for i in range(1, 8)
        )

    def test_tree_graph_recovered(self):
        tree = generators.random_tree(30, seed=3)
        batch = sample_forest_batch_vectorized(tree, [0], 6, seed=4)
        for b in range(6):
            for node in range(1, 30):
                assert tree.has_edge(node, int(batch.parent[b, node]))

    def test_slow_mixing_graph_still_correct(self):
        ring = generators.watts_strogatz(120, 4, 0.05, seed=9)
        batch = sample_forest_batch_vectorized(ring, [0], 8, seed=2)
        for forest in batch:
            forest.validate_against(ring)

    def test_empty_batch(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 0, seed=0)
        assert batch.batch_size == 0
        assert batch.forests() == []

    def test_invalid_inputs(self, karate):
        with pytest.raises(InvalidParameterError):
            sample_forest_batch_vectorized(karate, [], 4, seed=0)
        with pytest.raises(InvalidParameterError):
            sample_forest_batch_vectorized(karate, [0], -1, seed=0)

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            sample_forest_batch_vectorized(graph, [0], 4, seed=0)

    def test_internal_chunking_matches_single_chunk_shape(self, karate, monkeypatch):
        monkeypatch.setattr(batch_module, "LOCKSTEP_STATE_LIMIT", 3 * karate.n)
        batch = sample_forest_batch_vectorized(karate, [0], 10, seed=5)
        assert batch.batch_size == 10
        for forest in batch:
            forest.validate_against(karate)

    def test_oversized_graph_falls_back_to_scalar(self, karate, monkeypatch):
        monkeypatch.setattr(batch_module, "LOCKSTEP_STATE_LIMIT", karate.n - 1)
        batch = sample_forest_batch_vectorized(karate, [0, 33], 3, seed=6)
        assert batch.batch_size == 3
        for forest in batch:
            forest.validate_against(karate)


class TestForestBatchKernels:
    def test_derived_quantities_match_per_forest(self, karate):
        drawn = sample_forest_batch_vectorized(karate, [0, 33], 10, seed=3)
        primed = sample_forest_batch_vectorized(karate, [0, 33], 10, seed=3)
        # Prime every cache, so the derived batches must slice or drop them.
        primed.root_of()
        primed.preorder()
        leaf_parents = np.random.default_rng(4).integers(0, karate.n, 10)
        for batch in (drawn, primed.select(np.array([7, 2, 2, 9, 0])),
                      primed.with_leaf(leaf_parents)):
            self._assert_matches_per_forest(batch)

    @staticmethod
    def _assert_matches_per_forest(batch):
        weights = rademacher_weights(4, batch.n, [0, 33],
                                     np.random.default_rng(0))
        root_of = batch.root_of()
        depths = batch.depths()
        pre, size = batch.preorder()
        sums = batch.subtree_sums(weights)
        ones = batch.subtree_sums(np.ones(batch.n))
        sizes = batch.tree_sizes()
        for i in range(batch.batch_size):
            forest = Forest(parent=batch.parent[i].copy(),
                            roots=batch.roots.copy())
            assert np.array_equal(forest.root_of(), root_of[i])
            assert np.array_equal(forest.depths(), depths[i])
            # The preorder is the Euler tour's entry order, and a subtree
            # spans half the tour steps between entry and exit.
            tin, tout = forest.euler_intervals()
            assert np.array_equal(pre[i], np.argsort(np.argsort(tin)))
            assert np.array_equal(size[i], (tout - tin + 1) // 2)
            assert np.allclose(forest.subtree_sums(weights), sums[i])
            assert np.allclose(forest.subtree_sums(np.ones(batch.n)), ones[i])
            expected_sizes = forest.tree_sizes()
            for j, root in enumerate(batch.roots):
                assert int(sizes[i, j]) == expected_sizes[int(root)]

    def test_subtree_sums_at_pairs_match_full(self, karate, monkeypatch):
        batch = sample_forest_batch_vectorized(karate, [0, 33], 6, seed=11)
        weights = rademacher_weights(3, karate.n, [0, 33],
                                     np.random.default_rng(1))
        full = batch.subtree_sums(weights)
        rng = np.random.default_rng(2)
        samples = rng.integers(0, batch.batch_size, 40)  # unsorted, repeats
        nodes = rng.integers(0, karate.n, 40)
        assert np.array_equal(batch.subtree_sums(weights, samples, nodes),
                              full[samples, :, nodes])
        assert np.array_equal(batch.subtree_sums(weights[0], samples, nodes),
                              full[samples, 0, nodes])
        assert batch.subtree_sums(weights, samples[:0], nodes[:0]).shape == (0, 3)
        # One sample per prefix chunk gives the same sums bit for bit.
        monkeypatch.setattr(batch_module, "_PREFIX_ENTRIES", 1)
        rechunked = ForestBatch(parent=batch.parent, roots=batch.roots)
        assert np.array_equal(rechunked.subtree_sums(weights), full)
        with pytest.raises(InvalidParameterError):
            batch.subtree_sums(weights, samples, nodes[:-1])
        with pytest.raises(InvalidParameterError):
            batch.subtree_sums(weights, samples, nodes + karate.n)

    def test_materialised_forests_carry_caches(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 4, seed=8)
        batch.root_of()  # prime the batched caches
        forest = batch[2]
        assert forest._root_of is not None
        forest.validate_against(karate)
        assert np.array_equal(forest.root_of(), batch.root_of()[2])

    def test_subtree_sums_rejects_bad_shapes(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 2, seed=0)
        with pytest.raises(GraphError):
            batch.subtree_sums(np.ones(karate.n + 1))

    def test_batch_validation_errors(self):
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros(4, dtype=np.int64), roots=[0])
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[])
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[9])
        with pytest.raises(GraphError):  # root rows must hold -1
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[0])

    def test_unreachable_node_detected(self):
        parent = np.array([[-1, 2, 1, 0]])  # 1 <-> 2 is a cycle
        batch = ForestBatch(parent=parent, roots=[0])
        with pytest.raises(GraphError):
            batch.root_of()

    def test_forest_index_bounds(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            batch.forest(2)


class TestAccumulatorBatchFold:
    def test_add_batch_matches_per_forest_fold(self, karate):
        roots = [0, 33]
        weights = rademacher_weights(5, karate.n, roots,
                                     np.random.default_rng(1))
        batch = sample_forest_batch_vectorized(karate, roots, 12, seed=2)

        one_by_one = ForestAccumulator(karate, roots, weights=weights,
                                       tracked_roots=[33], seed=0)
        for index in range(batch.batch_size):
            one_by_one.add_batch(batch.select([index]), weights=[1.0],
                                 method="scalar")
        batched = ForestAccumulator(karate, roots, weights=weights,
                                    tracked_roots=[33], seed=0)
        batched.add_batch(batch)

        assert batched.count == one_by_one.count == 12
        assert np.allclose(batched.projected_sum, one_by_one.projected_sum)
        assert np.allclose(batched.diag_sum, one_by_one.diag_sum)
        assert np.allclose(batched.root_counts, one_by_one.root_counts)

    def test_add_batch_validates_roots_and_size(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        wrong_roots = sample_forest_batch_vectorized(karate, [0, 33], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.add_batch(wrong_roots)
        small = generators.barabasi_albert(10, 2, seed=0)
        wrong_size = sample_forest_batch_vectorized(small, [0], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.add_batch(wrong_size)

    def test_add_samples_uses_vectorised_chunks(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        accumulator.add_samples(17)
        assert accumulator.count == 17
        estimates = accumulator.diag_estimates()
        assert np.all(estimates[1:] > 0.0)  # non-root diagonals are positive


def _exact_full_absorption(graph, grounded, boundary):
    """Exact ``(interior, roots)`` rooted-at probabilities over all roots."""
    roots = sorted(grounded + boundary)
    exact_boundary, interior = absorption_probabilities(graph, grounded, boundary)
    exact = np.zeros((len(interior), len(roots)))
    column = {root: i for i, root in enumerate(roots)}
    for j, t in enumerate(boundary):
        exact[:, column[t]] = exact_boundary[:, j]
    for g in grounded:
        # One grounded root: its column absorbs the remaining mass.
        exact[:, column[g]] = 1.0 - exact_boundary.sum(axis=1)
    return roots, exact, interior


class TestDistributionalEquivalence:
    """Lemma 4.2 chi-square suite: both samplers draw the same distribution."""

    SAMPLES = 2000
    # Per-node multinomial chi-square against the exact absorption row; the
    # 0.9999 quantile keeps the fixed-seed test deterministic yet sharp
    # enough that a biased sampler (e.g. a broken popping schedule) fails.
    QUANTILE = 0.9999

    @pytest.mark.parametrize("method", ["lockstep", "scalar"])
    def test_root_distribution_chi_square(self, karate, method):
        roots, exact, interior = _exact_full_absorption(karate, [0], [32, 33])
        empirical = empirical_root_distribution(
            karate, roots, self.SAMPLES, seed=11, method=method
        )
        observed = empirical[interior] * self.SAMPLES
        expected = exact * self.SAMPLES
        for i in range(len(interior)):
            mask = expected[i] > 1e-9
            chi2 = float(np.sum(
                (observed[i, mask] - expected[i, mask]) ** 2 / expected[i, mask]
            ))
            dof = max(int(mask.sum()) - 1, 1)
            assert chi2 < scipy_stats.chi2.ppf(self.QUANTILE, dof), (
                f"node {interior[i]} ({method}): chi2={chi2:.2f}"
            )

    @pytest.mark.parametrize("method", ["lockstep", "scalar"])
    def test_root_distribution_tolerances_match_scalar_suite(self, karate, method):
        # Same tolerances as the historical scalar-sampler absorption test.
        roots, exact, interior = _exact_full_absorption(karate, [0], [32, 33])
        empirical = empirical_root_distribution(
            karate, roots, 800, seed=7, method=method
        )
        observed = empirical[interior]
        assert np.max(np.abs(observed - exact)) < 0.1
        assert np.mean(np.abs(observed - exact)) < 0.03

    def test_cycle_spanning_trees_uniform(self):
        """On a cycle, each spanning tree (one removed edge) is equally likely."""
        cycle = generators.cycle_graph(5)
        samples = 600
        batch = sample_forest_batch_vectorized(cycle, [0], samples, seed=0)
        counts: dict = {}
        for b in range(samples):
            parent = batch.parent[b]
            missing = tuple(sorted(
                edge for edge in cycle.edges()
                if parent[edge[0]] != edge[1] and parent[edge[1]] != edge[0]
            ))
            counts[missing] = counts.get(missing, 0) + 1
        assert len(counts) == 5
        for value in counts.values():
            assert value > samples / 5 * 0.5

    def test_empirical_distribution_method_validation(self, karate):
        with pytest.raises(InvalidParameterError):
            empirical_root_distribution(karate, [0], 10, seed=0, method="bogus")

    def test_empirical_distribution_rows_sum_to_one(self, karate):
        empirical = empirical_root_distribution(karate, [0, 33], 50, seed=1)
        assert np.allclose(empirical.sum(axis=1), 1.0)
