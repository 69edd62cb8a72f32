"""Tests for the importance-weighted forest-pool subsystem.

Covers three layers:

* :class:`repro.sampling.WeightedForestPool` unit behaviour (weight updates,
  ESS accounting, refresh planning, eviction);
* distributional correctness of the per-event importance updates, checked
  with chi-square / tolerance suites against exactly enumerable rooted-forest
  distributions on small graphs;
* the :class:`repro.dynamic.DynamicCFCM` integration: churn (including node
  insertions) never flushes pools, the reweighted + topped-up pool estimate
  stays within tolerance of a fresh engine replayed to the same version, and
  LRU pool eviction is observable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.centrality.estimators import (
    ForestAccumulator,
    PathSystem,
    batched_diag_estimates,
    batched_projected_estimates,
    rademacher_weights,
)
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.sampling import WeightedForestPool
from repro.sampling.batch import ForestBatch, sample_forest_batch_vectorized
from repro.sampling.pool import edge_inclusion_prior, node_internal_prior


def _complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _fresh_pool(graph: Graph, roots, capacity: int, seed: int) -> WeightedForestPool:
    pool = WeightedForestPool(roots, capacity=capacity)
    pool.admit(sample_forest_batch_vectorized(graph, roots, capacity, seed=seed))
    return pool


# ---------------------------------------------------------------------------
# ForestBatch helpers
# ---------------------------------------------------------------------------

class TestForestBatchHelpers:
    def test_uses_edge_matches_per_forest_check(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0, 33], 24, seed=3)
        mask = batch.uses_edge(2, 3)
        for row, forest in enumerate(batch):
            expected = forest.parent[2] == 3 or forest.parent[3] == 2
            assert bool(mask[row]) == bool(expected)
        with pytest.raises(InvalidParameterError):
            batch.uses_edge(0, karate.n)

    def test_select_carries_caches(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 8, seed=1)
        batch.root_of()  # populate caches
        subset = batch.select(np.array([1, 3, 5]))
        assert subset.batch_size == 3
        assert np.array_equal(subset.parent, batch.parent[[1, 3, 5]])
        assert subset._root_of is not None
        assert np.array_equal(subset.depths(), batch.depths()[[1, 3, 5]])

    def test_with_leaf_extends_consistently(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 6, seed=2)
        batch.depths()
        leaf_parents = np.full(6, 5, dtype=np.int64)
        grown = batch.with_leaf(leaf_parents)
        assert grown.n == karate.n + 1
        assert np.all(grown.parent[:, -1] == 5)
        # Carried caches must equal a from-scratch recompute.
        recomputed = ForestBatch(parent=grown.parent.copy(), roots=grown.roots)
        assert np.array_equal(grown.depths(), recomputed.depths())
        assert np.array_equal(grown.root_of(), recomputed.root_of())
        with pytest.raises(InvalidParameterError):
            batch.with_leaf(np.zeros(3, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            batch.with_leaf(np.full(6, karate.n, dtype=np.int64))

    def test_concatenate(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 4, seed=4)
        double = ForestBatch.concatenate([batch, batch])
        assert double.batch_size == 8
        assert np.array_equal(double.parent[4:], batch.parent)
        other_roots = sample_forest_batch_vectorized(karate, [1], 2, seed=4)
        with pytest.raises(InvalidParameterError):
            ForestBatch.concatenate([batch, other_roots])
        with pytest.raises(InvalidParameterError):
            ForestBatch.concatenate([])


# ---------------------------------------------------------------------------
# WeightedForestPool unit behaviour
# ---------------------------------------------------------------------------

class TestWeightedForestPool:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WeightedForestPool([], capacity=4)
        with pytest.raises(InvalidParameterError):
            WeightedForestPool([0], capacity=0)
        with pytest.raises(InvalidParameterError):
            WeightedForestPool([0], capacity=4, ess_floor=1.5)
        pool = WeightedForestPool([0], capacity=4)
        assert pool.size == 0 and pool.ess() == 0.0 and pool.n is None
        with pytest.raises(InvalidParameterError):
            pool.batch()

    def test_admit_validates_roots_and_size(self, karate):
        pool = _fresh_pool(karate, [0], 4, seed=0)
        wrong_roots = sample_forest_batch_vectorized(karate, [1], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            pool.admit(wrong_roots)
        small = generators.barabasi_albert(10, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            pool.admit(sample_forest_batch_vectorized(small, [0], 2, seed=0))
        extra = sample_forest_batch_vectorized(karate, [0], 2, seed=9)
        assert pool.admit(extra) == 2
        assert pool.size == 4  # eviction respected capacity

    def test_removal_drops_exactly_users(self, karate):
        pool = _fresh_pool(karate, [0, 33], 32, seed=1)
        users = int(np.count_nonzero(pool.batch().uses_edge(2, 3)))
        dropped = pool.apply_removal(2, 3)
        assert dropped == users
        assert pool.size == 32 - users
        assert not np.any(pool.batch().uses_edge(2, 3))
        # Survivors keep full weight: the conditioning is exact.
        assert pool.weights() == pytest.approx(np.ones(pool.size))

    def test_addition_decays_uniformly_and_ess_tracks_it(self, karate):
        pool = _fresh_pool(karate, [0], 10, seed=2)
        assert pool.ess() == pytest.approx(10.0)
        assert pool.apply_addition(0.4) == 10
        assert pool.weights() == pytest.approx(np.full(10, 0.6))
        # Kish ESS is invariant under uniform scaling; the fidelity cap is
        # what makes a uniformly stale pool report reduced effective size.
        assert pool.ess() == pytest.approx(6.0)

    def test_reweight_applies_exact_ratio_and_roundtrip_cancels(self, karate):
        pool = _fresh_pool(karate, [0], 16, seed=3)
        users = int(np.count_nonzero(pool.batch().uses_edge(0, 1)))
        assert pool.apply_reweight(0, 1, 2.0) == users
        weights = pool.weights()
        assert np.count_nonzero(weights > 1.0) == users
        assert pool.apply_reweight(0, 1, 0.5) == users
        assert pool.weights() == pytest.approx(np.ones(16))
        with pytest.raises(InvalidParameterError):
            pool.apply_reweight(0, 1, 0.0)

    def test_dead_forests_are_dropped(self, karate):
        pool = _fresh_pool(karate, [0], 8, seed=4)
        edge = next(
            (u, v) for u, v in zip(karate.edge_u, karate.edge_v)
            if 0 < np.count_nonzero(pool.batch().uses_edge(u, v)) < 8
        )
        users = int(np.count_nonzero(pool.batch().uses_edge(*edge)))
        pool.apply_reweight(*edge, 1e-40)
        assert pool.size == 8 - users  # below DEAD_LOG_WEIGHT: gone
        # The deaths are observable for stats consumers, exactly once.
        assert pool.take_dead_drops() == users
        assert pool.take_dead_drops() == 0

    def test_addition_reports_full_reweight_count_despite_deaths(self, karate):
        pool = _fresh_pool(karate, [0], 8, seed=4)
        pool.apply_reweight(0, 2, 1e-25)  # users sink near the dead line
        sunk = int(np.count_nonzero(pool.weights() < 1e-20))
        survivors = pool.size
        # The decay reweights every stored forest, even the ones it kills.
        assert pool.apply_addition(0.99) == survivors
        assert pool.take_dead_drops() == sunk
        assert pool.size == survivors - sunk

    def test_plan_refresh_covers_deficit_and_ess_floor(self, karate):
        pool = _fresh_pool(karate, [0], 10, seed=5)
        assert pool.plan_refresh() == 0
        pool.apply_addition(0.4)  # ess 6.0 >= floor 5.0
        assert pool.plan_refresh() == 0
        pool.apply_addition(0.4)  # ess 3.6 < floor
        assert pool.plan_refresh() == 10 - 3
        pool.admit(sample_forest_batch_vectorized(karate, [0], 7, seed=6))
        assert pool.size == 10
        # The lowest-weight (stale) forests were evicted for the fresh ones.
        assert np.count_nonzero(pool.weights() == 1.0) == 7
        assert pool.ess() == pytest.approx(3 * 0.36 + 7.0)
        assert pool.plan_refresh() == 0

    def test_extend_leaf_attaches_weighted_parents(self, karate):
        pool = _fresh_pool(karate, [0], 400, seed=7)
        rng = np.random.default_rng(11)
        extended = pool.extend_leaf([3, 5], [3.0, 1.0], 0.2, rng)
        assert extended == 400
        assert pool.n == karate.n + 1
        column = pool.batch().parent[:, -1]
        assert set(int(p) for p in column) <= {3, 5}
        fraction = np.mean(column == 3)
        assert fraction == pytest.approx(0.75, abs=0.07)
        assert pool.weights() == pytest.approx(np.full(400, 0.8))

    def test_health_snapshot(self, karate):
        pool = _fresh_pool(karate, [0], 8, seed=8)
        pool.apply_addition(0.25)
        health = pool.health()
        assert health["size"] == 8.0
        assert health["capacity"] == 8.0
        assert health["ess"] == pytest.approx(6.0)
        assert health["stale_fraction"] == pytest.approx(0.25)

    def test_priors_are_capped(self):
        assert edge_inclusion_prior(1, 1) == 0.5
        assert edge_inclusion_prior(10, 10) == pytest.approx(0.2)
        assert node_internal_prior([1, 1, 1]) == 0.75
        assert node_internal_prior([8, 8]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Distributional correctness of the importance updates
# ---------------------------------------------------------------------------

def _tree_categories(batch: ForestBatch) -> dict:
    """Weighted counts of distinct parent tuples (rooted tree shapes)."""
    counts: dict = {}
    for row in batch.parent:
        counts[tuple(int(p) for p in row)] = counts.get(tuple(int(p) for p in row), 0) + 1
    return counts


class TestDistributionalCorrectness:
    """Chi-square / tolerance checks on exactly enumerable distributions."""

    def test_removal_conditioning_is_uniform_chi_square(self):
        # K4 rooted at {0} has 16 spanning trees; 8 avoid edge (2, 3).  The
        # survivors of apply_removal must be uniform over those 8.
        graph = _complete_graph(4)
        pool = _fresh_pool(graph, [0], 6000, seed=13)
        pool.apply_removal(2, 3)
        counts = _tree_categories(pool.batch())
        assert len(counts) == 8
        total = sum(counts.values())
        expected = total / 8.0
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi_square < 24.3  # chi2(7 dof) at p ~ 0.001

    def test_reweight_matches_weighted_tree_distribution(self):
        # Reweight edge (1, 2) to w = 2: the target law is P(T) ∝ 2^[e ∈ T].
        # K4: 8 trees contain the edge (mass 2 each), 8 do not (mass 1).
        graph = _complete_graph(4)
        pool = _fresh_pool(graph, [0], 6000, seed=17)
        pool.apply_reweight(1, 2, 2.0)
        weights = pool.weights()
        batch = pool.batch()
        users = batch.uses_edge(1, 2)
        mass_users = float(weights[users].sum())
        mass_rest = float(weights[~users].sum())
        share = mass_users / (mass_users + mass_rest)
        assert share == pytest.approx(16.0 / 24.0, abs=0.03)
        # Within each stratum the trees stay uniform.
        counts = _tree_categories(batch.select(users))
        assert len(counts) == 8
        total = sum(counts.values())
        chi_square = sum((c - total / 8.0) ** 2 / (total / 8.0)
                         for c in counts.values())
        assert chi_square < 24.3

    def test_extend_leaf_is_uniform_over_the_leaf_stratum(self):
        # Triangle rooted at {0} has 3 spanning trees; attaching node 3 to
        # {0, 1} as a leaf gives 6 equally likely (tree, parent) pairs.
        graph = _complete_graph(3)
        pool = _fresh_pool(graph, [0], 6000, seed=19)
        rng = np.random.default_rng(23)
        pool.extend_leaf([0, 1], [1.0, 1.0], 0.3, rng)
        counts = _tree_categories(pool.batch())
        assert len(counts) == 6
        total = sum(counts.values())
        chi_square = sum((c - total / 6.0) ** 2 / (total / 6.0)
                         for c in counts.values())
        assert chi_square < 20.5  # chi2(5 dof) at p ~ 0.001
        grown = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        pool.batch().forest(0).validate_against(grown)


# ---------------------------------------------------------------------------
# Weight-aware batched estimator fold
# ---------------------------------------------------------------------------

def _fold_case(name: str, request):
    """``(graph, roots, path)`` of a fold comparison; ``path`` is ``None``
    for the BFS path system the accumulator builds itself."""
    if name == "ring":  # adjacent roots: forest paths up to n - 2 long
        return generators.cycle_graph(40), [0, 39], None
    if name == "extended":
        # The path system a pool keeps after a node join: the new node joins
        # a root and the deepest node, and its fixed path runs through the
        # deepest node instead of the one-edge BFS path to the root.
        base = request.getfixturevalue("karate")
        roots = [0, base.n - 1]
        path = PathSystem.from_graph(base, roots)
        deep = int(path.levels()[-1][0])
        graph = Graph(base.n + 1,
                      list(base.edges()) + [(deep, base.n), (0, base.n)])
        return graph, roots, path.extended(deep)
    if name == "hubs":  # SchurDelta's root set S ∪ T: four hubs of karate
        return request.getfixturevalue("karate"), [0, 2, 32, 33], None
    graph = request.getfixturevalue(name)
    return graph, [0, graph.n - 1], None


class TestWeightedBatchedFold:
    @pytest.mark.parametrize("graph_name",
                             ["karate", "grid5x5", "ring", "extended", "hubs"])
    def test_batched_fold_matches_scalar_reference(self, graph_name, request):
        # Every root but the first is tracked: "hubs" tracks three, and
        # its first root is one the rooted-at counts must leave out.
        graph, roots, path = _fold_case(graph_name, request)
        jl = rademacher_weights(4, graph.n, roots, np.random.default_rng(0))
        batch = sample_forest_batch_vectorized(graph, roots, 15, seed=5)

        scalar = ForestAccumulator(graph, roots, weights=jl,
                                   tracked_roots=roots[1:], seed=0)
        batched = ForestAccumulator(graph, roots, weights=jl,
                                    tracked_roots=roots[1:], seed=0)
        if path is not None:
            scalar._path = batched._path = path
        scalar.add_batch(batch, method="scalar")
        batched.add_batch(batch)

        assert batched.count == scalar.count == 15
        # Both reads divide their sums by 15, so the sums' absolute
        # tolerance reads 1e-9 / 15 on them.
        np.testing.assert_allclose(batched.projected_estimates(),
                                   scalar.projected_estimates(), atol=1e-9 / 15)
        np.testing.assert_allclose(batched.diag_sum, scalar.diag_sum, atol=1e-9)
        np.testing.assert_allclose(batched.root_counts, scalar.root_counts,
                                   atol=1e-9)

    @pytest.mark.parametrize("case", ["karate", "ring", "extended"])
    def test_per_forest_rows_match_scalar_fold(self, case, request):
        """The pools' per-forest kernels against the scalar fold of each
        forest on its own, forest by forest."""
        graph, roots, path = _fold_case(case, request)
        jl = rademacher_weights(3, graph.n, roots, np.random.default_rng(2))
        batch = sample_forest_batch_vectorized(graph, roots, 9, seed=8)
        path = path or PathSystem.from_graph(graph, roots)
        projected = batched_projected_estimates(batch, path, jl)
        diag = batched_diag_estimates(batch.parent, path)
        columns = [graph.n - 2, 3]
        assert np.array_equal(
            batched_diag_estimates(batch.parent, path, columns=columns),
            diag[:, columns])
        for index in range(batch.batch_size):
            single = ForestAccumulator(graph, roots, weights=jl, seed=0)
            single._path = path
            single.add_batch(batch.select([index]), method="scalar")
            np.testing.assert_allclose(projected[index],
                                       single.projected_estimates(),
                                       rtol=1e-12, atol=1e-12)
            assert np.array_equal(diag[index], single.diag_sum)

    def test_weight_validation(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        batch = sample_forest_batch_vectorized(karate, [0], 3, seed=7)
        with pytest.raises(InvalidParameterError):
            accumulator.add_batch(batch, method="quantum")


# ---------------------------------------------------------------------------
# Engine integration: churn without flushes, tolerance vs fresh references
# ---------------------------------------------------------------------------

def _apply_churn(graph: DynamicGraph, rng: np.random.Generator, steps: int):
    """Random edge churn plus occasional node insertions (never removals).

    Returns the journal events applied, so callers can replay them onto a
    fresh graph even after the engine compacted the original journal.
    """
    events = []
    for _ in range(steps):
        move = rng.random()
        nodes = [int(v) for v in graph.node_ids()]
        if move < 0.2:
            attach = rng.choice(nodes, size=2, replace=False)
            events.append(graph.add_node([int(attach[0]), int(attach[1])]))
        elif move < 0.6:
            for _ in range(20):
                u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
                if not graph.has_edge(u, v):
                    events.append(graph.add_edge(u, v))
                    break
        else:
            edges = list(graph.edges())
            for index in rng.permutation(len(edges)):
                u, v = edges[int(index)]
                try:
                    events.append(graph.remove_edge(u, v))
                    break
                except Exception:
                    continue
    return events


class TestEngineImportanceCorrectness:
    def test_insertion_churn_never_flushes_and_matches_fresh_engine(self):
        """Acceptance: add_node + edge events keep reweighted forests pooled
        while the estimate tracks a fresh engine replayed to the same
        version."""
        base = generators.barabasi_albert(70, 2, seed=5)
        graph = DynamicGraph(base)
        engine = DynamicCFCM(graph, seed=9, pool_size=160)
        group = [0, 1]
        engine.evaluate_forest(group)
        pool = engine._pools[(0, 1)]

        rng = np.random.default_rng(41)
        events = []
        for _ in range(4):
            events.extend(_apply_churn(graph, rng, 5))
            engine.evaluate_forest(group)

        # The pool survived every insertion with reweighted forests, bounded
        # by the ESS policy.
        assert engine.stats.pools_flushed == 0
        assert engine.stats.forests_reweighted > 0
        assert pool.size == 160
        assert pool.ess() >= engine.ess_floor * 160 - 1e-9
        assert np.any(pool.weights() < 1.0)  # reweighted forests retained

        # Replay the same events onto a fresh graph and compare against a
        # fresh engine (fresh pool) and the exact value at the same version.
        from repro.dynamic import apply_event

        replayed = DynamicGraph(base)
        for event in events:
            apply_event(replayed, event)
        assert replayed.version == graph.version

        estimate = engine.evaluate_forest(group)
        exact = engine.evaluate_exact(group)
        fresh_engine = DynamicCFCM(replayed, seed=123, pool_size=160)
        fresh_estimate = fresh_engine.evaluate_forest(group)
        assert estimate == pytest.approx(exact, rel=0.2)
        assert fresh_estimate == pytest.approx(exact, rel=0.2)
        assert estimate == pytest.approx(fresh_estimate, rel=0.3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_churn_tolerance(self, seed):
        base = generators.barabasi_albert(50, 2, seed=100 + seed)
        graph = DynamicGraph(base)
        engine = DynamicCFCM(graph, seed=seed, pool_size=192)
        group = [0, 2]
        rng = np.random.default_rng(seed)
        for _ in range(3):
            _apply_churn(graph, rng, 6)
            estimate = engine.evaluate_forest(group)
            exact = engine.evaluate_exact(group)
            assert estimate == pytest.approx(exact, rel=0.2)
        assert engine.stats.pools_flushed == 0

    def test_ess_floor_trigger_refreshes_stale_mass(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=3, pool_size=32, ess_floor=0.75)
        engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        candidates = [(u, v) for u in range(4, 20) for v in range(21, 34)
                      if not graph.has_edge(u, v)]
        for u, v in candidates:
            graph.add_edge(u, v)
            engine.evaluate_forest([0])
            if engine.stats.ess_topups:
                break
        assert engine.stats.ess_topups >= 1
        assert pool.ess() >= 0.75 * 32 - 1e-9
        assert np.count_nonzero(pool.weights() == 1.0) > 0


class TestTraceCache:
    """The per-forest trace cache must never change what is computed."""

    def test_cached_evaluation_matches_full_refold(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=2, pool_size=24)
        engine.evaluate_forest([0])
        graph.add_edge(15, 20)  # decay only: every cached trace stays valid
        cached_value = engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        folded = engine.stats.forests_folded
        # Recompute everything from scratch against the same path system.
        from repro.centrality.estimators import batched_diag_estimates

        diag = batched_diag_estimates(pool.batch().parent, pool._path)
        weights = pool.weights()
        trace = float(weights @ diag.sum(axis=1)) / float(weights.sum())
        assert cached_value == pytest.approx(graph.n / trace, rel=1e-12)
        # And the cache really did avoid refolding the retained forests:
        # every fold so far was for a freshly drawn forest.
        assert folded == engine.stats.forests_resampled

    def test_insertion_extends_traces_without_refold(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=4, pool_size=16)
        engine.evaluate_forest([0])
        folded_before = engine.stats.forests_folded
        resampled_before = engine.stats.forests_resampled
        graph.add_node([3, 5])
        engine.evaluate_forest([0])
        # Only freshly drawn forests were folded: the retained forests'
        # traces gained the new node's column via the single-column walk.
        fresh = engine.stats.forests_resampled - resampled_before
        assert engine.stats.forests_folded - folded_before == fresh

    def test_stale_path_never_outlives_an_emptied_pool(self, karate):
        """Regression: a coalesced burst that empties a pool, inserts a node
        (skipping the empty pool's extension) and then removes one of the
        new node's edges used to index the stale path system out of bounds.
        """
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=6, pool_size=1)
        engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        path = pool._path
        # Empty the pool with a removal the path system does not use.
        edge = next(
            (u, v) for u, v in zip(karate.edge_u, karate.edge_v)
            if bool(pool.batch().uses_edge(u, v)[0]) and not path.uses_edge(u, v)
            and graph.has_edge(u, v)
        )
        graph.remove_edge(*edge)
        event = graph.add_node([3, 5])      # skipped: the pool is empty
        graph.remove_edge(event.node, 3)    # touches the new node's id
        value = engine.evaluate_forest([0])  # must not raise
        assert value > 0.0
        assert engine._pools[(0,)]._path.n == graph.n

    def test_path_edge_removal_invalidates_traces(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=5, pool_size=8)
        engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        path = pool._path
        # Remove an edge the path system uses: every cached trace must go.
        edge = next((u, v) for u, v in zip(karate.edge_u, karate.edge_v)
                    if path.uses_edge(u, v) and graph.has_edge(u, v))
        graph.remove_edge(*edge)
        engine.sync()
        assert pool._path is None
        assert not np.any(pool.trace_valid)
        value = engine.evaluate_forest([0])
        exact = engine.evaluate_exact([0])
        assert value == pytest.approx(exact, rel=0.5)


class TestLRUPoolEviction:
    def test_eviction_records_stat_and_drops_health_state(self, karate):
        engine = DynamicCFCM(DynamicGraph(karate), seed=0, pool_size=4,
                             cache_capacity=2)
        engine.evaluate_forest([0])
        engine.evaluate_forest([1])
        assert engine.stats.pools_evicted == 0
        engine.evaluate_forest([2])
        # The LRU pool (roots {0}) was evicted: stat recorded, health and
        # cursor state dropped instead of lingering silently.
        assert engine.stats.pools_evicted == 1
        assert set(engine._pools) == {(1,), (2,)}
        assert set(engine.stats.pool_ess) == {"1", "2"}
        # A re-query rebuilds the pool from scratch (and evicts the next LRU).
        engine.evaluate_forest([0])
        assert engine.stats.pools_evicted == 2
        assert set(engine.stats.pool_ess) == {"2", "0"}
        assert engine._pools[(0,)].size == 4

    def test_evicted_pool_does_not_pin_health_after_sync(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=0, pool_size=4, cache_capacity=1)
        engine.evaluate_forest([0])
        engine.evaluate_forest([1])  # evicts pool {0}
        graph.add_edge(15, 20)
        engine.sync()
        assert set(engine.stats.pool_ess) == {"1"}
