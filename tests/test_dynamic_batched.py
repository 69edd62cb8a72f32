"""Tests for the generalised incremental-update stack: rank-t Woodbury
batches and the fully mutable node set."""

import numpy as np
import pytest

from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    IncrementalResistance,
    apply_random_node_event,
    random_churn_journal,
    random_update_journal,
)
from repro.exceptions import (
    DisconnectedGraphError,
    GraphError,
    InvalidNodeError,
    InvalidParameterError,
)
from repro.graph import generators
from repro.linalg.laplacian import grounded_laplacian_dense, laplacian_dense
from repro.linalg.backends import DenseResistanceBackend
from repro.linalg.updates import (
    grounded_inverse_block_update,
    grounded_inverse_edge_update,
)


def _removable_node(graph: DynamicGraph, avoid=frozenset()) -> int:
    """First active node outside ``avoid`` whose removal keeps connectivity."""
    for node in graph.node_ids():
        node = int(node)
        if node in avoid:
            continue
        if not graph._node_removal_disconnects(node):
            return node
    raise AssertionError("no removable node found")


def fresh_grounded_trace(graph: DynamicGraph, group) -> float:
    """Reference ``Tr(inv(L_{-S}))`` from a fresh dense factorisation."""
    mapping = graph.snapshot_mapping()
    grounded = set(group)
    positions = [i for i, node in enumerate(mapping) if int(node) not in grounded]
    full = graph.laplacian_dense()
    return float(np.trace(np.linalg.inv(full[np.ix_(positions, positions)])))


class TestBlockUpdate:
    """Rank-t Woodbury batches against fresh inversion."""

    def _grounded(self, graph, group):
        matrix, kept = grounded_laplacian_dense(graph, group)
        return matrix, np.linalg.inv(matrix), {int(v): i for i, v in enumerate(kept)}

    def test_mixed_batch_matches_fresh(self, karate):
        matrix, inverse, local = self._grounded(karate, [0])
        events = [
            (local[15], local[20], 1.0),    # insertion
            (local[2], local[3], -1.0),     # deletion
            (local[9], None, 1.0),          # insertion with grounded endpoint
            (local[4], local[10], 0.7),     # reweight
        ]
        updated = grounded_inverse_block_update(inverse, events)
        perturbed = matrix.copy()
        for i, j, delta in events:
            b = np.zeros(matrix.shape[0])
            b[i] = 1.0
            if j is not None:
                b[j] = -1.0
            perturbed += delta * np.outer(b, b)
        assert np.allclose(updated, np.linalg.inv(perturbed), atol=1e-8)

    def test_matches_sequential_rank1_chain(self, karate):
        _, inverse, local = self._grounded(karate, [33])
        events = [(local[0], local[5], 0.5), (local[11], None, 1.0),
                  (local[2], local[3], -0.25)]
        chained = inverse
        for i, j, delta in events:
            chained = grounded_inverse_edge_update(chained, i, j, delta)
        batched = grounded_inverse_block_update(inverse, events)
        assert np.allclose(batched, chained, atol=1e-10)

    def test_empty_and_zero_delta_batches(self, karate):
        _, inverse, local = self._grounded(karate, [0])
        out = grounded_inverse_block_update(inverse, [])
        assert np.array_equal(out, inverse)
        assert out is not inverse  # always a copy
        skipped = grounded_inverse_block_update(
            inverse, [(local[2], local[3], 0.0)]
        )
        assert np.array_equal(skipped, inverse)

    def test_singleton_batch_matches_rank1(self, karate):
        _, inverse, local = self._grounded(karate, [0])
        single = grounded_inverse_block_update(inverse, [(local[2], local[3], -1.0)])
        rank1 = grounded_inverse_edge_update(inverse, local[2], local[3], -1.0)
        assert np.allclose(single, rank1, atol=1e-12)

    def test_remove_and_readd_is_robust(self, path4):
        # Sequentially, removing the bridge (2, 3) is singular; as a batch the
        # perturbations sum, so remove-then-readd is exactly a no-op.
        _, inverse, local = self._grounded(path4, [0])
        events = [(local[2], local[3], -1.0), (local[2], local[3], 1.0)]
        with pytest.raises(InvalidParameterError):
            grounded_inverse_edge_update(inverse, local[2], local[3], -1.0)
        assert np.allclose(
            grounded_inverse_block_update(inverse, events), inverse, atol=1e-10
        )

    def test_singular_batch_raises(self, path4):
        _, inverse, local = self._grounded(path4, [0])
        events = [(local[1], local[2], 0.5), (local[2], local[3], -1.0)]
        with pytest.raises(InvalidParameterError, match="singular"):
            grounded_inverse_block_update(inverse, events)

    def test_bad_indices_rejected(self, karate):
        _, inverse, _ = self._grounded(karate, [0])
        with pytest.raises(InvalidParameterError):
            grounded_inverse_block_update(inverse, [(-1, 2, 1.0), (0, 1, 1.0)])
        with pytest.raises(InvalidParameterError):
            grounded_inverse_block_update(inverse, [(4, 4, 1.0), (0, 1, 1.0)])
        with pytest.raises(InvalidParameterError):
            grounded_inverse_block_update(np.ones((2, 3)), [(0, 1, 1.0)])


class TestDynamicGraphNodes:
    """Mutable node set of DynamicGraph: stable ids, guards, snapshots."""

    def test_add_node_journals_and_connects(self, karate):
        graph = DynamicGraph(karate)
        event = graph.add_node({3: 2.0, 7: 1.0})
        assert event.kind == "add_node" and event.is_node_event
        assert event.node == karate.n
        assert event.edges == ((3, 2.0), (7, 1.0))
        assert graph.n == karate.n + 1
        assert graph.has_node(event.node)
        assert graph.has_edge(event.node, 3) and graph.weight(event.node, 3) == 2.0
        assert not graph.is_unit_weighted

    def test_add_node_accepts_bare_neighbour_lists(self, karate):
        graph = DynamicGraph(karate)
        event = graph.add_node([0, (5, 1.0)])
        assert event.edges == ((0, 1.0), (5, 1.0))
        assert graph.is_unit_weighted

    def test_add_node_rejects_bad_edges(self, karate):
        graph = DynamicGraph(karate)
        with pytest.raises(DisconnectedGraphError):
            graph.add_node({})
        with pytest.raises(GraphError):
            graph.add_node([3, 3])
        with pytest.raises(InvalidParameterError):
            graph.add_node({3: -1.0})
        with pytest.raises(InvalidNodeError):
            graph.add_node({999: 1.0})
        assert graph.version == 0  # rejected edits leave no journal trace

    def test_remove_node_journals_incident_edges(self, karate):
        graph = DynamicGraph(karate)
        degree = graph.degree(11)
        event = graph.remove_node(11)
        assert event.kind == "remove_node" and event.node == 11
        assert len(event.edges) == degree
        assert graph.n == karate.n - 1
        assert not graph.has_node(11)
        with pytest.raises(InvalidNodeError):
            graph.degree(11)
        with pytest.raises(InvalidNodeError):
            graph.add_edge(11, 20)

    def test_remove_node_connectivity_guard(self, star6):
        graph = DynamicGraph(star6)
        with pytest.raises(DisconnectedGraphError):
            graph.remove_node(0)  # the hub is a cut vertex
        assert graph.version == 0
        leaf_event = graph.remove_node(1)  # leaves are always safe
        assert leaf_event.edges == ((0, 1.0),)

    def test_remove_node_minimum_size_guard(self):
        graph = DynamicGraph(generators.path_graph(2))
        with pytest.raises(GraphError):
            graph.remove_node(0)

    def test_stable_ids_not_reused(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.remove_node(2)
        event = graph.add_node([0, 3])
        assert event.node == 5  # removed id 2 is retired forever
        assert sorted(int(x) for x in graph.node_ids()) == [0, 1, 3, 4, 5]

    def test_snapshot_remaps_ids(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.remove_node(2)
        snapshot = graph.snapshot()
        mapping = graph.snapshot_mapping()
        assert snapshot.n == 4
        assert [int(x) for x in mapping] == [0, 1, 3, 4]
        assert graph.compact_index(3) == 2
        assert graph.compact_nodes([0, 4]) == [0, 3]
        # Edge (3, 4) survives as compact (2, 3).
        assert snapshot.has_edge(2, 3)
        with pytest.raises(InvalidNodeError):
            graph.compact_index(2)

    def test_laplacian_matches_numpy_reference(self, karate):
        graph = DynamicGraph(karate)
        assert np.allclose(graph.laplacian_dense(), laplacian_dense(karate))
        graph.update_weight(0, 1, 3.0)
        graph.remove_node(16)
        graph.add_node({4: 2.0, 8: 1.0})
        mapping = graph.snapshot_mapping()
        compact = {int(x): i for i, x in enumerate(mapping)}
        reference = np.zeros((graph.n, graph.n))
        for (u, v), w in [((u, v), graph.weight(u, v)) for u, v in graph.edges()]:
            cu, cv = compact[u], compact[v]
            reference[cu, cu] += w
            reference[cv, cv] += w
            reference[cu, cv] -= w
            reference[cv, cu] -= w
        assert np.allclose(graph.laplacian_dense(), reference)

    def test_validate_group_against_active_set(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.remove_node(2)
        assert graph.validate_group([4, 0]) == (0, 4)
        with pytest.raises(InvalidNodeError):
            graph.validate_group([2])
        with pytest.raises(InvalidParameterError):
            graph.validate_group([])
        with pytest.raises(InvalidParameterError):
            graph.validate_group([0, 0])
        with pytest.raises(InvalidParameterError):
            graph.validate_group([0, 1, 3, 4])  # not a strict subset


class TestJournalCompaction:
    def test_compact_truncates_prefix(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        graph.remove_edge(0, 2)
        assert graph.compact(2) == 2
        assert graph.journal_floor == 2
        assert [e.version for e in graph.journal()] == [3]
        assert [e.version for e in graph.journal_since(2)] == [3]
        assert graph.journal_since(3) == []
        with pytest.raises(GraphError):
            graph.journal_since(1)
        # Compacting again below/at the floor is a no-op.
        assert graph.compact(1) == 0
        assert graph.compact(10) == 1  # clamped to the current version
        assert graph.journal() == ()

    def test_full_history_request_still_works_uncompacted(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2)
        assert [e.version for e in graph.journal_since(-1)] == [1]
        graph.compact(1)
        with pytest.raises(GraphError):
            graph.journal_since(-1)  # now genuinely truncated

    def test_query_only_traffic_compacts_journal(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            random_update_journal(graph, 8, rng)
            engine.query(3, method="degree")
        assert graph.journal_floor == graph.version
        assert graph.journal() == ()

    def test_mapping_cached_across_edge_churn_and_read_only(self, small_ba):
        graph = DynamicGraph(small_ba)
        first = graph.snapshot_mapping()
        random_update_journal(graph, 5, np.random.default_rng(0))
        assert graph.snapshot_mapping() is first  # edge churn reuses the cache
        graph.add_node([0])
        second = graph.snapshot_mapping()
        assert second is not first and int(second[-1]) == small_ba.n
        with pytest.raises(ValueError):
            second[0] = 99  # callers cannot corrupt the shared cache

    def test_tracker_recovers_from_compaction(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, [0])
        random_update_journal(graph, 6, np.random.default_rng(0))
        graph.compact(graph.version)  # drop the suffix the tracker needs
        assert tracker.trace() == pytest.approx(
            fresh_grounded_trace(graph, [0]), rel=1e-9
        )
        assert tracker.stats.refreshes == 1

    def test_engine_recovers_from_external_compaction(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0, pool_size=4)
        engine.evaluate_forest([0, 1])
        engine.evaluate_exact([0, 1])
        random_update_journal(graph, 5, np.random.default_rng(0))
        graph.compact(graph.version)  # an external consumer raced us
        # The engine must flush what it cannot replay and keep serving.
        assert engine.evaluate_exact([0, 1]) == pytest.approx(
            graph.n / fresh_grounded_trace(graph, [0, 1]), rel=1e-9
        )
        assert engine.evaluate_forest([0, 1]) > 0.0
        assert engine.stats.pools_flushed >= 1

    def test_stale_tracker_does_not_pin_journal(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0)
        budget = DenseResistanceBackend.break_even
        engine.evaluate_exact([0])  # this tracker then goes idle forever
        rng = np.random.default_rng(3)
        for _ in range(40):
            random_update_journal(graph, 4, rng)
            engine.evaluate_exact([1, 2])
        # The idle tracker lags far beyond the dense budget of 64, so it
        # would refresh (not replay) anyway; the journal must stay bounded.
        assert graph.version == 160
        assert graph.version - graph.journal_floor <= budget
        assert len(graph.journal()) <= budget
        # And the stale tracker still answers correctly via its refresh path.
        assert engine.evaluate_exact([0]) == pytest.approx(
            graph.n / fresh_grounded_trace(graph, [0]), rel=1e-9
        )

    def test_engine_compacts_consumed_prefix(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0)
        engine.evaluate_exact([0, 1])
        random_update_journal(graph, 10, np.random.default_rng(1))
        engine.evaluate_exact([0, 1])
        # The tracker synced through sync()'s version, so the next sync
        # compacts everything both consumers have seen.
        engine.evaluate_exact([0, 1])
        assert graph.journal_floor == graph.version
        assert graph.journal() == ()


class TestBatchedSyncEquivalence:
    """ISSUE acceptance: batched Woodbury == fresh factorisation (1e-8)."""

    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_randomized_mixed_journals(self, seed):
        rng = np.random.default_rng(seed)
        base = generators.barabasi_albert(70, 3, seed=seed)
        graph = DynamicGraph(base)
        group = [0, 5, 9]
        tracker = IncrementalResistance(graph, group)
        for _ in range(6):
            events = random_churn_journal(graph, 12, rng,
                                          node_probability=0.25,
                                          protected=group)
            # Reweight a random surviving edge so every event kind appears.
            edges = list(graph.edges())
            u, v = edges[int(rng.integers(0, len(edges)))]
            graph.update_weight(u, v, float(rng.uniform(0.5, 2.0)))
            assert events
            assert tracker.trace() == pytest.approx(
                fresh_grounded_trace(graph, group), abs=1e-8
            )
        stats = tracker.stats
        assert stats.batch_updates > 0
        assert stats.node_grows + stats.node_downdates > 0

    def test_pure_edge_burst_is_one_batch(self, medium_ba):
        graph = DynamicGraph(medium_ba)
        tracker = IncrementalResistance(graph, [0, 5])
        random_update_journal(graph, 16, np.random.default_rng(2))
        tracker.trace()
        assert tracker.stats.batch_updates == 1
        assert tracker.stats.batched_events == 16
        assert tracker.stats.rank1_updates == 0

    def test_singular_batch_falls_back_to_refresh(self, small_ba, monkeypatch):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, [0])
        random_update_journal(graph, 8, np.random.default_rng(4))

        import repro.linalg.backends as backends_module

        def singular(*args, **kwargs):
            raise InvalidParameterError("singular block update (forced)")

        monkeypatch.setattr(backends_module,
                            "grounded_inverse_block_update", singular)
        assert tracker.trace() == pytest.approx(
            fresh_grounded_trace(graph, [0]), rel=1e-9
        )
        assert tracker.stats.refreshes == 1
        assert tracker.stats.singular_refreshes == 1

    def test_grow_after_downdate_round_trip_through_tracker(self, karate):
        graph = DynamicGraph(karate)
        group = [0, 33]
        tracker = IncrementalResistance(graph, group)
        before = tracker.trace()
        removal = graph.remove_node(11)
        tracker.trace()
        assert tracker.stats.node_downdates == 1
        graph.add_node(list(removal.edges))  # same attachments, new id
        after = tracker.trace()
        assert tracker.stats.node_grows == 1
        # The re-joined node is electrically identical to the departed one.
        assert after == pytest.approx(before, abs=1e-8)
        assert tracker.stats.refreshes == 0

    def test_node_events_count_true_cost_against_budget(self, medium_ba):
        graph = DynamicGraph(medium_ba)
        tracker = IncrementalResistance(graph, [0])
        # A leave frees a tombstone row, so the join below finds a free row.
        graph.remove_node(medium_ba.n - 1)
        tracker.sync()
        assert tracker.stats.refreshes == 0
        # One add_node with 64 kept attachments costs 1 row clear + 64
        # edge terms = 65 > 64 low-rank updates: must refresh, not replay.
        graph.add_node(list(range(1, 65)))
        assert tracker.trace() == pytest.approx(
            fresh_grounded_trace(graph, [0]), rel=1e-9
        )
        assert tracker.stats.refreshes == 1
        assert tracker.stats.node_grows == 0

    def test_removing_grounded_node_invalidates_tracker(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, [3])
        graph.remove_node(3)
        with pytest.raises(GraphError, match="no longer exists"):
            tracker.trace()


class TestEngineNodeChurn:
    def test_query_and_evaluate_across_churn(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0)
        first = engine.query(3, method="degree")
        graph.remove_node(_removable_node(graph, avoid={0, 1}))
        joined = graph.add_node([0, 1]).node
        result = engine.query(3, method="degree")
        assert result is not first
        for node in result.group:
            assert graph.has_node(node)
        value = engine.evaluate_exact(result.group)
        assert value == pytest.approx(
            graph.n / fresh_grounded_trace(graph, result.group), rel=1e-9
        )
        assert engine.evaluate_exact([joined]) > 0.0

    def test_query_group_uses_stable_ids(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2)
        graph.add_edge(1, 4)
        graph.remove_node(1)
        engine = DynamicCFCM(graph, seed=0)
        result = engine.query(2, method="degree")
        assert all(graph.has_node(node) for node in result.group)
        assert 1 not in result.group

    def test_iteration_log_uses_stable_ids(self, small_ba):
        graph = DynamicGraph(small_ba)
        removed = _removable_node(graph, avoid={0, 1})
        graph.remove_node(removed)
        engine = DynamicCFCM(graph, seed=0)
        result = engine.query(3, method="exact")
        logged = [entry["node"] for entry in result.iteration_log
                  if "node" in entry]
        assert logged == list(result.group)
        for node in logged:
            assert graph.has_node(node)

    def test_node_removal_evicts_dependent_state(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=4)
        engine.evaluate_forest([11, 12])
        engine.evaluate_forest([0, 33])
        engine.evaluate_exact([11])
        engine.evaluate_exact([0])
        graph.remove_node(11)
        engine.evaluate_forest([0, 33])
        assert (11, 12) not in engine._pools
        assert (11,) not in engine._trackers
        assert (0,) in engine._trackers
        assert engine.stats.node_evictions == 2
        # Surviving pools were flushed: their forests lived in the old
        # compact id space.
        assert engine.stats.pools_flushed >= 1
        with pytest.raises(InvalidNodeError):
            engine.evaluate_exact([11])

    def test_node_insertion_extends_pools_without_flush(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=4)
        engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        event = graph.add_node([3, 5])
        engine.evaluate_forest([0])
        # The stored forests were extended with the new node as a leaf
        # (parent drawn among its attachments) instead of being flushed;
        # the missing internal stratum shows up as decayed weights.
        assert engine.stats.pools_flushed == 0
        assert pool.size == 4
        assert pool.n == graph.n
        new_column = graph.compact_index(event.node)
        attachments = set(graph.compact_nodes([3, 5]))
        kept = pool.batch()
        assert set(int(p) for p in kept.parent[:, new_column]) <= attachments
        assert np.all(pool.weights() <= 1.0) and np.any(pool.weights() < 1.0)
        for forest in kept:
            forest.validate_against(graph.snapshot())

    def test_forest_estimate_after_churn(self, small_ba):
        graph = DynamicGraph(small_ba)
        graph.remove_node(_removable_node(graph, avoid={0, 1}))
        engine = DynamicCFCM(graph, seed=0, pool_size=128)
        group = [0, 1]
        estimate = engine.evaluate_forest(group)
        exact = engine.evaluate_exact(group)
        assert estimate == pytest.approx(exact, rel=0.3)


class TestEngineSatellites:
    def test_exact_eval_counts_tracker_hits(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        engine.evaluate_exact([0, 1])
        assert engine.stats.eval_misses == 1 and engine.stats.eval_hits == 0
        engine.evaluate_exact([1, 0])  # same group, any order
        assert engine.stats.eval_hits == 1
        assert engine.stats.as_dict()["eval_hits"] == 1

    def test_engine_reports_batched_updates(self, small_ba):
        graph = DynamicGraph(small_ba)
        engine = DynamicCFCM(graph, seed=0)
        engine.evaluate_exact([0, 1])
        random_update_journal(graph, 12, np.random.default_rng(0))
        engine.evaluate_exact([0, 1])
        assert engine.stats.batch_updates == 1
        assert engine.stats.batched_events == 12

    def test_evaluate_flag_key_normalised(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        first = engine.query(2, method="degree", evaluate=True)
        second = engine.query(2, method="degree", evaluate="exact")
        assert second is first
        assert engine.stats.query_hits == 1
        assert engine.stats.query_misses == 1
        assert len(engine._query_cache) == 1


class TestNodeChurnWorkload:
    def test_churn_journal_preserves_invariants(self, small_ba):
        graph = DynamicGraph(small_ba)
        events = random_churn_journal(graph, 40, np.random.default_rng(7),
                                      node_probability=0.3)
        assert len(events) == 40
        assert graph.version == 40
        kinds = {event.kind for event in events}
        assert "add_node" in kinds or "remove_node" in kinds
        from repro.graph.traversal import is_connected

        assert is_connected(graph.snapshot())

    def test_node_event_fallback_between_kinds(self):
        # A 2-node graph cannot lose a node (minimum size guard), so a
        # removal draw falls back to an insertion.
        graph = DynamicGraph(generators.path_graph(2))
        event = apply_random_node_event(graph, np.random.default_rng(0),
                                        add_probability=0.0)
        assert event is not None and event.kind == "add_node"

    def test_protected_nodes_survive(self, small_ba):
        graph = DynamicGraph(small_ba)
        protected = [0, 5, 9]
        random_churn_journal(graph, 60, np.random.default_rng(11),
                             node_probability=0.6, add_probability=0.2,
                             protected=protected)
        for node in protected:
            assert graph.has_node(node)
