"""Tests for the dynamic-graph engine (repro.dynamic)."""

import copy
import functools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.centrality.cfcc import group_cfcc, grounded_trace
from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    IncrementalResistance,
    apply_random_update,
    random_update_journal,
    replay_events,
)
from repro.exceptions import (
    DisconnectedGraphError,
    GraphError,
    InvalidParameterError,
)
from repro.graph import generators
from repro.linalg.updates import grounded_inverse_edge_update


def _cuts_by_networkx(graph):
    """Bridges and cut vertices of ``graph`` by stable id: the guards' oracle."""
    snapshot = graph.snapshot()
    ids = graph.snapshot_mapping()
    oracle = nx.Graph()
    oracle.add_nodes_from(range(snapshot.n))
    oracle.add_edges_from(zip(snapshot.edge_u.tolist(), snapshot.edge_v.tolist()))
    bridges = {tuple(sorted((int(ids[a]), int(ids[b]))))
               for a, b in nx.bridges(oracle)}
    cuts = {int(ids[x]) for x in nx.articulation_points(oracle)}
    return bridges, cuts


def _chorded_tree(seed):
    """A random tree plus a few chords (bridges and cycle edges, cut vertices
    and removable nodes), with some ids tombstoned."""
    rng = np.random.default_rng(seed)
    graph = DynamicGraph(generators.random_tree(40, seed=seed))
    for _ in range(int(rng.integers(4, 16))):
        u, v = (int(x) for x in rng.choice(40, size=2, replace=False))
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    for node in rng.permutation(40)[:6]:
        if int(node) not in _cuts_by_networkx(graph)[1]:
            graph.remove_node(int(node))
    return graph


def _tombstoned_tree():
    """A random tree whose leaves left and whose joins hang off it: every edge
    is a bridge, every inner node a cut vertex, and the ids have gaps."""
    graph = DynamicGraph(generators.random_tree(60, seed=11))
    leaves = [x for x in range(60) if graph.degree(x) == 1]
    for leaf in leaves[::2]:
        graph.remove_node(leaf)
    for anchor in (1, 30, 59, 60):
        if graph.has_node(anchor):
            graph.add_node([anchor])
    return graph


#: Graph families for the guard oracle: the search order matters on hubs,
#: long cycles and paths, cliques joined by bridges, stars and grids.
GUARD_FAMILIES = {
    **{str(seed): functools.partial(_chorded_tree, seed) for seed in range(6)},
    "ba300": lambda: DynamicGraph(generators.barabasi_albert(300, 3, seed=3)),
    "cycle": lambda: DynamicGraph(generators.cycle_graph(40)),
    "path": lambda: DynamicGraph(generators.path_graph(40)),
    "lollipop": lambda: DynamicGraph(generators.lollipop_graph(8, 12)),
    "barbell": lambda: DynamicGraph(generators.barbell_graph(6, 5)),
    "star": lambda: DynamicGraph(generators.star_graph(20)),
    "grid": lambda: DynamicGraph(generators.grid_graph(12, 12)),
    "tombstoned-tree": _tombstoned_tree,
}


def _check_guards(graph):
    """Each guard answer equals networkx's for every edge and every node."""
    bridges, cuts = _cuts_by_networkx(graph)
    for key in graph.edges():
        assert graph._would_disconnect(key) == (key in bridges), key
    for node in graph.node_ids().tolist():
        assert graph._node_removal_disconnects(node) == (node in cuts), node
    return bridges, cuts


class TestDynamicGraph:
    def test_initial_state_mirrors_seed_graph(self, karate):
        graph = DynamicGraph(karate)
        assert graph.n == karate.n
        assert graph.m == karate.m
        assert graph.version == 0
        assert graph.is_unit_weighted
        assert graph.snapshot() is karate

    def test_add_edge_journals_and_bumps_version(self, path4):
        graph = DynamicGraph(path4)
        event = graph.add_edge(0, 3)
        assert graph.has_edge(0, 3) and graph.has_edge(3, 0)
        assert graph.version == 1
        assert event.kind == "add" and event.delta == 1.0 and event.version == 1
        assert graph.journal() == (event,)

    def test_add_existing_or_self_loop_rejected(self, path4):
        graph = DynamicGraph(path4)
        with pytest.raises(GraphError):
            graph.add_edge(0, 1)
        with pytest.raises(GraphError):
            graph.add_edge(2, 2)
        assert graph.version == 0

    def test_remove_edge(self, cycle5):
        graph = DynamicGraph(cycle5)
        event = graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert event.kind == "remove" and event.delta == -1.0
        assert graph.m == cycle5.m - 1

    def test_remove_missing_edge_rejected(self, path4):
        graph = DynamicGraph(path4)
        with pytest.raises(GraphError):
            graph.remove_edge(0, 2)

    def test_connectivity_guard_rejects_bridge_removal(self, path4):
        graph = DynamicGraph(path4)
        with pytest.raises(DisconnectedGraphError):
            graph.remove_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert graph.version == 0  # rejected edits leave no journal trace

    @pytest.mark.parametrize("family", list(GUARD_FAMILIES))
    def test_guards_match_a_full_traversal(self, family):
        graph = GUARD_FAMILIES[family]()
        bridges, cuts = _check_guards(graph)
        if family.isdigit():  # a chorded tree mixes both answers of each guard
            assert 0 < len(bridges) < graph.m and 0 < len(cuts) < graph.n
        for u, v in list(graph.edges()):
            version = graph.version
            if (u, v) in bridges:
                with pytest.raises(DisconnectedGraphError):
                    graph.remove_edge(u, v)
                assert graph.version == version and graph.has_edge(u, v)
            else:
                graph.remove_edge(u, v)
                graph.add_edge(u, v)
        graph.compact(graph.version)  # keeps the copies below cheap
        for node in graph.node_ids().tolist():
            version = graph.version
            if node in cuts:
                with pytest.raises(DisconnectedGraphError):
                    graph.remove_node(node)
                assert graph.version == version and graph.has_node(node)
            else:
                copy.deepcopy(graph).remove_node(node)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           steps=st.lists(st.tuples(st.sampled_from(("join", "leave", "insert",
                                                      "remove")),
                                    st.integers(0, 10**6),
                                    st.integers(0, 10**6)),
                          min_size=1, max_size=20))
    def test_guards_match_networkx_under_churn(self, seed, steps):
        rng = np.random.default_rng(seed)
        graph = DynamicGraph(generators.random_tree(10, seed=seed))
        for _ in range(3):
            u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        for kind, a, b in steps:
            bridges, cuts = _check_guards(graph)
            ids = graph.node_ids().tolist()
            u, v = ids[a % len(ids)], ids[b % len(ids)]
            if kind == "join":
                graph.add_node(sorted({u, v}))
            elif kind == "leave" and graph.n > 3:
                if u in cuts:
                    with pytest.raises(DisconnectedGraphError):
                        graph.remove_node(u)
                else:
                    graph.remove_node(u)
            elif kind == "insert" and u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
            elif kind == "remove":
                key = list(graph.edges())[a % graph.m]
                if key in bridges:
                    with pytest.raises(DisconnectedGraphError):
                        graph.remove_edge(*key)
                else:
                    graph.remove_edge(*key)
        _check_guards(graph)

    def test_id_table_follows_joins_and_leaves(self, tmp_path):
        base = generators.complete_graph(7)
        graph = DynamicGraph(base)
        active, events = set(range(7)), []

        def check(graph):
            ids = graph.snapshot_mapping()
            np.testing.assert_array_equal(ids, sorted(active))
            assert not ids.flags.writeable and graph.node_ids() is ids
            replay = replay_events(base, events)
            for position, node in enumerate(sorted(active)):
                assert graph.compact_index(node) == replay.compact_index(node) \
                    == position
            snapshot, expected = graph.snapshot(), replay.snapshot()
            assert sorted(zip(snapshot.edge_u.tolist(), snapshot.edge_v.tolist())) \
                == sorted(zip(expected.edge_u.tolist(), expected.edge_v.tolist()))
            assert (graph.laplacian_sparse() != replay.laplacian_sparse()).nnz == 0

        def leave(graph, node):
            events.append(graph.remove_node(node))
            active.discard(node)
            check(graph)

        def join(graph, attach):
            events.append(graph.add_node(attach))
            active.add(events[-1].node)
            check(graph)

        check(graph)
        leave(graph, 0)                # the smallest id
        join(graph, [1, 2])            # a join after a leave: id 7
        leave(graph, 7)                # the largest, right after its join
        leave(graph, 3)                # a middle id
        join(graph, [1, 6])            # id 8
        join(graph, [2, 8])            # id 9
        leave(graph, 8)                # a middle id that joined

        engine = DynamicCFCM(graph, seed=0)
        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)
        restored = DynamicCFCM.restore(path).graph   # restore rebuilds the table
        check(restored)
        join(restored, [1, 9])         # id 10
        leave(restored, 1)             # the smallest id
        leave(restored, 10)            # the largest, right after its join
        join(restored, [5, 6])         # id 11
        leave(restored, 5)             # a middle id

    def test_update_weight_journals_delta(self, cycle5):
        graph = DynamicGraph(cycle5)
        event = graph.update_weight(0, 1, 2.5)
        assert event.kind == "reweight" and event.delta == pytest.approx(1.5)
        assert graph.weight(0, 1) == pytest.approx(2.5)
        assert not graph.is_unit_weighted
        assert graph.update_weight(0, 1, 2.5) is None  # no-op, no version bump
        assert graph.version == 1
        with pytest.raises(InvalidParameterError):
            graph.update_weight(0, 1, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, cycle5, bad):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2, 2.0)
        before = (graph.version, graph.journal(), graph.m, graph.n)
        with pytest.raises(InvalidParameterError):
            graph.add_edge(1, 3, bad)
        with pytest.raises(InvalidParameterError):
            graph.update_weight(0, 1, bad)
        with pytest.raises(InvalidParameterError):
            graph.add_node({0: 1.0, 1: bad})
        assert (graph.version, graph.journal(), graph.m, graph.n) == before
        assert graph.weight(0, 1) == 1.0

    @pytest.mark.parametrize("weights", [
        np.ones(4), np.ones(6), np.ones((5, 1)),
        [1.0, 0.0, 1.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, float("nan"), 1.0, 1.0], [1.0, 1.0, 1.0, float("inf"), 1.0],
        {(0, 1): 2.0},
    ])
    def test_weight_array_validated(self, cycle5, weights):
        with pytest.raises(InvalidParameterError):
            DynamicGraph(cycle5, weights=weights)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bulk_build_matches_loop_build(self, medium_ba, weighted):
        weights = (np.random.default_rng(3).uniform(0.5, 3.0, size=medium_ba.m)
                   if weighted else None)
        graph = DynamicGraph(medium_ba, weights=weights)
        # The per-edge construction the bulk build replaced.
        expected = {(int(u), int(v)): 1.0
                    for u, v in zip(medium_ba.edge_u, medium_ba.edge_v)}
        adjacency = [set() for _ in range(medium_ba.n)]
        for u, v in expected:
            adjacency[u].add(v)
            adjacency[v].add(u)
        if weighted:
            for key, value in zip(list(expected), weights):
                expected[key] = float(value)
        assert list(graph._weights.items()) == list(expected.items())
        assert graph._adjacency == adjacency
        assert graph.is_unit_weighted is not weighted

    def test_edge_arrays_follow_the_weight_map(self, karate):
        graph = DynamicGraph(karate)
        graph.update_weight(0, 1, 2.5)
        graph.remove_edge(0, 2)
        graph.add_edge(5, 9, 1.5)
        graph.add_node({3: 0.5, 4: 1.0})
        u, v, w = graph.edge_arrays()
        items = list(graph._weights.items())
        assert list(zip(u.tolist(), v.tolist())) == [key for key, _ in items]
        assert w.tolist() == [value for _, value in items]
        assert not (u.flags.writeable or v.flags.writeable or w.flags.writeable)
        assert graph.edge_arrays() is graph.edge_arrays()  # cached per version
        graph.update_weight(0, 1, 3.0)
        assert graph.edge_arrays()[2].tolist() == list(graph._weights.values())

    def test_snapshot_rebuilds_and_caches_per_version(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2)
        first = graph.snapshot()
        assert first.has_edge(0, 2) and first.m == cycle5.m + 1
        assert graph.snapshot() is first
        graph.remove_edge(0, 2)
        assert not graph.snapshot().has_edge(0, 2)

    def test_journal_since(self, cycle5):
        graph = DynamicGraph(cycle5)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        graph.remove_edge(0, 2)
        assert [e.version for e in graph.journal_since(0)] == [1, 2, 3]
        assert [e.version for e in graph.journal_since(1)] == [2, 3]
        assert graph.journal_since(3) == []

    def test_disconnected_seed_rejected(self):
        disconnected = repro.Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            DynamicGraph(disconnected)

    def test_laplacian_dense_matches_unweighted(self, karate):
        graph = DynamicGraph(karate)
        from repro.linalg.laplacian import laplacian_dense

        assert np.allclose(graph.laplacian_dense(), laplacian_dense(karate))

    def test_weighted_laplacian(self, path4):
        graph = DynamicGraph(path4)
        graph.update_weight(0, 1, 3.0)
        lap = graph.laplacian_dense()
        assert lap[0, 1] == pytest.approx(-3.0)
        assert lap[0, 0] == pytest.approx(3.0)
        assert lap[1, 1] == pytest.approx(4.0)


class TestEdgeUpdateRoutine:
    """Sherman–Morrison edge updates against fresh inversion."""

    def _grounded(self, graph, group):
        from repro.linalg.laplacian import grounded_laplacian_dense

        matrix, kept = grounded_laplacian_dense(graph, group)
        return np.linalg.inv(matrix), kept

    def test_interior_edge_insertion(self, karate):
        inverse, kept = self._grounded(karate, [0])
        local = {int(node): i for i, node in enumerate(kept)}
        u, v = 15, 20
        assert not karate.has_edge(u, v)
        updated = grounded_inverse_edge_update(inverse, local[u], local[v], 1.0)
        edges = list(karate.edges()) + [(u, v)]
        fresh, _ = self._grounded(repro.Graph(karate.n, edges), [0])
        assert np.allclose(updated, fresh, atol=1e-8)

    def test_grounded_endpoint_insertion(self, karate):
        inverse, kept = self._grounded(karate, [0])
        local = {int(node): i for i, node in enumerate(kept)}
        u = 9  # new edge (0, 9); endpoint 0 is grounded
        assert not karate.has_edge(0, u)
        updated = grounded_inverse_edge_update(inverse, local[u], None, 1.0)
        edges = list(karate.edges()) + [(0, u)]
        fresh, _ = self._grounded(repro.Graph(karate.n, edges), [0])
        assert np.allclose(updated, fresh, atol=1e-8)

    def test_edge_deletion_and_reweight(self, karate):
        inverse, kept = self._grounded(karate, [33])
        local = {int(node): i for i, node in enumerate(kept)}
        # (2, 3) is a removable (non-bridge) edge of the karate club.
        removed = grounded_inverse_edge_update(inverse, local[2], local[3], -1.0)
        edges = [e for e in karate.edges() if e != (2, 3)]
        fresh, _ = self._grounded(repro.Graph(karate.n, edges), [33])
        assert np.allclose(removed, fresh, atol=1e-8)
        # Reweighting by delta then -delta round-trips.
        heavier = grounded_inverse_edge_update(inverse, local[2], local[3], 0.7)
        back = grounded_inverse_edge_update(heavier, local[2], local[3], -0.7)
        assert np.allclose(back, inverse, atol=1e-8)

    def test_zero_delta_is_identity(self, karate):
        inverse, _ = self._grounded(karate, [0])
        assert np.array_equal(
            grounded_inverse_edge_update(inverse, 1, 2, 0.0), inverse
        )

    def test_singular_update_raises(self, path4):
        inverse, kept = self._grounded(path4, [0])
        local = {int(node): i for i, node in enumerate(kept)}
        # Removing the bridge (2, 3) makes the grounded matrix singular.
        with pytest.raises(InvalidParameterError):
            grounded_inverse_edge_update(inverse, local[2], local[3], -1.0)

    def test_bad_indices_rejected(self, karate):
        inverse, _ = self._grounded(karate, [0])
        with pytest.raises(InvalidParameterError):
            grounded_inverse_edge_update(inverse, -1, 2, 1.0)
        with pytest.raises(InvalidParameterError):
            grounded_inverse_edge_update(inverse, 4, 4, 1.0)
        with pytest.raises(InvalidParameterError):
            grounded_inverse_edge_update(np.ones((2, 3)), 0, 1, 1.0)


class TestIncrementalResistance:
    def test_matches_fresh_trace_after_random_journal(self, medium_ba):
        graph = DynamicGraph(medium_ba)
        tracker = IncrementalResistance(graph, [0, 5])
        rng = np.random.default_rng(99)
        events = random_update_journal(graph, 50, rng)
        assert len(events) == 50
        assert tracker.trace() == pytest.approx(
            grounded_trace(graph.snapshot(), [0, 5]), rel=1e-9
        )
        # The whole 50-event suffix folds in as a single rank-50 Woodbury
        # batch (no chained rank-1 steps, no refresh).
        assert tracker.stats.batch_updates == 1
        assert tracker.stats.batched_events == 50
        assert tracker.stats.rank1_updates == 0
        assert tracker.stats.refreshes == 0

    def test_refresh_policy_triggers(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, [0])
        # 72 relevant events in one burst: past the dense budget of 64.
        random_update_journal(graph, 72, np.random.default_rng(1))
        tracker.trace()
        assert tracker.stats.refreshes >= 1
        assert tracker.trace() == pytest.approx(
            grounded_trace(graph.snapshot(), [0]), rel=1e-9
        )

    def test_reweight_tracked(self, karate):
        graph = DynamicGraph(karate)
        tracker = IncrementalResistance(graph, [0])
        graph.update_weight(2, 3, 4.0)
        kept_lap = graph.laplacian_dense()[1:, 1:]
        assert tracker.trace() == pytest.approx(
            float(np.trace(np.linalg.inv(kept_lap))), rel=1e-9
        )

    def test_resistance_and_cfcc_queries(self, karate):
        graph = DynamicGraph(karate)
        tracker = IncrementalResistance(graph, [0, 33])
        graph.add_edge(4, 25)
        snapshot = graph.snapshot()
        from repro.centrality.resistance import resistance_to_group

        assert tracker.resistance_to_group(16) == pytest.approx(
            resistance_to_group(snapshot, 16, [0, 33]), rel=1e-9
        )
        assert tracker.resistance_to_group(0) == 0.0
        from repro.exceptions import InvalidNodeError

        with pytest.raises(InvalidNodeError):
            tracker.resistance_to_group(-1)
        assert tracker.group_cfcc() == pytest.approx(
            group_cfcc(snapshot, [0, 33]), rel=1e-9
        )
        assert tracker.synced_version == graph.version

    def test_grounded_grounded_edge_skipped(self, karate):
        graph = DynamicGraph(karate)
        tracker = IncrementalResistance(graph, [0, 9])
        assert not graph.has_edge(0, 9)
        graph.add_edge(0, 9)  # both endpoints grounded: inverse unaffected
        for step in range(70):
            graph.update_weight(0, 9, 2.0 + step % 2)
        before = tracker.stats.rank1_updates
        assert tracker.trace() == pytest.approx(
            grounded_trace(graph.snapshot(), [0, 9]), rel=1e-9
        )
        assert tracker.stats.rank1_updates == before
        # Irrelevant events must not count against the staleness budget either
        # (71 events > the dense budget of 64, yet no refresh happened).
        assert tracker.stats.refreshes == 0

    def test_invalid_group_rejected(self, karate):
        graph = DynamicGraph(karate)
        with pytest.raises(InvalidParameterError):
            IncrementalResistance(graph, [])


class TestDynamicCFCM:
    def test_query_cache_hit_until_mutation(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        first = engine.query(3, method="exact")
        second = engine.query(3, method="exact")
        assert second is first
        assert engine.stats.query_hits == 1 and engine.stats.query_misses == 1
        apply_random_update(engine.graph, np.random.default_rng(0))
        third = engine.query(3, method="exact")
        assert third is not first
        assert engine.stats.query_misses == 2
        assert 0.0 < engine.stats.hit_rate() < 1.0

    def test_distinct_parameters_cached_separately(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        engine.query(2, method="degree")
        engine.query(3, method="degree")
        assert engine.stats.query_misses == 2

    def test_accepts_plain_graph(self, small_ba):
        engine = DynamicCFCM(small_ba, seed=0)
        assert isinstance(engine.graph, DynamicGraph)
        assert engine.graph.version == 0

    def test_evaluate_exact_matches_batch(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        random_update_journal(engine.graph, 10, np.random.default_rng(5))
        group = [0, 1, 2]
        assert engine.evaluate(group, mode="exact") == pytest.approx(
            group_cfcc(engine.graph.snapshot(), group), rel=1e-9
        )
        with pytest.raises(InvalidParameterError):
            engine.evaluate(group, mode="quantum")

    def test_evaluate_forest_within_tolerance(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0, pool_size=192)
        group = [0, 1]
        estimate = engine.evaluate(group, mode="forest")
        exact = group_cfcc(engine.graph.snapshot(), group)
        assert estimate == pytest.approx(exact, rel=0.25)

    def test_forest_pool_selective_invalidation(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=16)
        group = [0, 33]
        engine.evaluate_forest(group)
        assert engine.stats.forests_resampled == 16
        pool = engine._pools[(0, 33)]
        # Remove an edge: only the forests whose parent pointers use it are
        # dropped, the rest of the pool survives at full weight.
        removed = graph.remove_edge(2, 3)
        invalid = int(np.count_nonzero(pool.batch().uses_edge(removed.u, removed.v)))
        engine.evaluate_forest(group)
        assert pool.size == 16
        assert engine.stats.forests_dropped == invalid
        assert engine.stats.forests_resampled == 16 + invalid
        assert engine.stats.forests_kept >= 16 - invalid

    def test_forest_pool_survives_insertions_with_decayed_ess(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=8)
        engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        assert pool.ess() == pytest.approx(8.0)
        graph.add_edge(15, 20)
        engine.evaluate_forest([0])
        # Insertions never flush: the stored forests survive with uniformly
        # decayed importance weights, and the decay shows up as ESS < size.
        assert engine.stats.pools_flushed == 0
        assert pool.size == 8
        assert 0.0 < pool.ess() < 8.0
        assert np.all(pool.weights() < 1.0)

    def test_ess_floor_triggers_fresh_topup(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=8, ess_floor=0.9)
        engine.evaluate_forest([0])
        resampled = engine.stats.forests_resampled
        # Pile on insertions until the decayed ESS crosses the (high) floor.
        for u, v in [(15, 20), (15, 22), (16, 23), (16, 24), (17, 25)]:
            graph.add_edge(u, v)
        engine.evaluate_forest([0])
        assert engine.stats.ess_topups >= 1
        assert engine.stats.forests_resampled > resampled
        assert engine.stats.pools_flushed == 0
        # The top-up restored the pool above its floor.
        pool = engine._pools[(0,)]
        assert pool.ess() >= 0.9 * 8 - 1e-9

    def test_empty_pool_restarts_fresh(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=4)
        engine.evaluate_forest([0])
        # Simulate a deletion having invalidated every stored forest.
        graph.remove_edge(2, 3)
        engine._pools[(0,)].flush()
        engine.evaluate_forest([0])  # refilled entirely from current snapshot
        pool = engine._pools[(0,)]
        assert pool.size == 4
        assert pool.ess() == pytest.approx(4.0)
        graph.add_edge(15, 20)
        engine.evaluate_forest([0])  # one insertion must not flush fresh pool
        assert engine.stats.pools_flushed == 0

    def test_forest_pool_survives_reweight_roundtrip(self, karate):
        graph = DynamicGraph(karate)
        engine = DynamicCFCM(graph, seed=1, pool_size=4)
        baseline = engine.evaluate_forest([0])
        pool = engine._pools[(0,)]
        graph.update_weight(0, 1, 2.0)
        with pytest.raises(InvalidParameterError):
            engine.evaluate_forest([0])  # non-unit weights: estimator invalid
        engine.sync()
        # The reweight applied the exact density ratio to the edge's users
        # instead of flushing the pool.
        assert pool.size == 4
        assert engine.stats.pools_flushed == 0
        users = np.count_nonzero(pool.weights() > 1.0)
        assert users == engine.stats.forests_reweighted
        graph.update_weight(0, 1, 1.0)
        # The round-trip cancels exactly: same forests, same weights, and
        # (version aside) the same estimate as before the excursion.
        assert engine.evaluate_forest([0]) == pytest.approx(baseline, rel=1e-12)
        assert pool.weights() == pytest.approx(np.ones(4))

    def test_eval_cache_hits(self, karate):
        engine = DynamicCFCM(DynamicGraph(karate), seed=0, pool_size=4)
        first = engine.evaluate_forest([0])
        assert engine.evaluate_forest([0]) == first
        assert engine.stats.eval_hits == 1

    def test_weighted_graph_query_guard(self, karate):
        graph = DynamicGraph(karate)
        graph.update_weight(0, 1, 2.0)
        engine = DynamicCFCM(graph, seed=0)
        # Every selection method works on the unit-weight snapshot, so all of
        # them must refuse weighted graphs (including exact greedy).
        for method in ("schur", "exact", "degree"):
            with pytest.raises(InvalidParameterError, match="unit edge weights"):
                engine.query(2, method=method)
        graph.update_weight(0, 1, 1.0)
        assert len(engine.query(2, method="degree").group) == 2

    def test_query_validates_before_cache_lookup(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0)
        engine.query(3, method="degree")
        # int(3.7) would collide with the cached k=3 key; validation must win.
        with pytest.raises(InvalidParameterError):
            engine.query(3.7, method="degree")
        with pytest.raises(InvalidParameterError):
            engine.query(small_ba.n, method="degree")
        with pytest.raises(InvalidParameterError):
            engine.query(2, method="schur", eps=0.0)

    def test_caches_are_bounded(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0, cache_capacity=3,
                             pool_size=2)
        for k in range(1, 6):
            engine.query(k, method="degree")
            engine.evaluate_exact([k])
            engine.evaluate_forest([k])
        assert len(engine._query_cache) == 3
        assert len(engine._trackers) == 3
        assert len(engine._pools) == 3
        assert len(engine._eval_cache) == 3
        # The most recently used entries survive eviction.
        assert (5,) in engine._trackers and (1,) not in engine._trackers

    def test_query_cache_is_lru_not_fifo(self, small_ba):
        engine = DynamicCFCM(DynamicGraph(small_ba), seed=0, cache_capacity=2)
        hot = engine.query(1, method="degree")
        engine.query(2, method="degree")
        assert engine.query(1, method="degree") is hot  # hit refreshes recency
        engine.query(3, method="degree")  # evicts k=2, not the hot k=1 entry
        assert engine.query(1, method="degree") is hot
        assert engine.stats.query_hits == 2
        assert engine.stats.query_misses == 3


class TestAcceptance:
    """ISSUE acceptance: engine output tracks from-scratch recomputation."""

    @pytest.mark.slow
    def test_engine_matches_fresh_run_after_50_updates(self, medium_ba):
        graph = DynamicGraph(medium_ba)
        engine = DynamicCFCM(graph, seed=7,
                             config=repro.SamplingConfig(eps=0.3, max_samples=64))
        engine.query(4, method="schur")  # warm state on the seed topology
        events = random_update_journal(graph, 50, np.random.default_rng(17))
        assert len(events) == 50

        result = engine.query(4, method="schur")
        fresh = repro.maximize_cfcc(
            graph.snapshot(), 4, method="schur", eps=0.3, seed=7,
            config=repro.SamplingConfig(eps=0.3, max_samples=64),
        )
        snapshot = graph.snapshot()
        engine_value = group_cfcc(snapshot, result.group)
        fresh_value = group_cfcc(snapshot, fresh.group)
        # Both are eps-approximate maximisers of the same objective on the
        # post-journal graph, so their exact CFCC must agree to within
        # estimator tolerance.
        assert engine_value == pytest.approx(fresh_value, rel=0.15)
        # And the incremental evaluation path agrees with dense inversion.
        assert engine.evaluate_exact(result.group) == pytest.approx(
            engine_value, rel=1e-8
        )


class TestWorkloadHelpers:
    def test_random_journal_preserves_invariants(self, small_ba):
        graph = DynamicGraph(small_ba)
        events = random_update_journal(graph, 30, np.random.default_rng(3))
        assert len(events) == 30
        assert graph.version == 30
        from repro.graph.traversal import is_connected

        assert is_connected(graph.snapshot())

    def test_add_only_stream(self, path4):
        graph = DynamicGraph(path4)
        events = random_update_journal(graph, 3, np.random.default_rng(0),
                                       add_probability=1.0)
        assert {e.kind for e in events} == {"add"}
        # The 4-node path has no removable edge: deletion attempts fall back
        # to insertions until the clique fills up.
        graph_full = DynamicGraph(generators.complete_graph(3))
        assert apply_random_update(graph_full, np.random.default_rng(0),
                                   add_probability=1.0) is not None
