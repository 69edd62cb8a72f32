"""Tests for the sharded CFCM backend (repro.distributed)."""

import numpy as np
import pytest

from repro import obs
from repro.distributed import ShardedCFCM, partition_graph
from repro.distributed import engine as sharded_engine
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.dynamic import resistance as resistance_module
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.linalg import SparseResistanceBackend
from repro.obs.tracing import disable_tracing, enable_tracing
from repro.sampling.pool import WeightedForestPool


def grid(rows=6, cols=8):
    return DynamicGraph(generators.grid_graph(rows, cols))


def dense_reference(graph, group):
    """From-scratch grounded inverse of the current graph state."""
    lap = graph.laplacian_dense()
    grounded = set(graph.compact_nodes(group))
    keep = [i for i in range(graph.n) if i not in grounded]
    inverse = np.linalg.inv(lap[np.ix_(keep, keep)])
    return inverse, {c: i for i, c in enumerate(keep)}


def assert_matches_reference(engine, graph, group, atol=1e-8):
    inverse, position = dense_reference(graph, group)
    cfcc_ref = graph.n / np.trace(inverse)
    assert engine.evaluate_exact(group) == pytest.approx(cfcc_ref, abs=atol)
    grounded = set(group)
    for node in (int(x) for x in graph.node_ids()):
        if node in grounded:
            assert engine.resistance_to_group(node, group) == 0.0
            continue
        ref = inverse[position[graph.compact_index(node)],
                      position[graph.compact_index(node)]]
        assert engine.resistance_to_group(node, group) == pytest.approx(
            ref, abs=atol)


class TestPartition:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_interior_coupling_invariant(self, shards):
        graph = grid()
        part = partition_graph(graph, shards)
        sep = set(part.separator)
        owner = {}
        for index, interior in enumerate(part.parts):
            for node in interior:
                owner[node] = index
        for node, index in owner.items():
            for neighbour in graph.neighbors(node):
                assert neighbour in sep or owner[neighbour] == index
        covered = set(sep) | set(owner)
        assert covered == {int(x) for x in graph.node_ids()}

    def test_parts_balanced_and_separator_small(self):
        graph = grid(10, 10)
        part = partition_graph(graph, 4)
        assert min(len(p) for p in part.parts) > 0
        # Homes (pre-promotion) are what the BFS balances; the greedy cover
        # then bites unevenly into boundary-heavy parts.
        homes = [sum(1 for p in part.home.values() if p == i) for i in range(4)]
        assert max(homes) <= 2 * min(homes)
        assert 0 < len(part.separator) < graph.n // 2

    def test_explicit_seeds_pin_homes(self):
        graph = grid()
        part = partition_graph(graph, 2, seeds=[0, 47])
        assert part.home[0] == 0 and part.home[47] == 1

    def test_invalid_arguments(self):
        graph = grid(2, 2)
        with pytest.raises(InvalidParameterError):
            partition_graph(graph, 5)
        with pytest.raises(InvalidParameterError):
            partition_graph(graph, 2, seeds=[0])
        with pytest.raises(InvalidParameterError):
            partition_graph(graph, 2, seeds=[0, 0])
        with pytest.raises(InvalidParameterError):
            partition_graph(graph, 2, seeds=[0, 99])

    def test_describe(self):
        part = partition_graph(grid(), 3)
        assert part.shards == 3
        assert len(part.parts) == 3


class TestShardedCorrectness:
    """Satellite: stitched answers match the dense reference to 1e-8."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_mixed_churn_matches_reference(self, backend, shards):
        graph = grid()
        engine = ShardedCFCM(graph, shards=shards, seed=7, backend=backend)
        group = [0, 27]
        assert_matches_reference(engine, graph, group)

        sep = set(engine.partition.separator)
        edges = list(graph.edges())
        interior = [e for e in edges if e[0] not in sep and e[1] not in sep]
        boundary = [e for e in edges if (e[0] in sep) != (e[1] in sep)]
        through = [e for e in edges if e[0] in sep and e[1] in sep]
        # Mixed churn touching every event class the classifier knows,
        # including cross-shard-boundary reweights and removals.
        for i, (u, v) in enumerate(interior[:5]):
            graph.update_weight(u, v, 1.0 + 0.3 * (i + 1))
        for i, (u, v) in enumerate(boundary[:5]):
            graph.update_weight(u, v, 2.0 + 0.2 * i)
        for u, v in through[:2]:
            graph.update_weight(u, v, 1.7)
        assert_matches_reference(engine, graph, group)

        removed = next((u, v) for u, v in interior[5:]
                       if graph.degree(u) > 1 and graph.degree(v) > 1)
        graph.remove_edge(*removed)
        graph.add_edge(*removed, 0.5)
        assert_matches_reference(engine, graph, group)

    def test_cross_shard_insertion_rebuilds_and_matches(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=2, seed=11)
        engine.evaluate_exact([0])
        part = engine.partition
        u = part.parts[0][0]
        v = part.parts[1][-1]
        assert not graph.has_edge(u, v)
        graph.add_edge(u, v, 1.0)
        assert_matches_reference(engine, graph, [0])
        assert engine.rebuilds == 1

    def test_node_churn_grows_and_shrinks_separator(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=3, seed=5)
        group = [4]
        assert_matches_reference(engine, graph, group)
        before = len(engine.partition.separator)

        # A hub wired into several parts must enter (or reshape) the
        # separator; answers stay exact through the structural rebuild.
        spread = [part[0] for part in engine.partition.parts]
        joined = graph.add_node(edges=[(n, 1.0) for n in spread]).node
        assert_matches_reference(engine, graph, group)
        assert engine.rebuilds == 1
        grown = len(engine.partition.separator)
        assert grown != before or joined in engine.partition.separator_set

        graph.remove_node(joined)
        assert_matches_reference(engine, graph, group)
        assert engine.rebuilds == 2

    def test_group_containing_separator_nodes(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=3, seed=2)
        separator_node = engine.partition.separator[0]
        group = [separator_node, 1]
        assert_matches_reference(engine, graph, group)
        for u, v in list(graph.edges())[::9]:
            graph.update_weight(u, v, 1.4)
        assert_matches_reference(engine, graph, group)

    def test_matches_single_tracker_engine(self):
        graph = grid()
        sharded = ShardedCFCM(graph, shards=3, seed=1)
        single = DynamicCFCM(grid(), seed=1)
        group = [0, 33]
        assert sharded.evaluate_exact(group) == pytest.approx(
            single.evaluate_exact(group), abs=1e-9)

    def test_sketched_coupling_mean_matches_reference(self, monkeypatch):
        # Every shard here keeps fewer rows than the exact-solve threshold;
        # at 0 the sparse shards sketch Tr(M·W_iᵀA_i⁻²W_i) from their
        # probe blocks, so the answer varies with the probe seed and only
        # its mean tracks the dense reference.
        monkeypatch.setattr(sharded_engine, "EXACT_COUPLING_ROWS", 0)
        group = [0, 60]
        values = []
        for seed in range(16):
            # Shard trackers resolve their backend here; each run draws
            # another probe stream.
            monkeypatch.setattr(
                resistance_module, "make_resistance_backend",
                lambda spec, n=0, m=0, seed=seed: SparseResistanceBackend(
                    seed=seed))
            graph = grid(10, 12)
            engine = ShardedCFCM(graph, shards=3, seed=0, backend="sparse")
            values.append(engine.evaluate_exact(group))
        inverse, _ = dense_reference(graph, group)
        assert len(set(values)) > 1
        assert np.mean(values) == pytest.approx(graph.n / np.trace(inverse),
                                                rel=0.05)


class TestQueriesAndEstimator:
    def test_query_agrees_with_single_engine(self):
        graph = grid()
        sharded = ShardedCFCM(graph, shards=3, seed=4)
        single = DynamicCFCM(grid(), seed=4)
        got = sharded.query(3, method="exact")
        want = single.query(3, method="exact")
        assert list(got.group) == list(want.group)
        # Version-keyed cache: a repeat is a hit, a mutation a miss.
        sharded.query(3, method="exact")
        assert sharded.stats.query_hits == 1
        graph.add_edge(0, 9, 1.0)
        sharded.query(3, method="exact")
        assert sharded.stats.query_misses == 2

    def test_forest_estimate_and_merged_ess(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=3, seed=6, pool_size=32)
        group = [0, 20]
        exact = engine.evaluate_exact(group)
        estimate = engine.evaluate_forest(group)
        assert estimate == pytest.approx(exact, rel=0.15)
        merged = engine.merged_ess()
        assert 0.0 < merged <= 32.0
        assert engine.stats.pool_ess["merged"] == merged
        health = engine.pool_health()
        assert "merged" in health
        assert health["merged"]["ess"] == merged
        assert any(key.startswith("s0:") for key in health)

    def test_weighted_graph_rejects_sampling_paths(self):
        graph = grid()
        graph.update_weight(0, 1, 2.0)
        engine = ShardedCFCM(graph, shards=2, seed=3)
        with pytest.raises(InvalidParameterError):
            engine.evaluate_forest([0])
        with pytest.raises(InvalidParameterError):
            engine.query(2)
        # evaluate_exact stays available on weighted graphs.
        assert engine.evaluate_exact([0]) > 0.0

    @pytest.mark.parametrize("make", [
        lambda graph: DynamicCFCM(graph, seed=6),
        lambda graph: ShardedCFCM(graph, shards=3, seed=6),
    ], ids=["dynamic", "sharded"])
    def test_cached_forest_read_counts_one_hit(self, make):
        engine = make(grid())
        engine.evaluate_forest([0, 20])
        engine.evaluate_forest([0, 20])
        assert (engine.stats.eval_hits, engine.stats.eval_misses) == (1, 1)

    def test_evaluate_dispatch(self):
        engine = ShardedCFCM(grid(), shards=2, seed=8)
        assert engine.evaluate([0], mode="exact") == engine.evaluate_exact([0])
        assert engine.evaluate([0], mode="forest") == pytest.approx(
            engine.evaluate_forest([0]))
        with pytest.raises(InvalidParameterError):
            engine.evaluate([0], mode="telepathy")

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardedCFCM(grid(), shards=0)
        for executor in ("gpu", "thread"):
            with pytest.raises(InvalidParameterError):
                ShardedCFCM(grid(), executor=executor)

    def test_describe_and_pending(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=2, seed=1)
        assert engine.partition.shards == 2
        graph.add_edge(0, 9, 1.0)
        assert engine.pending_events == 1
        engine.sync()
        assert engine.pending_events == 0


class TestShardedObservability:
    def test_metrics_and_spans_emitted(self):
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
        tracer = enable_tracing()
        try:
            graph = grid()
            engine = ShardedCFCM(graph, shards=3, seed=2)
            engine.evaluate_exact([0])
            for u, v in list(graph.edges())[::6]:
                graph.update_weight(u, v, 1.5)
            engine.evaluate_exact([0])
            assert obs.REGISTRY.get("repro_shard_count").value() == 3.0
            assert obs.REGISTRY.get("repro_shard_separator_nodes").value() > 0
            events = obs.REGISTRY.get("repro_shard_events_total")
            assert sum(v for _, v in events.series()) > 0
            sync_hist = obs.REGISTRY.get("repro_shard_sync_seconds")
            assert sync_hist is not None and sync_hist.series()
            names = {span["name"] for span in tracer.spans()}
            assert "shard_sync" in names and "schur_stitch" in names
        finally:
            disable_tracing()
            obs.REGISTRY.reset()
            obs.REGISTRY.disable()

    def test_rebuild_counter_tracks_structural_events(self):
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
        try:
            graph = grid()
            engine = ShardedCFCM(graph, shards=2, seed=2)
            engine.evaluate_exact([0])
            graph.add_node(edges=[(0, 1.0), (1, 1.0)])
            engine.evaluate_exact([0])
            assert engine.rebuilds == 1
            rebuilt = obs.REGISTRY.get("repro_shard_rebuilds_total")
            assert rebuilt.value() >= 1.0
        finally:
            obs.REGISTRY.reset()
            obs.REGISTRY.disable()


class TestAdaptiveFloorSatellites:
    """Adaptive ESS floors of the pools and of the sharded engine."""

    def test_adaptive_floor_relaxes_under_churn(self):
        pool = WeightedForestPool([0], capacity=16, ess_floor=0.5,
                                  adaptive_floor=True)
        assert pool.effective_floor() == 0.5
        # Sustained staleness mass folds into churn pressure and relaxes
        # the floor toward the 0.25 bench optimum; a static pool keeps it.
        pool._churn_accum = 4.0
        pool.plan_refresh()
        assert pool.effective_floor() < 0.5
        assert pool.effective_floor() >= 0.25
        static = WeightedForestPool([0], capacity=16, ess_floor=0.5)
        static._churn_accum = 4.0
        static.plan_refresh()
        assert static.effective_floor() == 0.5

    def test_floor_gauge_exposed_through_health(self):
        graph = grid()
        engine = ShardedCFCM(graph, shards=2, seed=3, pool_size=8)
        engine.evaluate_forest([0])
        health = engine.pool_health()
        pool_keys = [k for k in health if k != "merged"]
        assert pool_keys
        for key in pool_keys:
            assert "ess_floor" in health[key]
        assert health["merged"]["ess_floor"] <= max(
            health[k]["ess_floor"] for k in pool_keys)
