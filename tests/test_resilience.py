"""Tests for the resilience layer: fault injection, degradation, recovery."""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.centrality.estimators import SamplingConfig
from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    IncrementalResistance,
    apply_event,
    random_churn_journal,
)
from repro.exceptions import (
    ConvergenceError,
    InjectedFaultError,
    InvalidParameterError,
    NumericalDriftError,
    ServiceOverloadedError,
)
from repro.graph import generators
from repro.linalg.backends import DenseResistanceBackend, ResistanceBackend
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    ResidualWatchdog,
    RetryPolicy,
)
from repro.service import AsyncCFCMService
from repro.utils.faultpoints import fault_point
from repro.worlds import FaultSpec, WorldSpec, faulted_smoke_specs, run_world
from repro.worlds.spec import ChurnSpec, EstimatorSpec, TrafficSpec

GROUP = (0, 1, 2)


def run(coroutine):
    return asyncio.run(coroutine)


def missing_edge(graph):
    """First absent (u, v) pair of the current topology."""
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


class TestFaultPlans:
    def test_unknown_site_and_regime_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultRule("backend.nope")
        with pytest.raises(InvalidParameterError):
            FaultPlan.for_regime("explosions")
        with pytest.raises(InvalidParameterError):
            FaultPlan(rules=(FaultRule("solver.cg"), FaultRule("solver.cg")))

    def test_injection_is_deterministic(self):
        plan = FaultPlan(
            rules=(FaultRule("solver.cg", probability=0.5, limit=None),),
            seed=123,
        )

        def drive():
            outcomes = []
            with FaultInjector(plan) as injector:
                for _ in range(40):
                    try:
                        fault_point("solver.cg")
                        outcomes.append(False)
                    except ConvergenceError:
                        outcomes.append(True)
            return outcomes, injector.total_injected

        first, count_a = drive()
        second, count_b = drive()
        assert first == second
        assert count_a == count_b == sum(first) > 0

    def test_limit_caps_injections(self):
        plan = FaultPlan(
            rules=(FaultRule("service.worker", probability=1.0, limit=2),),
            seed=0,
        )
        errors = 0
        with FaultInjector(plan) as injector:
            for _ in range(10):
                try:
                    fault_point("service.worker")
                except InjectedFaultError:
                    errors += 1
        assert errors == 2
        assert injector.injected == {"service.worker": 2}

    def test_injected_convergence_error_is_structured(self):
        plan = FaultPlan(
            rules=(FaultRule("solver.cg", probability=1.0, magnitude=0.5),),
            seed=0,
        )
        with FaultInjector(plan):
            with pytest.raises(ConvergenceError) as excinfo:
                fault_point("solver.cg")
        assert excinfo.value.iterations == 0
        assert excinfo.value.residual == 0.5

    def test_no_gate_means_no_faults(self):
        fault_point("solver.cg")  # no injector installed: a no-op


class TestWatchdog:
    def test_validation_and_state_round_trip(self):
        with pytest.raises(InvalidParameterError):
            ResidualWatchdog(threshold=0.0)
        with pytest.raises(InvalidParameterError):
            ResidualWatchdog(interval=-1)
        watchdog = ResidualWatchdog(threshold=1e-9, interval=2, seed=5)
        assert not watchdog.tick() and watchdog.tick()
        assert watchdog.record(1e-3, group="0,1")
        watchdog.count_trip()
        clone = ResidualWatchdog.from_state(watchdog.state_dict())
        assert clone.state_dict() == watchdog.state_dict()
        assert clone.pick_row(17) == watchdog.pick_row(17)

    def test_drift_detected_and_healed(self):
        base = generators.barabasi_albert(24, 2, seed=3)
        engine = DynamicCFCM(DynamicGraph(base), seed=0, backend="dense",
                             watchdog_interval=1)
        engine.evaluate_exact(GROUP)
        tracker = next(iter(engine._trackers.values()))
        assert tracker.watchdog is not None
        tracker.backend.inverse += 0.05  # corrupt the tracked inverse

        u, v = missing_edge(engine.graph)
        engine.graph.add_edge(u, v)
        healed = engine.evaluate_exact(GROUP)

        reference_graph = DynamicGraph(base)
        reference_graph.add_edge(u, v)
        reference = DynamicCFCM(reference_graph, seed=0,
                                backend="dense").evaluate_exact(GROUP)
        assert healed == pytest.approx(reference, rel=1e-10)
        assert tracker.watchdog.trips >= 1
        assert tracker.stats.drift_refreshes >= 1

    def test_verify_without_repair_raises_typed_drift_error(self):
        graph = DynamicGraph(generators.barabasi_albert(20, 2, seed=4))
        tracker = IncrementalResistance(graph, GROUP, backend="dense")
        tracker.sync()
        tracker.backend.inverse += 0.1
        with pytest.raises(NumericalDriftError) as excinfo:
            tracker.verify(threshold=1e-8, repair=False)
        assert excinfo.value.residual > excinfo.value.threshold == 1e-8


class TestFailover:
    def test_sparse_factorization_failure_fails_over_to_dense(self):
        graph = DynamicGraph(generators.barabasi_albert(24, 2, seed=6))
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        tracker.sync()
        plan = FaultPlan(
            rules=(FaultRule("backend.factorize", probability=1.0, limit=1),),
            seed=0,
        )
        u, v = missing_edge(graph)
        with FaultInjector(plan) as injector:
            # A node event forces the sparse backend through a fresh
            # factorisation, which the injector breaks exactly once.
            graph.add_node([(u, 1.0), (v, 1.0)])
            value = tracker.group_cfcc()
        assert injector.total_injected == 1
        assert isinstance(tracker.backend, DenseResistanceBackend)
        assert tracker.stats.failovers == 1

        reference = IncrementalResistance(graph, GROUP,
                                          backend="dense").group_cfcc()
        assert value == pytest.approx(reference, rel=1e-10)

    def test_failed_sync_commits_nothing(self):
        base = generators.barabasi_albert(24, 2, seed=7)
        engine = DynamicCFCM(DynamicGraph(base), seed=2, backend="dense")
        engine.evaluate_exact(GROUP)
        tracker = next(iter(engine._trackers.values()))
        version_before = tracker.synced_version
        inverse_before = tracker.backend.inverse.copy()

        u, v = missing_edge(engine.graph)
        engine.graph.add_edge(u, v)

        original = tracker._apply_triples

        def broken(triples):
            raise RuntimeError("injected mid-sync crash")

        tracker._apply_triples = broken
        with pytest.raises(RuntimeError):
            engine.evaluate_exact(GROUP)
        # Nothing committed: same synced version, bit-identical inverse.
        assert tracker.synced_version == version_before
        np.testing.assert_array_equal(tracker.backend.inverse, inverse_before)

        # Recovery: the retried read matches a never-faulted engine exactly.
        tracker._apply_triples = original
        recovered = engine.evaluate_exact(GROUP)
        clean_graph = DynamicGraph(base)
        clean = DynamicCFCM(clean_graph, seed=2, backend="dense")
        clean.evaluate_exact(GROUP)
        clean_graph.add_edge(u, v)
        assert recovered == clean.evaluate_exact(GROUP)


class TestPolicies:
    def test_retry_policy_bounds(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(deadline=0.0)
        policy = RetryPolicy(attempts=3, deadline=1.0)
        err = ConvergenceError("boom")
        assert policy.should_retry(err, 1, 0.1)
        assert policy.should_retry(err, 2, 0.1)
        assert not policy.should_retry(err, 3, 0.1)  # attempts exhausted
        assert not policy.should_retry(err, 1, 2.0)  # deadline exceeded
        assert not policy.should_retry(ValueError("x"), 1, 0.1)  # untyped


class TestServiceResilience:
    def test_submit_wait_timeout_validation(self):
        graph = generators.barabasi_albert(24, 2, seed=8)

        async def scenario():
            async with AsyncCFCMService(graph, seed=0) as service:
                with pytest.raises(InvalidParameterError):
                    await service.submit(lambda g: None, wait_timeout=0.0)

        run(scenario())

    def test_submit_wait_timeout_expires_then_succeeds(self):
        graph = generators.barabasi_albert(24, 2, seed=8)

        async def scenario():
            async with AsyncCFCMService(graph, seed=0,
                                        queue_limit=1) as service:
                await service.submit(lambda g: time.sleep(0.3))
                deadline = time.perf_counter() + 5.0
                while service.pending_updates > 0:  # writer picks sleeper up
                    assert time.perf_counter() < deadline
                    await asyncio.sleep(0.005)
                blocker = await service.submit(lambda g: None)  # queue full
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(lambda g: None)
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(lambda g: None, wait_timeout=0.01)
                # A generous timeout outlives the sleeper and gets through.
                ticket = await service.submit(lambda g: None, wait_timeout=5.0)
                await blocker.settled()
                await ticket.settled()
                assert ticket.exception() is None
                return service

        service = run(scenario())
        assert service.stats.updates_rejected == 2

    def test_retry_policy_absorbs_injected_worker_faults(self):
        graph = generators.barabasi_albert(24, 2, seed=9)
        plan = FaultPlan(
            rules=(FaultRule("service.worker", probability=1.0, limit=1),),
            seed=0,
        )

        async def scenario():
            async with AsyncCFCMService(
                graph, seed=0, retry_policy=RetryPolicy(attempts=3),
            ) as service:
                with FaultInjector(plan) as injector:
                    response = await service.evaluate(GROUP, mode="exact")
                return response.result, injector.total_injected

        value, injected = run(scenario())
        assert injected == 1
        reference = DynamicCFCM(DynamicGraph(graph),
                                seed=0).evaluate_exact(GROUP)
        assert value == pytest.approx(reference, rel=1e-10)

    def test_unretried_worker_fault_is_typed(self):
        graph = generators.barabasi_albert(24, 2, seed=9)
        plan = FaultPlan(
            rules=(FaultRule("service.worker", probability=1.0, limit=1),),
            seed=0,
        )

        async def scenario():
            async with AsyncCFCMService(graph, seed=0) as service:
                with FaultInjector(plan):
                    with pytest.raises(InjectedFaultError):
                        await service.evaluate(GROUP, mode="exact")
                response = await service.evaluate(GROUP, mode="exact")
                return response.result

        value = run(scenario())
        reference = DynamicCFCM(DynamicGraph(graph),
                                seed=0).evaluate_exact(GROUP)
        assert value == pytest.approx(reference, rel=1e-10)


class TestCheckpointRecovery:
    def test_checkpoint_restore_replay_is_bit_equal(self, tmp_path):
        base = generators.barabasi_albert(28, 2, seed=11)
        graph = DynamicGraph(base)
        engine = DynamicCFCM(graph, seed=4, pool_size=8, backend="dense")
        engine.evaluate_exact(GROUP)
        engine.evaluate_forest(GROUP)

        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)
        with np.load(path) as data:
            assert "pool0_parent" in data.files
            assert not [name for name in data.files
                        if name.startswith("pool") and name.endswith("_jl")]

        # Crash-and-restore replays the same post-checkpoint journal: an
        # edge insertion (the pool reweights its checkpointed forests),
        # then a node join, which extends the pool's path system by a leaf.
        u, v = missing_edge(graph)
        graph.add_edge(u, v)
        live_edge_forest = engine.evaluate_forest(GROUP)
        graph.add_node([u, v])
        live_exact = engine.evaluate_exact(GROUP)
        live_forest = engine.evaluate_forest(GROUP)

        restored = DynamicCFCM.restore(path)
        restored.graph.add_edge(u, v)
        assert restored.evaluate_forest(GROUP) == live_edge_forest
        restored.graph.add_node([u, v])
        assert restored.evaluate_exact(GROUP) == live_exact
        assert restored.evaluate_forest(GROUP) == live_forest
        assert restored.stats.forests_folded == engine.stats.forests_folded
        assert (restored.rng.bit_generator.state
                == engine.rng.bit_generator.state)

    def test_checkpoint_restore_sparse_backend(self, tmp_path):
        graph = DynamicGraph(generators.barabasi_albert(26, 2, seed=12))
        engine = DynamicCFCM(graph, seed=5, pool_size=8, backend="sparse")
        engine.evaluate_exact(GROUP)
        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)

        u, v = missing_edge(graph)
        graph.add_edge(u, v)
        live = engine.evaluate_exact(GROUP)

        restored = DynamicCFCM.restore(path)
        restored.graph.add_edge(u, v)
        assert restored.evaluate_exact(GROUP) == live

    def test_checkpoint_restore_hub_core_backend(self, tmp_path, hub_ba):
        graph = DynamicGraph(hub_ba)
        engine = DynamicCFCM(graph, seed=5, pool_size=8, backend="sparse")
        engine.evaluate_exact(GROUP)
        assert engine.tracker(GROUP).backend.solver_used == "hub_core"
        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)

        # An edge event folds into the restored factor as a low-rank
        # correction.  So do a leave and a join: the leave tombstones its
        # row, the join takes it, and neither side refactorises.
        u, v = missing_edge(graph)
        probe = hub_ba.n - 1  # a kept node: its column is not all zero
        leaver = next(x for x in range(hub_ba.n - 2, 1, -1)
                      if x not in (u, v)
                      and not graph._node_removal_disconnects(x))
        graph.add_edge(u, v)
        live_edge = engine.evaluate_exact(GROUP)
        live_column = engine.tracker(GROUP).resistance_column(probe)
        refreshes = engine.tracker(GROUP).stats.refreshes
        graph.remove_node(leaver)
        graph.add_node([u, v])
        live_node = engine.evaluate_exact(GROUP)
        live_node_column = engine.tracker(GROUP).resistance_column(probe)
        stats = engine.tracker(GROUP).stats
        assert (stats.refreshes, stats.node_grows, stats.node_downdates) \
            == (refreshes, 1, 1)

        restored = DynamicCFCM.restore(path)
        restored.graph.add_edge(u, v)
        assert restored.evaluate_exact(GROUP) == live_edge
        np.testing.assert_array_equal(
            restored.tracker(GROUP).resistance_column(probe), live_column)
        restored.graph.remove_node(leaver)
        restored.graph.add_node([u, v])
        assert restored.evaluate_exact(GROUP) == live_node
        np.testing.assert_array_equal(
            restored.tracker(GROUP).resistance_column(probe), live_node_column)
        tracker = restored.tracker(GROUP)
        assert tracker.backend.solver_used == "hub_core"
        assert tracker.stats == stats

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_checkpoint_carries_spare_rows(self, tmp_path, hub_ba, backend):
        graph = DynamicGraph(hub_ba)
        engine = DynamicCFCM(graph, seed=5, pool_size=8, backend=backend)
        engine.evaluate_exact(GROUP)
        graph.add_node([3, 4])  # no free row: refactorise with 2 spares
        engine.evaluate_exact(GROUP)
        graph.add_node([5, 6])  # absorbed into a spare row
        engine.evaluate_exact(GROUP)
        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)
        # The quiesce refactorises with spares sized from that one join;
        # the restored tracker holds the same padded factor.
        restored = DynamicCFCM.restore(path)
        for side in (engine, restored):
            tracker = side.tracker(GROUP)
            assert tracker.backend.n == len(tracker.kept) + 2

        reads = []
        for side in (engine, restored):
            side.graph.add_node([7, 8])  # takes the other spare row
            reads.append((side.evaluate_exact(GROUP),
                          side.tracker(GROUP).resistance_column(9)))
        (live, live_column), (value, column) = reads
        assert value == live
        np.testing.assert_array_equal(column, live_column)
        assert restored.tracker(GROUP).stats == engine.tracker(GROUP).stats
        assert engine.tracker(GROUP).stats.refreshes == 1
        assert engine.tracker(GROUP).stats.node_grows == 2

    @pytest.mark.parametrize("joins", [0, 2])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_restore_factorises_each_sparse_tracker_once(
            self, tmp_path, hub_ba, monkeypatch, backend, joins):
        graph = DynamicGraph(hub_ba)
        engine = DynamicCFCM(graph, seed=5, pool_size=8, backend=backend)
        for group in (GROUP, (0, 1)):
            engine.evaluate_exact(group)
        for edges in ([3, 4], [5, 6])[:joins]:
            graph.add_node(edges)
            engine.evaluate_exact(GROUP)
        path = str(tmp_path / "engine.npz")
        engine.checkpoint(path)

        factorised = []
        factorize = ResistanceBackend.factorize

        def counting(backend_self, matrix):
            factorised.append(backend_self.name)
            return factorize(backend_self, matrix)

        monkeypatch.setattr(ResistanceBackend, "factorize", counting)
        restored = DynamicCFCM.restore(path)
        assert len(restored._trackers) == 2
        assert factorised == ([] if backend == "dense" else ["sparse"] * 2)
        tracker = restored._trackers[GROUP]
        assert tracker.backend.n - len(tracker.kept) == (2 if joins else 0)
        for group, tracker in restored._trackers.items():
            assert tracker.trace() == engine.tracker(group).trace()

    def test_same_churn_journal_replays_bit_equal(self, hub_ba):
        # The refresh schedule (spare rows, break-even) depends on the
        # journal alone, so two engines fed one journal refactorise at the
        # same bursts and read the same floats.
        rng = np.random.default_rng(23)
        probe = hub_ba.n - 1
        recorder = DynamicGraph(hub_ba)
        journal = [random_churn_journal(recorder, 32, rng, node_probability=0.3,
                                        protected=(*GROUP, probe))
                   for _ in range(16)]
        engines = [DynamicCFCM(DynamicGraph(hub_ba), seed=5, pool_size=8,
                               backend="sparse") for _ in range(2)]
        for burst in journal:
            reads = []
            for engine in engines:
                for event in burst:
                    apply_event(engine.graph, event)
                tracker = engine.tracker(GROUP)
                reads.append((engine.evaluate_exact(GROUP),
                              tracker.resistance_to_group(probe),
                              tracker.resistance_column(probe)))
            assert reads[0][:2] == reads[1][:2]
            np.testing.assert_array_equal(reads[0][2], reads[1][2])
        first, second = (engine.tracker(GROUP).stats for engine in engines)
        assert first == second
        # The first join's spare rows, then at least one break-even refresh.
        assert first.refreshes >= 2
        assert first.node_grows > 0 and first.node_downdates > 0

    def test_checkpoint_write_is_atomic(self, tmp_path):
        graph = DynamicGraph(generators.barabasi_albert(20, 2, seed=13))
        engine = DynamicCFCM(graph, seed=0, pool_size=4)
        engine.evaluate_exact(GROUP)
        path = tmp_path / "engine.npz"
        engine.checkpoint(str(path))
        assert path.exists()
        assert not path.with_suffix(".npz.tmp").exists()

    def test_archive_of_an_older_version_is_refused(self, tmp_path):
        # A version-5 archive stores state this version no longer has, such
        # as each pool's JL matrix: refuse it with a typed error.
        graph = DynamicGraph(generators.barabasi_albert(20, 2, seed=13))
        engine = DynamicCFCM(graph, seed=0, config=SamplingConfig(eps=0.3))
        engine.evaluate_exact(GROUP)
        engine.evaluate_forest(GROUP)
        path = tmp_path / "engine.npz"
        engine.checkpoint(str(path))
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["meta"][()]))
        meta["checkpoint_version"] = 5
        arrays["pool0_jl"] = np.ones((4, graph.n))
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)
        with pytest.raises(InvalidParameterError, match="checkpoint version"):
            DynamicCFCM.restore(str(path))
        # A version-7 archive's config still holds two sampling fields this
        # version no longer has: the typed refusal comes before
        # SamplingConfig(**config) could raise a TypeError.
        del arrays["pool0_jl"]
        meta["checkpoint_version"] = 7
        meta["engine"]["config"].update(min_samples=16, initial_batch=16)
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)
        with pytest.raises(InvalidParameterError, match="checkpoint version"):
            DynamicCFCM.restore(str(path))


class TestFaultedWorlds:
    def test_fault_spec_round_trip_and_name(self):
        spec = WorldSpec(
            topology="k_regular", n=32,
            churn=ChurnSpec(regime="mixed", events=6),
            traffic=TrafficSpec(mix="mixed"),
            estimator=EstimatorSpec(pool_size=8, max_samples=16,
                                    forest_tolerance=0.8),
            faults=FaultSpec(regime="solver_flaky", rate=1.0, limit=2),
            seed=21,
        )
        assert spec.name.endswith("-fsolver_flaky")
        with pytest.raises(InvalidParameterError):
            FaultSpec(regime="explosions").validate()
        with pytest.raises(InvalidParameterError):
            FaultSpec(rate=1.5).validate()

    def test_faulted_smoke_specs_overlay_regimes(self):
        specs = faulted_smoke_specs()
        assert len(specs) == 7
        assert all(spec.faults.active for spec in specs)
        service_specs = [s for s in specs if s.mode == "service"]
        assert all(s.faults.regime == "worker_crash" for s in service_specs)

    def test_faulted_run_world_answers_or_fails_typed(self):
        spec = WorldSpec(
            topology="k_regular", n=32,
            churn=ChurnSpec(regime="mixed", events=6),
            traffic=TrafficSpec(mix="mixed"),
            estimator=EstimatorSpec(pool_size=8, max_samples=16,
                                    forest_tolerance=0.8),
            faults=FaultSpec(regime="solver_flaky", rate=1.0, limit=2),
            seed=21,
        )
        row = run_world(spec)
        assert row["faults"] == "solver_flaky"
        assert row["faults_injected"] >= 1
        # The drive either answered every read or failed typed; the final
        # fault-free reads must land inside the accuracy gate either way.
        assert row["accuracy_ok"]
        assert row["typed_failures"] >= 0
