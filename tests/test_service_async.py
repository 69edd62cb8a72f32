"""Tests for the asynchronous CFCM query service (`repro.service`).

The concurrency-correctness surface is exercised end to end: update
coalescing into rank-t batches, version barriers, cancellation mid-query,
graceful shutdown with a non-empty update queue, backpressure, and the
randomized concurrent-traffic equivalence against a fresh synchronous
engine replayed to the same journal version.
"""

import asyncio
import time

import pytest

from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    poisson_traffic,
    replay_events,
)
from repro.exceptions import (
    GraphError,
    InvalidParameterError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graph import generators
from repro.service import AsyncCFCMService, WorkerPool

GROUP = (0, 1, 2)


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def base_graph():
    return generators.barabasi_albert(40, 2, seed=5)


def missing_edges(graph, count):
    """Deterministic list of absent edges of the seed topology."""
    dynamic = DynamicGraph(graph)
    pairs = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not dynamic.has_edge(u, v):
                pairs.append((u, v))
            if len(pairs) == count:
                return pairs
    return pairs


def sleep_mutation(seconds):
    """A mutation that only occupies the writer (no journal events)."""

    def mutation(graph):
        time.sleep(seconds)

    return mutation


async def until_writer_busy(service, timeout=5.0):
    """Yield until the writer has picked up the queued backlog."""
    deadline = time.perf_counter() + timeout
    while service.pending_updates > 0:
        if time.perf_counter() > deadline:  # pragma: no cover - CI safety net
            raise TimeoutError("writer never picked the backlog up")
        await asyncio.sleep(0.005)


class TestLifecycle:
    def test_context_manager_serves_and_stops(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                assert service.running
                response = await service.evaluate(GROUP, mode="exact")
                assert response.version == 0
                assert response.result > 0.0
                # Responses surface engine pool health atomically.
                assert response.stats is not None
                assert "pool_ess" in response.stats
                forest = await service.evaluate(GROUP, mode="forest")
                key = ",".join(str(v) for v in sorted(GROUP))
                assert forest.stats["pool_ess"][key] > 0.0
                assert forest.stats["forests_resampled"] > 0
                return service

        service = run(scenario())
        assert not service.running
        assert service.stats.evaluations == 2

    def test_requests_require_start(self, base_graph):
        service = AsyncCFCMService(base_graph, seed=0)

        async def scenario():
            with pytest.raises(ServiceError):
                await service.query(2)
            with pytest.raises(ServiceError):
                await service.submit(lambda graph: None)

        run(scenario())

    def test_double_start_rejected_and_stop_idempotent(self, base_graph):
        async def scenario():
            service = AsyncCFCMService(base_graph, seed=0)
            await service.start()
            with pytest.raises(ServiceError):
                await service.start()
            await service.stop()
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.start()
            with pytest.raises(ServiceClosedError):
                await service.evaluate(GROUP)

        run(scenario())


class TestUpdates:
    def test_updates_coalesce_into_one_batch(self, base_graph):
        pairs = missing_edges(base_graph, 6)

        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                tickets = [await service.add_edge(u, v) for u, v in pairs]
                version = await service.barrier()
                events = []
                for ticket in tickets:
                    events.extend(await ticket.result())
                return service, version, events

        service, version, events = run(scenario())
        assert version == len(pairs)
        assert [event.kind for event in events] == ["add"] * len(pairs)
        assert service.stats.updates_applied == len(pairs)
        # The writer drained the backlog in far fewer wakeups than updates.
        assert service.stats.update_batches < len(pairs)
        assert service.stats.coalesced_updates == len(pairs)

    def test_failed_update_propagates_through_ticket(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                ticket = await service.remove_edge(0, 39)  # absent edge
                with pytest.raises(GraphError):
                    await ticket.result()
                assert isinstance(ticket.exception(), GraphError)
                # The service keeps serving afterwards.
                response = await service.evaluate(GROUP)
                return service, response

        service, response = run(scenario())
        assert service.stats.updates_failed == 1
        assert response.version == 0

    def test_fresh_consistency_sees_submitted_updates(self, base_graph):
        (pair,) = missing_edges(base_graph, 1)

        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                before = await service.evaluate(GROUP, mode="exact")
                await service.add_edge(*pair)
                after = await service.evaluate(GROUP, mode="exact")
                return before, after

        before, after = run(scenario())
        assert before.version == 0
        assert after.version == 1
        assert after.result != pytest.approx(before.result)

    def test_wait_for_version(self, base_graph):
        pairs = missing_edges(base_graph, 2)

        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                waiter = asyncio.ensure_future(service.wait_for_version(2))
                for u, v in pairs:
                    await service.add_edge(u, v)
                version = await asyncio.wait_for(waiter, timeout=5.0)
                assert version >= 2
                assert service.version >= 2

        run(scenario())

    def test_queue_overload_raises(self, base_graph):
        async def scenario():
            service = AsyncCFCMService(base_graph, seed=0, queue_limit=2)
            await service.start()
            await service.submit(sleep_mutation(0.2))
            await until_writer_busy(service)  # sleeper in flight, queue empty
            await service.submit(lambda graph: None)
            await service.submit(lambda graph: None)
            with pytest.raises(ServiceOverloadedError):
                await service.submit(lambda graph: None)
            await service.stop()
            return service

        service = run(scenario())
        assert service.stats.updates_rejected == 1
        assert service.stats.updates_applied == 3


class TestCancellation:
    def test_cancel_mid_query_during_barrier(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                await service.submit(sleep_mutation(0.4))
                await until_writer_busy(service)
                task = asyncio.ensure_future(service.evaluate(GROUP, mode="exact"))
                await asyncio.sleep(0.05)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert service.stats.cancelled == 1
                # State stayed consistent; later queries answer normally.
                response = await service.evaluate(GROUP, mode="exact")
                return service, response

        service, response = run(scenario())
        assert response.result > 0.0
        assert service.stats.evaluations == 1

    def test_cancel_mid_query_during_compute(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0, workers=2) as service:
                await service.submit(sleep_mutation(0.4))
                await until_writer_busy(service)  # writer holds the state lock
                task = asyncio.ensure_future(
                    service.evaluate(GROUP, mode="exact", consistency="relaxed")
                )
                await asyncio.sleep(0.05)  # worker blocked on the state lock
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert service.stats.cancelled == 1
                response = await service.evaluate(GROUP, mode="exact")
                return response

        response = run(scenario())
        assert response.version == 0

    def test_unknown_consistency_mode(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                with pytest.raises(InvalidParameterError):
                    await service.evaluate(GROUP, consistency="psychic")

        run(scenario())


class TestShutdown:
    def test_drain_applies_pending_queue(self, base_graph):
        pairs = missing_edges(base_graph, 4)

        async def scenario():
            service = AsyncCFCMService(base_graph, seed=0)
            await service.start()
            await service.submit(sleep_mutation(0.2))
            await until_writer_busy(service)  # sleeper in flight, queue empty
            tickets = [await service.add_edge(u, v) for u, v in pairs]
            assert service.pending_updates == len(pairs)
            await service.stop(drain=True)
            for ticket in tickets:
                events = await ticket.result()
                assert len(events) == 1
            return service

        service = run(scenario())
        assert service.graph.version == len(pairs)
        assert service.stats.updates_applied == len(pairs) + 1

    def test_no_drain_rejects_pending_queue(self, base_graph):
        pairs = missing_edges(base_graph, 3)

        async def scenario():
            service = AsyncCFCMService(base_graph, seed=0)
            await service.start()
            slow = await service.submit(sleep_mutation(0.2))
            await until_writer_busy(service)
            tickets = [await service.add_edge(u, v) for u, v in pairs]
            assert service.pending_updates == len(pairs)
            await service.stop(drain=False)
            await slow.settled()
            assert slow.exception() is None
            for ticket in tickets:
                with pytest.raises(ServiceClosedError):
                    await ticket.result()
            with pytest.raises(ServiceClosedError):
                await service.add_edge(*pairs[0])
            return service

        service = run(scenario())
        assert service.graph.version == 0
        assert service.stats.updates_rejected == len(pairs)


class TestWorkerLayer:
    def test_forest_mode_and_prefetch(self, base_graph):
        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0, pool_size=6) as service:
                sampled = await service.prefetch_forests(GROUP)
                again = await service.prefetch_forests(GROUP)
                response = await service.evaluate(GROUP, mode="forest")
                return sampled, again, response

        sampled, again, response = run(scenario())
        assert sampled == 6
        assert again == 0  # pool already full
        assert response.result > 0.0

    def test_refresh_pumps_maintenance_and_compaction(self, base_graph):
        pairs = missing_edges(base_graph, 3)

        async def scenario():
            async with AsyncCFCMService(base_graph, seed=0) as service:
                for u, v in pairs:
                    await service.add_edge(u, v)
                await service.barrier()
                version = await service.refresh()
                return service, version

        service, version = run(scenario())
        assert version == len(pairs)
        assert service.engine.pending_events == 0
        assert service.graph.journal_floor == len(pairs)

    def test_worker_pool_validation_and_close(self):
        with pytest.raises(InvalidParameterError):
            WorkerPool(workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            WorkerPool(workers=2.5)

        async def scenario():
            pool = WorkerPool(workers=1)
            assert await pool.run(lambda: 41 + 1) == 42
            await pool.close()
            assert pool.closed
            with pytest.raises(ServiceClosedError):
                await pool.run(lambda: None)
            await pool.close()  # idempotent

        run(scenario())


class TestEngineHooks:
    def test_sync_hook_and_version_tokens(self, base_graph):
        graph = DynamicGraph(base_graph)
        engine = DynamicCFCM(graph, seed=0)
        assert engine.synced_version == 0
        assert engine.pending_events == 0
        for u, v in missing_edges(base_graph, 2):
            graph.add_edge(u, v)
        assert engine.pending_events == 2
        assert engine.sync() == graph.version
        assert engine.synced_version == graph.version
        assert engine.pending_events == 0

    def test_refill_pool_counts(self, base_graph):
        engine = DynamicCFCM(DynamicGraph(base_graph), seed=0, pool_size=4)
        assert engine.refill_pool(GROUP) == 4
        assert engine.refill_pool(GROUP) == 0
        assert engine.stats.forests_resampled == 4


class TestRandomizedEquivalence:
    """Acceptance criterion: async answers == fresh sync engine at the version."""

    @pytest.mark.parametrize("node_probability,count,seed", [
        (0.0, 70, 11),
        (0.25, 80, 29),
    ])
    def test_concurrent_traffic_matches_synchronous_engine(
        self, node_probability, count, seed
    ):
        base = generators.barabasi_albert(60, 2, seed=3)

        async def scenario():
            async with AsyncCFCMService(base, seed=7, workers=2) as service:
                report = await poisson_traffic(
                    service,
                    count,
                    rng=seed,
                    query_fraction=0.45,
                    node_probability=node_probability,
                    monitor_group=GROUP,
                    k=3,
                    method="exact",
                )
                final = await service.evaluate(GROUP, mode="exact")
                return report, final

        report, final = run(scenario())
        assert report.updates_applied > 0
        assert report.evaluations + report.queries > 0

        observations = list(report.eval_observations)
        observations.append((final.version, float(final.result)))
        for version, value in observations:
            replayed = replay_events(base, report.events, upto_version=version)
            assert replayed.version == version
            expected = DynamicCFCM(replayed, seed=0).evaluate_exact(GROUP)
            assert value == pytest.approx(expected, abs=1e-8, rel=1e-8)
        for version, group in report.query_observations:
            replayed = replay_events(base, report.events, upto_version=version)
            expected = DynamicCFCM(replayed, seed=0).query(
                3, method="exact", eps=0.3
            )
            assert list(group) == list(expected.group)

    def test_replay_rejects_incomplete_journal(self):
        base = generators.barabasi_albert(20, 2, seed=0)
        dynamic = DynamicGraph(base)
        (pair,) = [
            (u, v)
            for u in range(3)
            for v in range(u + 1, 20)
            if not dynamic.has_edge(u, v)
        ][:1]
        dynamic.add_edge(*pair)
        second = dynamic.remove_edge(*pair)
        with pytest.raises(GraphError):
            replay_events(base, [second])
