"""Tests for the unified observability layer (`repro.obs`).

Covers the metrics registry (get-or-create semantics, thread safety under
both raw threads and the async service's worker pool, snapshot/Prometheus
exposition round-trip), span tracing (nesting, thread isolation, pipeline
reconstruction from a churn run), the health bindings, the
``ServiceResponse.stats`` aliasing regression, and the disabled-mode
overhead bound on the bench-smoke sampling config.
"""

import asyncio
import gc
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    poisson_traffic,
    random_update_journal,
)
from repro.graph import generators
from repro.obs import (
    MetricError,
    MetricsRegistry,
    bind_engine_health,
    trace,
)
from repro.sampling import sample_forest_batch_vectorized
from repro.service import AsyncCFCMService
from repro.utils.timer import clock

GROUP = (0, 1, 2)


@pytest.fixture
def registry():
    """A fresh, enabled default registry; prior state restored afterwards."""
    was_enabled = obs.REGISTRY.enabled
    obs.REGISTRY.reset()
    obs.REGISTRY.enable()
    yield obs.REGISTRY
    obs.REGISTRY.reset()
    if not was_enabled:
        obs.REGISTRY.disable()


@pytest.fixture
def fresh():
    """A standalone registry (no global state involved)."""
    return MetricsRegistry(enabled=True)


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_returns_same_object(self, fresh):
        first = fresh.counter("c_total", help="h")
        assert fresh.counter("c_total") is first
        assert fresh.get("c_total") is first
        assert fresh.get("missing") is None

    def test_kind_and_label_collisions_raise(self, fresh):
        fresh.counter("c_total")
        with pytest.raises(MetricError):
            fresh.gauge("c_total")
        fresh.histogram("h_seconds", labels=("op",))
        with pytest.raises(MetricError):
            fresh.histogram("h_seconds", labels=("other",))

    def test_disabled_counter_and_histogram_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        histogram = registry.histogram("h_seconds")
        counter.inc()
        histogram.observe(0.5)
        assert counter.value() == 0.0
        assert histogram.summary()["count"] == 0
        # Gauges apply even while disabled: collectors write them at
        # exposition time, which is always an explicit request.
        gauge = registry.gauge("g")
        gauge.set(7.0)
        assert gauge.value() == 7.0

    def test_counter_rejects_negative_and_unknown_labels(self, fresh):
        counter = fresh.counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1.0)
        with pytest.raises(MetricError):
            counter.inc(1.0, pool="a")
        labelled = fresh.counter("l_total", labels=("pool",))
        with pytest.raises(MetricError):
            labelled.inc()

    def test_reset_keeps_objects_and_zeroes_values(self, fresh):
        counter = fresh.counter("c_total")
        counter.inc(3)
        fresh.reset()
        assert fresh.counter("c_total") is counter
        assert counter.value() == 0.0

    def test_thread_safety_exact_totals(self, fresh):
        counter = fresh.counter("c_total", labels=("worker",))
        histogram = fresh.histogram("h_seconds")
        threads, per_thread = 8, 2000

        def hammer(worker):
            for _ in range(per_thread):
                counter.inc(worker=worker % 2)
                histogram.observe(1e-3)

        pool = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value(worker=0) + counter.value(worker=1) \
            == threads * per_thread
        assert histogram.summary()["count"] == threads * per_thread
        assert histogram.summary()["sum"] == pytest.approx(threads * per_thread * 1e-3)


class TestHistogram:
    def test_percentiles_ordered_and_clamped(self, fresh):
        histogram = fresh.histogram("h_seconds")
        values = [i * 1e-3 for i in range(1, 101)]
        for value in values:
            histogram.observe(value)
        p50 = histogram.percentile(50)
        p95 = histogram.percentile(95)
        p99 = histogram.percentile(99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        assert histogram.percentile(0) == pytest.approx(min(values))
        assert histogram.percentile(100) == pytest.approx(max(values))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(sum(values))
        assert summary["p50"] == pytest.approx(p50)
        with pytest.raises(MetricError):
            histogram.percentile(101)

    def test_empty_histogram_percentile_is_zero(self, fresh):
        assert fresh.histogram("h_seconds").percentile(99) == 0.0

    def test_labelled_aggregate_view(self, fresh):
        histogram = fresh.histogram("h_seconds", labels=("kind",))
        histogram.observe(0.001, kind="query")
        histogram.observe(0.1, kind="update")
        assert histogram.summary(kind="query")["count"] == 1
        # No labels on a labelled histogram: the merged view of all series.
        assert histogram.summary()["count"] == 2
        assert histogram.summary()["sum"] == pytest.approx(0.101)


class TestExposition:
    def test_snapshot_and_prometheus_round_trip(self, fresh):
        counter = fresh.counter("repro_test_total", help="a counter",
                                labels=("op",))
        counter.inc(3, op="query")
        counter.inc(2, op="update")
        histogram = fresh.histogram("repro_test_seconds", help="a histogram")
        for value in (0.003, 0.004, 0.2):
            histogram.observe(value)
        fresh.gauge("repro_test_depth").set(5)

        snapshot = fresh.snapshot()
        assert snapshot["repro_test_total"]["type"] == "counter"
        by_labels = {tuple(sorted(item["labels"].items())): item["value"]
                     for item in snapshot["repro_test_total"]["series"]}
        assert by_labels[(("op", "query"),)] == 3.0
        hist_series = snapshot["repro_test_seconds"]["series"][0]
        assert hist_series["count"] == 3
        assert hist_series["sum"] == pytest.approx(0.207)
        assert "p99" in hist_series and "buckets" in hist_series

        text = fresh.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_test_total counter" in lines
        assert "# TYPE repro_test_seconds histogram" in lines
        assert 'repro_test_total{op="query"} 3' in lines
        assert "repro_test_depth 5" in lines
        # The +Inf cumulative bucket must equal the exact count, and the
        # sum/count side-cars must round-trip against the snapshot.
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_test_seconds_count 3" in lines
        sum_line = next(l for l in lines if l.startswith("repro_test_seconds_sum"))
        assert float(sum_line.split()[-1]) == pytest.approx(0.207)

    def test_snapshot_returns_fresh_containers(self, fresh):
        counter = fresh.counter("repro_test_total")
        counter.inc()
        snapshot = fresh.snapshot()
        snapshot["repro_test_total"]["series"][0]["value"] = 99.0
        assert fresh.snapshot()["repro_test_total"]["series"][0]["value"] == 1.0

    def test_collector_runs_at_exposition_and_unregisters(self, fresh):
        gauge = fresh.gauge("repro_test_live")
        calls = []

        def collect(reg):
            calls.append(reg)
            gauge.set(len(calls))

        unregister = fresh.register_collector(collect)
        fresh.snapshot()
        fresh.render_prometheus()
        assert len(calls) == 2
        unregister()
        unregister()  # idempotent
        fresh.snapshot()
        assert len(calls) == 2


# --------------------------------------------------------------------------
# Span tracing
# --------------------------------------------------------------------------

class TestTracing:
    def test_trace_is_noop_without_tracer(self):
        obs.disable_tracing()
        span = trace("anything", size=1)
        assert span is obs.NOOP_SPAN
        with span as inner:
            inner.set(more=2)

    def test_span_nesting_links_parent_and_depth(self):
        tracer = obs.enable_tracing()
        try:
            with trace("outer") as outer:
                with trace("inner", size=4) as inner:
                    inner.set(hit=True)
            with trace("sibling"):
                pass
        finally:
            obs.disable_tracing()
        spans = tracer.spans()
        by_name = {span["name"]: span for span in spans}
        # Children record before parents (exit order).
        assert [span["name"] for span in spans] == ["inner", "outer", "sibling"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["attrs"] == {"size": 4, "hit": True}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["sibling"]["parent_id"] is None
        assert all(span["elapsed"] >= 0.0 for span in spans)

    def test_span_records_error_attribute(self):
        tracer = obs.enable_tracing()
        try:
            with pytest.raises(RuntimeError):
                with trace("failing"):
                    raise RuntimeError("boom")
        finally:
            obs.disable_tracing()
        (span,) = tracer.spans()
        assert span["attrs"]["error"] == "RuntimeError"

    def test_span_stacks_are_thread_local(self):
        tracer = obs.enable_tracing()
        try:
            started = threading.Event()
            release = threading.Event()

            def worker():
                with trace("worker-span"):
                    started.set()
                    release.wait(timeout=5.0)

            thread = threading.Thread(target=worker)
            with trace("main-span"):
                thread.start()
                assert started.wait(timeout=5.0)
                release.set()
                thread.join()
        finally:
            obs.disable_tracing()
        by_name = {span["name"]: span for span in tracer.spans()}
        # Concurrent spans on different threads must not parent each other.
        assert by_name["worker-span"]["parent_id"] is None
        assert by_name["main-span"]["parent_id"] is None
        assert by_name["worker-span"]["thread"] != by_name["main-span"]["thread"]

    def test_ring_buffer_keeps_newest(self):
        tracer = obs.enable_tracing(capacity=4)
        try:
            for index in range(10):
                with trace(f"span-{index}"):
                    pass
        finally:
            obs.disable_tracing()
        names = [span["name"] for span in tracer.spans()]
        assert names == ["span-6", "span-7", "span-8", "span-9"]

    def test_pipeline_trace_reconstruction(self, registry, tmp_path):
        """A churn round's JSONL trace reconstructs update → sync →
        reweight → top-up → lockstep → fold with correct parentage."""
        path = tmp_path / "trace.jsonl"
        tracer = obs.enable_tracing(jsonl_path=str(path))
        try:
            graph = DynamicGraph(generators.barabasi_albert(60, 2, seed=3))
            engine = DynamicCFCM(graph, seed=0, pool_size=8)
            engine.evaluate_forest(GROUP)
            rng = np.random.default_rng(0)
            random_update_journal(graph, 4, rng)
            engine.evaluate_forest(GROUP)
        finally:
            obs.disable_tracing()
        spans = tracer.spans()
        names = {span["name"] for span in spans}
        assert {"engine.evaluate_forest", "engine.sync_pools", "pool.reweight",
                "pool.topup", "sampling.lockstep", "estimator.fold"} <= names

        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            parent_id = span["parent_id"]
            if parent_id is not None:
                assert by_id[parent_id]["depth"] == span["depth"] - 1

        def parent_name(name):
            span = next(s for s in spans if s["name"] == name)
            return by_id[span["parent_id"]]["name"]

        assert parent_name("pool.reweight") == "engine.sync_pools"
        assert parent_name("engine.sync_pools") == "engine.evaluate_forest"
        assert parent_name("sampling.lockstep") == "pool.topup"
        assert parent_name("pool.topup") == "engine.evaluate_forest"

        # The JSONL mirror carries the same spans in the same order.
        records = [json.loads(line)
                   for line in path.read_text(encoding="utf-8").splitlines()]
        assert [r["span_id"] for r in records] == [s["span_id"] for s in spans]


# --------------------------------------------------------------------------
# Health bindings
# --------------------------------------------------------------------------

class TestHealth:
    def test_engine_health_gauges_and_pool_series(self, registry):
        graph = DynamicGraph(generators.barabasi_albert(40, 2, seed=1))
        engine = DynamicCFCM(graph, seed=0, pool_size=8)
        unbind = bind_engine_health(engine)
        try:
            engine.evaluate_forest(GROUP)
            engine.query(2, method="exact", eps=0.3)
            snapshot = obs.snapshot()
            assert snapshot["repro_engine_query_misses"]["series"][0]["value"] == 1.0
            pool_series = snapshot["repro_pool_ess"]["series"]
            assert len(pool_series) == 1
            assert set(pool_series[0]["labels"]) == {"pool"}
            assert pool_series[0]["value"] > 0.0
            text = obs.render_prometheus()
            assert "repro_engine_query_hit_rate" in text
            assert "repro_pool_ess{" in text
        finally:
            unbind()
        unbind()  # idempotent

    def test_dead_engine_collector_self_unregisters(self, registry):
        graph = DynamicGraph(generators.barabasi_albert(30, 2, seed=2))
        engine = DynamicCFCM(graph, seed=0)
        bind_engine_health(engine)
        obs.snapshot()
        del engine, graph
        gc.collect()
        # Exposition after the engine died must not raise; the weakref
        # collector drops itself on its next run.
        obs.snapshot()
        obs.render_prometheus()


# --------------------------------------------------------------------------
# Async service: worker-pool thread safety + stats aliasing regression
# --------------------------------------------------------------------------

class TestServiceObservability:
    def test_registry_consistent_under_worker_pool(self, registry):
        base = generators.barabasi_albert(40, 2, seed=5)

        async def scenario():
            async with AsyncCFCMService(base, seed=0, workers=2) as service:
                return await poisson_traffic(
                    service, 60, rng=0, rate=2000.0, query_fraction=0.5,
                    monitor_group=GROUP, evaluate_fraction=0.5,
                    method="exact", k=len(GROUP))

        report = asyncio.run(scenario())
        request_seconds = registry.get("repro_service_request_seconds")
        assert request_seconds.summary(kind="query")["count"] == report.queries
        assert request_seconds.summary(kind="evaluate")["count"] == report.evaluations
        batch_sizes = registry.get("repro_service_update_batch_size")
        # Every journal event passes through exactly one coalesced batch.
        assert batch_sizes.summary()["sum"] == pytest.approx(
            report.updates_applied + report.updates_failed)

    def test_service_response_stats_do_not_alias_pool_ess(self):
        base = generators.barabasi_albert(40, 2, seed=5)

        async def scenario():
            async with AsyncCFCMService(base, seed=0) as service:
                first = await service.evaluate(GROUP, mode="forest")
                before = dict(first.stats["pool_ess"])
                assert before  # the forest pool published its ESS
                # Later activity on a *different* pool must not leak into
                # the already-returned snapshot.
                await service.evaluate((0, 1), mode="forest")
                assert first.stats["pool_ess"] == before
                # Nor may mutating the snapshot corrupt live engine state.
                first.stats["pool_ess"]["bogus"] = -1.0
                assert "bogus" not in service.engine.stats.pool_ess

        asyncio.run(scenario())

    def test_engine_stats_as_dict_deep_copies_pool_ess(self):
        graph = DynamicGraph(generators.barabasi_albert(40, 2, seed=1))
        engine = DynamicCFCM(graph, seed=0, pool_size=8)
        engine.evaluate_forest(GROUP)
        snapshot = engine.stats.as_dict()
        before = dict(snapshot["pool_ess"])
        engine.evaluate_forest((0, 1))
        assert snapshot["pool_ess"] == before
        assert len(engine.stats.pool_ess) == 2


# --------------------------------------------------------------------------
# Disabled-mode overhead bound (bench-smoke config)
# --------------------------------------------------------------------------

def test_disabled_mode_overhead_bounded_on_bench_smoke_config():
    """Disabled hooks must stay under 5% of the hot path they instrument.

    The bench-smoke sampling config (n=1000 hub-rooted lockstep batch of 64)
    is the hot path; the instrumented code performs a handful of hook calls
    per batch (one histogram observation, a counter increment per chunk, one
    no-op span).  We charge 200 full hook triples — well over an order of
    magnitude more than the real path executes — and require their disabled
    cost to stay under 5% of one batch draw.
    """
    obs.disable_tracing()
    graph = generators.barabasi_albert(1000, 3, seed=0)
    roots = sorted(int(v) for v in np.argsort(-graph.degrees)[:4])
    sample_forest_batch_vectorized(graph, roots, 64, seed=0)  # warm caches
    hot = min(_timed_draw(graph, roots) for _ in range(3))

    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("probe_total")
    histogram = registry.histogram("probe_seconds")

    def probe_loop():
        start = clock()
        for _ in range(200):
            counter.inc()
            histogram.observe(1e-3)
            with trace("probe"):
                pass
        return clock() - start

    overhead = min(probe_loop() for _ in range(3))
    assert counter.value() == 0.0  # genuinely disabled
    assert overhead < 0.05 * hot, (
        f"disabled-mode hooks cost {overhead * 1e3:.3f}ms against a "
        f"{hot * 1e3:.3f}ms hot path (>= 5%)")


def _timed_draw(graph, roots):
    start = clock()
    sample_forest_batch_vectorized(graph, roots, 64, seed=0)
    return clock() - start
