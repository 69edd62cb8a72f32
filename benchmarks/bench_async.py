"""Async-service benchmarks — concurrent traffic vs a synchronous baseline.

The async pass drives :class:`repro.service.AsyncCFCMService` with a Poisson
stream of monitoring evaluations interleaved with random updates; the sync
baseline replays the *identical* journal single-threaded through a
:class:`repro.dynamic.DynamicCFCM`, evaluating at the same versions.  Both
passes therefore do the same logical work, so throughput and latency
percentiles are directly comparable — and their final values must agree to
1e-8, which is the smoke gate CI runs.

Besides the pytest-benchmark suite this module is runnable standalone::

    PYTHONPATH=src python benchmarks/bench_async.py --smoke
    PYTHONPATH=src python benchmarks/bench_async.py --n 400 --ops 240

``--smoke`` writes the ``BENCH_async.json`` perf-trajectory artifact
(uploaded per-commit by CI) and exits non-zero when the equivalence check or
the run itself fails.
"""

from __future__ import annotations

import argparse
import asyncio
import time

import numpy as np
import pytest

from repro import obs
from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    apply_event,
    poisson_traffic,
    random_update_journal,
)
from repro.experiments.report import (
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators
from repro.service import AsyncCFCMService

GROUP = (0, 1, 2)


async def _drive_async(base, ops, rate, query_fraction, workers, seed):
    """One async pass; returns (report, final value, wall seconds, stats)."""
    async with AsyncCFCMService(base, seed=seed, workers=workers) as service:
        started = time.perf_counter()
        report = await poisson_traffic(
            service,
            ops,
            rng=seed,
            rate=rate,
            query_fraction=query_fraction,
            monitor_group=GROUP,
            evaluate_fraction=1.0,
            method="exact",
            k=len(GROUP),
        )
        wall = time.perf_counter() - started
        final = await service.evaluate(GROUP, mode="exact")
        stats = service.stats.as_dict()
    return report, float(final.result), wall, stats


def _sync_baseline(base, report, seed):
    """Sync baseline: identical journal, evaluations at the same versions."""
    graph = DynamicGraph(base)
    engine = DynamicCFCM(graph, seed=seed)
    events = report.events
    observations = sorted(report.eval_observations)
    latencies = []
    index = 0
    started = time.perf_counter()
    for version, _ in observations:
        op_start = time.perf_counter()
        while index < len(events) and events[index].version <= version:
            apply_event(graph, events[index])
            index += 1
        engine.evaluate_exact(GROUP)
        latencies.append(time.perf_counter() - op_start)
    while index < len(events):
        apply_event(graph, events[index])
        index += 1
    final = engine.evaluate_exact(GROUP)
    wall = time.perf_counter() - started
    return final, wall, latencies


def run_async_comparison(n=240, ops=160, rate=500.0, query_fraction=0.5,
                         workers=2, seed=0, verbose=True):
    """Async service vs synchronous engine on the same traffic; returns a row.

    Raises ``AssertionError`` when the two passes disagree beyond 1e-8 —
    they maintain the same journal, so any drift is a correctness bug, not
    noise.  Both passes record onto :data:`repro.obs.REGISTRY`, and the row
    carries the registry-derived request/engine-op latency histograms next
    to the wall-clock percentiles.
    """
    base = generators.barabasi_albert(n, 3, seed=seed)
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        report, async_final, async_wall, stats = asyncio.run(
            _drive_async(base, ops, rate, query_fraction, workers, seed))
        sync_final, sync_wall, sync_latencies = _sync_baseline(base, report, seed)
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    # Recorded values survive disable(); registered at module import, so
    # neither get() can miss.
    request_seconds = obs.REGISTRY.get("repro_service_request_seconds")
    op_seconds = obs.REGISTRY.get("repro_engine_op_seconds")

    drift = abs(async_final - sync_final)
    if not drift <= 1e-8 * max(1.0, abs(sync_final)):
        raise AssertionError(
            f"async service ({async_final!r}) and synchronous baseline "
            f"({sync_final!r}) disagree at version {report.events[-1].version if report.events else 0}: "
            f"drift {drift}")

    completed = report.evaluations + report.updates_applied + report.updates_failed
    row = {
        "n": n,
        "ops": ops,
        "rate": rate,
        "query_fraction": query_fraction,
        "workers": workers,
        "async_wall_seconds": async_wall,
        "sync_wall_seconds": sync_wall,
        "async_throughput_ops_per_s": completed / async_wall if async_wall else None,
        "evaluations": report.evaluations,
        "updates_applied": report.updates_applied,
        "mean_batch_size": stats["mean_batch_size"],
        "async_query": percentiles_ms(report.query_latencies),
        "sync_query": percentiles_ms(sync_latencies),
        "service_request_histogram": request_seconds.summary(),
        "engine_op_histogram": op_seconds.summary(),
    }
    if verbose:
        print(f"[bench_async] n={n} ops={ops}: async {async_wall:.4f}s "
              f"(p95 {row['async_query']['p95_ms']:.2f}ms, mean batch "
              f"{row['mean_batch_size']:.1f}) vs sync {sync_wall:.4f}s "
              f"(p95 {row['sync_query']['p95_ms']:.2f}ms); agreement to 1e-8")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Async CFCM service vs synchronous engine under identical traffic")
    parser.add_argument("--n", type=int, default=240, help="graph size")
    parser.add_argument("--ops", type=int, default=160,
                        help="Poisson arrivals per pass")
    parser.add_argument("--rate", type=float, default=500.0,
                        help="arrival rate (events/s)")
    parser.add_argument("--query-fraction", type=float, default=0.5,
                        help="fraction of arrivals that are evaluations")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads of the async service")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the CI correctness/rot gate")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: BENCH_async.json)")
    args = parser.parse_args(argv)

    output = args.output_json
    try:
        if args.smoke:
            output = output or "BENCH_async.json"
            rows = [run_async_comparison(n=120, ops=60, rate=args.rate,
                                         query_fraction=args.query_fraction,
                                         workers=args.workers, seed=args.seed)]
        else:
            rows = [run_async_comparison(n=args.n, ops=args.ops, rate=args.rate,
                                         query_fraction=args.query_fraction,
                                         workers=args.workers, seed=args.seed)]
    except AssertionError as exc:
        print(f"[bench_async] smoke check FAILED: {exc}")
        return 1
    if output:
        write_bench_artifact(rows, output, benchmark="async_service")
        write_obs_artifacts(metrics_prefix_for(output), label="bench_async")
    print("[bench_async] async service and synchronous baseline agreed to 1e-8")
    return 0


# --------------------------------------------------------------------------
# pytest-benchmark suite
# --------------------------------------------------------------------------

@pytest.mark.benchmark(group="async-service")
class TestAsyncServiceTraffic:
    """Mixed traffic through the async service vs the synchronous engine."""

    def test_async_service_mixed_traffic(self, benchmark, sparse_graph):
        def run():
            async def drive():
                async with AsyncCFCMService(sparse_graph, seed=0) as service:
                    report = await poisson_traffic(
                        service, 24, rng=0, query_fraction=0.5,
                        monitor_group=GROUP, evaluate_fraction=1.0,
                        method="exact", k=len(GROUP))
                    return report.updates_applied
            return asyncio.run(drive())

        benchmark(run)

    def test_sync_engine_mixed_traffic(self, benchmark, sparse_graph):
        def run():
            graph = DynamicGraph(sparse_graph)
            engine = DynamicCFCM(graph, seed=0)
            rng = np.random.default_rng(0)
            value = engine.evaluate_exact(GROUP)
            for _ in range(12):
                random_update_journal(graph, 1, rng)
                value = engine.evaluate_exact(GROUP)
            return value

        benchmark(run)


if __name__ == "__main__":
    raise SystemExit(main())
