"""Scenario-sweep runner: execute worlds, record accuracy/latency/ESS rows.

:func:`run_world` executes one :class:`repro.worlds.WorldSpec` against the
serving stack — a synchronous :class:`repro.dynamic.DynamicCFCM`, in
``mode="service"`` the same engine behind
:class:`repro.service.AsyncCFCMService`, or in ``mode="sharded"`` the
partitioned :class:`repro.distributed.ShardedCFCM` — and returns one flat
result row.

Measurement discipline (enforced by ``scripts/check_no_adhoc_timing.py``):
the sweep grows **no timing code of its own**.  Latency percentiles are read
back from the :data:`repro.obs.REGISTRY` histograms the engine and service
already populate (``repro_engine_op_seconds``,
``repro_service_request_seconds``), and pool health comes from the
``repro_pool_*`` gauges that :func:`repro.obs.bind_engine_health` publishes
at collection time.  The runner resets and enables the default registry for
the duration of each world so every row's distributions are per-world, and
restores the previous enabled state afterwards.

Row schema (flat, CSV-compatible; also the ``WORLDS_*.json`` row format):

=========================  ==============================================
field                      meaning
=========================  ==============================================
``world``                  spec name (topology-n-churn-mix-backend-mode-seed)
``topology/n/churn/...``   the spec axes (actual built node count in ``n``)
``faults``                 fault regime (``"none"`` for unfaulted worlds)
``faults_injected``        failures the chaos injector actually fired
``typed_failures``         in-drive reads that failed with a typed ReproError
``events_applied``         journal events the churn driver landed
``exact_value``            engine ``evaluate_exact`` on the final graph
``exact_reference``        from-scratch dense reference on the same graph
``exact_rel_error``        incremental-drift error of the exact path
``forest_value``           pooled forest estimate on the final graph
``forest_rel_error``       sampling error of the pooled estimate
``p50/p95/p99_exact_ms``   ``repro_engine_op_seconds{op="evaluate_exact"}``
``p50/p95/p99_forest_ms``  ``repro_engine_op_seconds{op="evaluate_forest"}``
``p50/p95/p99_request_ms`` service mode only: ``repro_service_request_seconds``
``min_pool_ess``           smallest ``repro_pool_ess`` gauge after collect
``ess_floor_abs``          the pool's configured absolute ESS floor
``ess_ok`` / ``accuracy_ok``  per-row gate verdicts (see :func:`gate_rows`)
=========================  ==============================================
"""

from __future__ import annotations

import asyncio
import csv
import dataclasses
import json
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.centrality.estimators import SamplingConfig
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.exceptions import ReproError
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import RetryPolicy
from repro.utils.rng import as_rng
from repro.utils.timer import clock
from repro.worlds.churn import churn_summary, make_churn_driver, run_burst
from repro.worlds.spec import FaultSpec, WorldSpec

#: registry histogram the per-op latency percentiles are read from.
LATENCY_SOURCE = "repro_engine_op_seconds"
#: registry histogram service-mode request percentiles are read from.
SERVICE_LATENCY_SOURCE = "repro_service_request_seconds"
#: registry gauge family pool-ESS health is read from.
ESS_SOURCE = "repro_pool_ess"

_PERCENTILES = (50.0, 95.0, 99.0)


def _exact_reference(graph: DynamicGraph, monitor: Sequence[int]) -> float:
    """From-scratch group CFCC on the current graph (weighted-safe).

    ``n / Tr(inv(L_{-S}))`` with the grounded Laplacian built fresh from
    :meth:`DynamicGraph.laplacian_dense`, so the reference is independent of
    every incremental code path the sweep is auditing.
    """
    laplacian = graph.laplacian_dense()
    compact = graph.compact_nodes(monitor)
    keep = np.setdiff1d(np.arange(graph.n), np.asarray(compact, dtype=np.int64))
    grounded = laplacian[np.ix_(keep, keep)]
    trace = float(np.trace(np.linalg.inv(grounded)))
    return graph.n / trace


def _engine_percentiles(registry, histogram: str, prefix: str,
                        **labels) -> Dict[str, float]:
    """p50/p95/p99 (ms) of one registry histogram series, zeros when absent."""
    metric = registry.get(histogram)
    fields: Dict[str, float] = {}
    for q in _PERCENTILES:
        key = f"p{int(q)}_{prefix}_ms"
        fields[key] = (metric.percentile(q, **labels) * 1e3
                       if metric is not None else 0.0)
    return fields


def _pool_health_from_registry(registry) -> Tuple[float, float, float]:
    """(min ESS, its floor, capacity) from the ``repro_pool_*`` gauges.

    Runs the registered collectors first so :func:`bind_engine_health`
    publishes the engine's live pool state; the minimum across pools is the
    conservative health figure a sweep row carries.
    """
    registry.collect()
    ess_gauge = registry.get(ESS_SOURCE)
    floor_gauge = registry.get("repro_pool_ess_floor")
    capacity_gauge = registry.get("repro_pool_capacity")
    if ess_gauge is None:
        return float("nan"), 0.0, 0.0
    series = ess_gauge.series()
    if not series:
        return float("nan"), 0.0, 0.0
    worst_labels, worst = min(series, key=lambda item: item[1])
    floor = (floor_gauge.value(**worst_labels)
             if floor_gauge is not None else 0.0)
    capacity = (capacity_gauge.value(**worst_labels)
                if capacity_gauge is not None else 0.0)
    return float(worst), float(floor), float(capacity)


def _reads(engine: DynamicCFCM, monitor: Sequence[int], count: int,
           results: Dict[str, Optional[float]],
           failures: Optional[List[str]] = None) -> None:
    """One read round: exact always, pooled forest when weights permit.

    With ``failures`` set (faulted worlds) every typed :class:`ReproError`
    is recorded instead of aborting the drive — the chaos contract is that
    a faulted read either answers or fails loudly with a typed error, and
    the sweep counts the latter.  Anything untyped still propagates.
    """
    for _ in range(int(count)):
        try:
            results["exact"] = engine.evaluate_exact(monitor)
            if engine.graph.is_unit_weighted:
                results["forest"] = engine.evaluate_forest(monitor)
        except ReproError as exc:
            if failures is None:
                raise
            failures.append(type(exc).__name__)


def _drive_engine(spec: WorldSpec, engine: DynamicCFCM, driver,
                  monitor: Tuple[int, ...], rng,
                  failures: Optional[List[str]] = None) -> List:
    """Synchronous front end: bursts of churn interleaved with reads."""
    graph = engine.graph
    results: Dict[str, Optional[float]] = {"exact": None, "forest": None}
    _reads(engine, monitor, 1, results, failures)  # warm pool and tracker
    events: List = []
    burst = spec.traffic.burst_size
    remaining = spec.churn.events
    while remaining > 0:
        events.extend(run_burst(driver, graph, min(burst, remaining), rng))
        remaining -= burst
        _reads(engine, monitor, spec.traffic.reads_per_burst, results,
               failures)
    events.extend(driver.finish(graph))
    return events


async def _service_read(service, monitor: Tuple[int, ...],
                        failures: Optional[List[str]],
                        barrier: bool = False) -> None:
    """One awaited read round with the same typed-failure contract."""
    try:
        await service.evaluate(monitor, mode="exact")
        if barrier:
            await service.barrier()
        if service.graph.is_unit_weighted:
            await service.evaluate(monitor, mode="forest")
    except ReproError as exc:
        if failures is None:
            raise
        failures.append(type(exc).__name__)


async def _drive_service(spec: WorldSpec, service, driver,
                         monitor: Tuple[int, ...], rng,
                         failures: Optional[List[str]] = None) -> List:
    """Async front end: churn submitted to the single writer, reads awaited."""
    async with service:
        await _service_read(service, monitor, failures)
        events: List = []
        tickets = []
        burst = spec.traffic.burst_size
        remaining = spec.churn.events
        while remaining > 0:
            for _ in range(min(burst, remaining)):
                # The mutation is drawn on the writer at apply time (same
                # contract as poisson_traffic), so the applied stream depends
                # only on submission order.
                tickets.append(await service.submit(
                    lambda graph: driver.step(graph, rng)))
            remaining -= burst
            for _ in range(spec.traffic.reads_per_burst):
                await _service_read(service, monitor, failures, barrier=True)
        tickets.append(await service.submit(lambda graph: driver.finish(graph)))
        await service.barrier()
        for ticket in tickets:
            await ticket.settled()
            if ticket.exception() is None:
                applied = await ticket.result()
                events.extend(applied)
    return events


def run_world(spec: WorldSpec, verbose: bool = False) -> Dict[str, object]:
    """Execute one world; returns its flat result row.

    The default :data:`repro.obs.REGISTRY` is reset and enabled for the
    duration of the run (so the row's latency/ESS fields are per-world) and
    its previous enabled state is restored afterwards; the registry's value
    state after the call is the world's final snapshot, which callers may
    export with :func:`repro.experiments.report.write_obs_artifacts`.
    """
    spec = spec.validate()
    base = spec.build_graph()
    graph = DynamicGraph(base)
    monitor = tuple(range(spec.traffic.group_size))
    config = SamplingConfig(
        eps=spec.estimator.eps, max_samples=spec.estimator.max_samples,
        min_samples=min(8, spec.estimator.max_samples),
    )
    driver = make_churn_driver(spec.churn.regime, protected=monitor,
                               intensity=spec.churn.intensity)
    rng = as_rng(int(np.random.default_rng(spec.seed).integers(0, 2**62)))

    # Chaos harness: faulted worlds drive churn+reads under a deterministic
    # FaultInjector (exited before the final gated reads) with the drift
    # watchdog probing on every tracker sync, and — in service mode — the
    # default retry policy absorbing transient injected failures.
    faulted = spec.faults.active
    injector = FaultInjector(spec.faults.plan(spec.seed)) if faulted else None
    failures: List[str] = []
    engine_kwargs: Dict[str, object] = (
        {"watchdog_interval": 1} if faulted else {}
    )

    was_enabled = obs.REGISTRY.enabled
    obs.REGISTRY.reset()
    obs.REGISTRY.enable()
    started = clock()
    try:
        if spec.mode == "service":
            from repro.service import AsyncCFCMService

            service = AsyncCFCMService(
                graph, seed=spec.seed, config=config, workers=2,
                backend=spec.backend, pool_size=spec.estimator.pool_size,
                ess_floor=spec.estimator.ess_floor,
                retry_policy=RetryPolicy() if faulted else None,
                **engine_kwargs,
            )
            engine = service.engine
            unbind = obs.bind_engine_health(engine)
            with injector if injector is not None else nullcontext():
                events = asyncio.run(_drive_service(
                    spec, service, driver, monitor, rng,
                    failures if faulted else None))
        elif spec.mode == "sharded":
            from repro.distributed import ShardedCFCM

            # spec.validate() rejects sharded+faults, so no injector here.
            engine = ShardedCFCM(
                graph, shards=spec.shards, seed=spec.seed, config=config,
                pool_size=spec.estimator.pool_size,
                ess_floor=spec.estimator.ess_floor, backend=spec.backend,
            )
            unbind = obs.bind_engine_health(engine)
            events = _drive_engine(spec, engine, driver, monitor, rng, None)
        else:
            engine = DynamicCFCM(
                graph, seed=spec.seed, config=config,
                pool_size=spec.estimator.pool_size,
                ess_floor=spec.estimator.ess_floor, backend=spec.backend,
                **engine_kwargs,
            )
            unbind = obs.bind_engine_health(engine)
            with injector if injector is not None else nullcontext():
                events = _drive_engine(spec, engine, driver, monitor, rng,
                                       failures if faulted else None)

        # Final reads on the settled graph: the accuracy comparison below
        # holds these against a from-scratch dense reference.
        exact_value = engine.evaluate_exact(monitor)
        forest_value = (engine.evaluate_forest(monitor)
                        if graph.is_unit_weighted else None)
        reference = _exact_reference(graph, monitor)

        row: Dict[str, object] = {
            "world": spec.name,
            "topology": spec.topology,
            "n": graph.n,
            "m": graph.m,
            "churn": spec.churn.regime,
            "traffic": spec.traffic.mix,
            "backend": spec.backend,
            "mode": spec.mode,
            "shards": spec.shards if spec.mode == "sharded" else None,
            "seed": spec.seed,
            "faults": spec.faults.regime,
            "faults_injected": (injector.total_injected
                                if injector is not None else 0),
            "typed_failures": len(failures),
            "failure_kinds": dict(sorted(Counter(failures).items())),
            "events_applied": len(events),
            "event_kinds": churn_summary(events),
            "exact_value": float(exact_value),
            "exact_reference": float(reference),
            "exact_rel_error": abs(exact_value - reference) / abs(reference),
            "forest_value": (float(forest_value)
                             if forest_value is not None else None),
            "forest_rel_error": (abs(forest_value - reference) / abs(reference)
                                 if forest_value is not None else None),
            "forest_tolerance": spec.estimator.forest_tolerance,
            "exact_tolerance": spec.estimator.exact_tolerance,
            "latency_source": LATENCY_SOURCE,
        }
        row.update(_engine_percentiles(obs.REGISTRY, LATENCY_SOURCE, "exact",
                                       op="evaluate_exact"))
        row.update(_engine_percentiles(obs.REGISTRY, LATENCY_SOURCE, "forest",
                                       op="evaluate_forest"))
        if spec.mode == "service":
            row.update(_engine_percentiles(obs.REGISTRY,
                                           SERVICE_LATENCY_SOURCE, "request",
                                           kind="evaluate"))
        min_ess, floor, capacity = _pool_health_from_registry(obs.REGISTRY)
        row["min_pool_ess"] = min_ess
        row["ess_floor_abs"] = floor
        row["pool_capacity"] = capacity
        stats = engine.stats
        row.update({
            "ess_topups": stats.ess_topups,
            "forests_dropped": stats.forests_dropped,
            "forests_reweighted": stats.forests_reweighted,
            "forests_resampled": stats.forests_resampled,
            "pools_flushed": stats.pools_flushed,
            "batched_events": stats.batched_events,
        })
        row["wall_seconds"] = clock() - started
        unbind()
        if spec.mode == "sharded":
            engine.close()
    finally:
        if not was_enabled:
            obs.REGISTRY.disable()
    _apply_row_gates(row)
    if verbose:
        chaos = (f" injected={row['faults_injected']}"
                 f" typed_failures={row['typed_failures']}"
                 if faulted else "")
        print(f"[worlds] {row['world']}: "
              f"forest_err={_fmt(row['forest_rel_error'])} "
              f"exact_err={_fmt(row['exact_rel_error'])} "
              f"min_ess={_fmt(row['min_pool_ess'])} "
              f"p95_forest={_fmt(row['p95_forest_ms'])}ms{chaos}")
    return row


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _apply_row_gates(row: Dict[str, object]) -> None:
    """Stamp the per-row ``accuracy_ok`` / ``ess_ok`` verdicts.

    Accuracy: the exact path must sit within ``exact_tolerance`` of the
    from-scratch reference (incremental drift), and the pooled forest
    estimate within ``forest_tolerance`` (sampling error at the configured
    pool size).  ESS: the worst pool must retain at least half of its
    configured absolute floor after the final top-up — a pool that cannot
    hold that much effective mass under the world's churn is degraded.
    """
    exact_ok = row["exact_rel_error"] <= row["exact_tolerance"]
    forest_ok = (row["forest_rel_error"] is None
                 or row["forest_rel_error"] <= row["forest_tolerance"])
    row["accuracy_ok"] = bool(exact_ok and forest_ok)
    min_ess = row["min_pool_ess"]
    gate = 0.5 * float(row["ess_floor_abs"] or 0.0)
    row["ess_gate"] = gate
    row["ess_ok"] = bool(not np.isnan(min_ess) and min_ess >= gate)


def sweep(specs: Sequence[WorldSpec], verbose: bool = False
          ) -> List[Dict[str, object]]:
    """Run every spec through :func:`run_world`; returns the result rows."""
    return [run_world(spec, verbose=verbose) for spec in specs]


def gate_rows(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Human-readable failures for every row that missed a gate."""
    failures: List[str] = []
    for row in rows:
        if not row.get("accuracy_ok", False):
            failures.append(
                f"{row['world']}: accuracy gate failed "
                f"(exact_rel_error={_fmt(row['exact_rel_error'])} vs "
                f"{row['exact_tolerance']:g}, "
                f"forest_rel_error={_fmt(row['forest_rel_error'])} vs "
                f"{row['forest_tolerance']:g})"
            )
        if not row.get("ess_ok", False):
            failures.append(
                f"{row['world']}: ESS gate failed (min_pool_ess="
                f"{_fmt(row['min_pool_ess'])} < gate {_fmt(row['ess_gate'])})"
            )
    return failures


def smoke_specs() -> List[WorldSpec]:
    """The canonical CI smoke cross: 8 worlds over topology x churn x backend.

    Shared by ``python -m repro.experiments worlds`` and
    ``benchmarks/bench_worlds.py`` so the gated configuration is defined in
    exactly one place.  The cross touches every churn regime, both concrete
    backends, all three execution modes (including a sharded world so the
    distributed Schur-stitch path runs on every commit) and the
    popping-hostile ring family (which keeps the lockstep kernel's
    scalar-finish path under regression).  Sizes are small (48–96 nodes) so
    the whole sweep stays CI-cheap.
    """
    from repro.worlds.spec import ChurnSpec, EstimatorSpec, TrafficSpec

    estimator = EstimatorSpec(pool_size=16, max_samples=32,
                              forest_tolerance=0.6)
    return [
        WorldSpec(topology="power_law", n=72,
                  churn=ChurnSpec(regime="bursty_joins", events=16),
                  traffic=TrafficSpec(mix="read_heavy"),
                  backend="dense", estimator=estimator, seed=11),
        WorldSpec(topology="lattice", n=64,
                  churn=ChurnSpec(regime="adversarial_deletions", events=12),
                  traffic=TrafficSpec(mix="mixed"),
                  backend="dense", estimator=estimator, seed=12),
        WorldSpec(topology="small_world", n=72,
                  churn=ChurnSpec(regime="reweight_storm", events=16),
                  traffic=TrafficSpec(mix="mixed"),
                  backend="sparse", estimator=estimator, seed=13),
        WorldSpec(topology="expander", n=60,
                  churn=ChurnSpec(regime="reweight_storm", events=16,
                                  intensity=1.5),
                  traffic=TrafficSpec(mix="write_heavy"),
                  backend="dense", estimator=estimator, seed=14),
        WorldSpec(topology="planted_community", n=80,
                  churn=ChurnSpec(regime="adversarial_deletions", events=12),
                  traffic=TrafficSpec(mix="read_heavy"),
                  backend="sparse", estimator=estimator, seed=15),
        WorldSpec(topology="power_law", n=72,
                  churn=ChurnSpec(regime="mixed", events=16),
                  traffic=TrafficSpec(mix="mixed"),
                  backend="sparse", estimator=estimator, mode="service",
                  seed=16),
        WorldSpec(topology="ring", n=48,
                  churn=ChurnSpec(regime="none", events=0),
                  traffic=TrafficSpec(mix="read_heavy"),
                  backend="auto", estimator=estimator, seed=17),
        # Sharded world: bursty joins force structural re-partitions while
        # keeping weights at unity, so the merged-ESS forest path, the Schur
        # stitch and the rebuild path all run under the smoke gates.
        WorldSpec(topology="lattice", n=64,
                  churn=ChurnSpec(regime="bursty_joins", events=12),
                  traffic=TrafficSpec(mix="mixed"),
                  backend="sparse", estimator=estimator, mode="sharded",
                  shards=3, seed=18),
    ]


def faulted_smoke_specs() -> List[WorldSpec]:
    """The CI chaos-smoke cross: the canonical smoke worlds under faults.

    Each smoke world is re-run with a fault regime overlaid (the axes are
    otherwise identical, so any behavioural delta is attributable to the
    injected failures).  Regimes are matched to what each world can
    exercise: ``numerical_drift`` needs a dense tracked inverse to corrupt,
    ``worker_crash`` needs the service front end, and ``solver_flaky`` /
    ``chaos`` bite everywhere.  Sharded worlds are skipped — the distributed
    engine has no chaos seams yet and its specs reject fault regimes.  Gated
    by ``python -m repro.experiments worlds --faults``.
    """
    regimes = ("solver_flaky", "numerical_drift", "solver_flaky",
               "numerical_drift", "solver_flaky", "worker_crash", "chaos")
    faultable = [spec for spec in smoke_specs() if spec.mode != "sharded"]
    return [
        # Drift worlds roll only on tracker syncs (far fewer draws than the
        # solver seams see), so they get a higher per-call rate to guarantee
        # the corruption/watchdog-heal path actually runs in CI.
        dataclasses.replace(spec, faults=FaultSpec(
            regime=regime, rate=0.75 if regime == "numerical_drift" else 0.25))
        for spec, regime in zip(faultable, regimes)
    ]


# ----------------------------------------------------------------- artifacts
#: column order of the CSV artifact (subset of the row schema, flat scalars).
CSV_COLUMNS: Tuple[str, ...] = (
    "world", "topology", "n", "m", "churn", "traffic", "backend", "mode",
    "shards", "seed", "faults", "faults_injected", "typed_failures",
    "events_applied", "exact_rel_error", "forest_rel_error",
    "p50_exact_ms", "p95_exact_ms", "p99_exact_ms",
    "p50_forest_ms", "p95_forest_ms", "p99_forest_ms",
    "min_pool_ess", "ess_floor_abs", "pool_capacity",
    "ess_topups", "forests_dropped", "forests_reweighted",
    "accuracy_ok", "ess_ok", "wall_seconds",
)


def write_worlds_artifacts(rows: Sequence[Dict[str, object]],
                           json_path: Optional[str] = None,
                           csv_path: Optional[str] = None,
                           label: str = "worlds") -> None:
    """Write the sweep table as ``WORLDS_*.json`` (+ optional CSV).

    The JSON envelope matches the ``BENCH_*.json`` perf-trajectory artifacts
    (``benchmark`` / ``python`` / ``rows``) so the CI upload and any
    downstream trajectory tooling treat both families uniformly.
    """
    if json_path is not None:
        payload = {
            "benchmark": label,
            "python": sys.version.split()[0],
            "rows": list(rows),
        }
        Path(json_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str),
            encoding="utf-8",
        )
        print(f"[{label}] wrote {json_path}")
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS),
                                    extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow({key: row.get(key) for key in CSV_COLUMNS})
        print(f"[{label}] wrote {csv_path}")
