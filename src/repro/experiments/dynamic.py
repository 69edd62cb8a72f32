"""Dynamic-engine workload study: incremental vs from-scratch latency.

Not a paper artefact — this experiment characterises the :mod:`repro.dynamic`
subsystem.  For several update:query ratios it runs an interleaved stream of
random mutations and CFCM queries twice:

* **engine** — through :class:`repro.dynamic.DynamicCFCM` (version-aware
  query cache, incremental grounded inverses folding each update burst in as
  one rank-``t`` Woodbury batch, selectively invalidated forest pools);
* **scratch** — recomputing everything from the current snapshot on every
  query (fresh ``maximize_cfcc`` plus a fresh dense evaluation).

Updates arrive in *bursts* of ``batch`` events between evaluations (the
bursty-stream regime where the rank-``t`` batching pays off), and a
``node_churn`` fraction of events mutate the node set instead of the edge
set (peers joining/leaving, intersections opening/closing).

The report shows where the incremental layer pays off: query-heavy streams
are dominated by cache hits, update-heavy streams by O(n²t) batched updates
replacing O(n³) factorisations.

Run with::

    python -m repro.experiments dynamic [--quick] [--seed 0] [--k 5]
        [--batch 8] [--node-churn 0.1]
"""

from __future__ import annotations

from repro.utils.timer import clock
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.centrality.api import maximize_cfcc
from repro.centrality.cfcc import group_cfcc
from repro.centrality.estimators import SamplingConfig
from repro.dynamic import DynamicCFCM, DynamicGraph, random_churn_journal
from repro.experiments.report import format_table, save_json
from repro.graph import generators


def run_dynamic(k: int = 5, eps: float = 0.3, max_samples: int = 48,
                seed: int = 0, scale: str = "small",
                ratios: Sequence[Tuple[int, int]] = ((8, 1), (2, 1), (1, 1), (1, 4)),
                rounds: int = 4, method: str = "exact",
                batch: int = 1, node_churn: float = 0.0,
                backend: str = "dense", shards: int = 1,
                verbose: bool = True, quick: bool = False,
                output_json: Optional[str] = None,
                metrics_prefix: Optional[str] = None) -> List[Dict[str, object]]:
    """Execute the update/query workload study; returns one row per ratio.

    Parameters
    ----------
    ratios:
        ``(updates, queries)`` pairs; each round applies that many random
        update *bursts* and then answers that many queries.
    method:
        CFCM method used for the queries (``"exact"`` keeps the comparison
        deterministic; the sampling methods work too).
    batch:
        Events per update burst; the incumbent group is re-evaluated once per
        burst, so the engine folds each burst in as one rank-``batch``
        Woodbury update.
    node_churn:
        Fraction of events that add/remove a node instead of an edge.
    backend:
        Resistance backend of the engine pass (``"dense"``, ``"sparse"`` or
        ``"auto"``); recorded on every row so the perf trajectory
        distinguishes the engines.
    shards:
        With ``shards > 1`` the engine pass runs through
        :class:`repro.distributed.ShardedCFCM` (one tracker per shard,
        queries stitched by the global Schur complement) instead of the
        single-tracker :class:`DynamicCFCM`; the scratch pass is unchanged,
        so the speedup column compares the sharded engine against the same
        from-scratch baseline.
    metrics_prefix:
        When given, the run records onto :data:`repro.obs.REGISTRY` and the
        registry is written as ``<prefix>.prom``/``<prefix>.json`` at the
        end; engine-op latency percentiles are attached to every row.
    """
    from repro import obs

    n = 160 if quick else (240 if scale == "small" else 600)
    rounds = 2 if quick else rounds
    batch = max(1, int(batch))
    config = SamplingConfig(eps=eps, max_samples=max_samples)

    own_registry = metrics_prefix is not None and not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()

    rows: List[Dict[str, object]] = []
    for updates, queries in ratios:
        base = generators.barabasi_albert(n, 3, seed=seed)

        # Engine pass: after every update burst the incumbent group's CFCC is
        # re-evaluated through the incremental inverse (monitoring traffic);
        # selection queries go through the version-aware cache.
        rng = np.random.default_rng(seed)
        graph = DynamicGraph(base)
        if shards > 1:
            from repro.distributed import ShardedCFCM

            engine = ShardedCFCM(graph, shards=shards, seed=seed,
                                 config=config, backend=backend)
        else:
            engine = DynamicCFCM(graph, seed=seed, config=config,
                                 backend=backend)
        start = clock()
        group = engine.query(k, method=method, eps=eps).group
        for _ in range(rounds):
            for _ in range(updates):
                random_churn_journal(graph, batch, rng,
                                     node_probability=node_churn)
                group = [v for v in group if graph.has_node(v)]
                if group:
                    engine.evaluate_exact(group)
            for _ in range(queries):
                group = engine.query(k, method=method, eps=eps).group
        engine_seconds = clock() - start

        # Scratch pass: identical update stream (same rng seed), but the
        # monitoring evaluations re-invert the grounded Laplacian and every
        # query re-runs the batch algorithm on the current snapshot.
        rng = np.random.default_rng(seed)
        graph = DynamicGraph(base)
        start = clock()
        mapping = graph.snapshot_mapping()
        group = [int(mapping[v]) for v in
                 maximize_cfcc(graph.snapshot(), k, method=method, eps=eps,
                               seed=seed, config=config).group]
        for _ in range(rounds):
            for _ in range(updates):
                random_churn_journal(graph, batch, rng,
                                     node_probability=node_churn)
                group = [v for v in group if graph.has_node(v)]
                if group:
                    group_cfcc(graph.snapshot(), graph.compact_nodes(group))
            for _ in range(queries):
                mapping = graph.snapshot_mapping()
                group = [int(mapping[v]) for v in
                         maximize_cfcc(graph.snapshot(), k, method=method,
                                       eps=eps, seed=seed, config=config).group]
        scratch_seconds = clock() - start

        stats = engine.stats
        rows.append({
            "updates_per_round": updates,
            "queries_per_round": queries,
            "rounds": rounds,
            "batch": batch,
            "node_churn": node_churn,
            "backend": backend,
            "shards": shards,
            "engine_seconds": engine_seconds,
            "scratch_seconds": scratch_seconds,
            "speedup": scratch_seconds / engine_seconds if engine_seconds else None,
            "query_hits": stats.query_hits,
            "query_misses": stats.query_misses,
            "hit_rate": stats.hit_rate(),
            "batch_updates": stats.batch_updates,
            "batched_events": stats.batched_events,
            "forests_reweighted": stats.forests_reweighted,
            "forests_dropped": stats.forests_dropped,
            "ess_topups": stats.ess_topups,
            "pools_flushed": stats.pools_flushed,
        })
        if metrics_prefix is not None:
            op_seconds = obs.REGISTRY.get("repro_engine_op_seconds")
            if op_seconds is not None:
                rows[-1]["engine_op_latency"] = {
                    "p50_ms": op_seconds.percentile(50) * 1e3,
                    "p95_ms": op_seconds.percentile(95) * 1e3,
                    "p99_ms": op_seconds.percentile(99) * 1e3,
                }
        if verbose:
            print(f"[dynamic] ratio {updates}:{queries} finished "
                  f"(engine {engine_seconds:.3f}s, scratch {scratch_seconds:.3f}s)")

    if metrics_prefix is not None:
        from repro.experiments.report import write_obs_artifacts

        write_obs_artifacts(metrics_prefix, label="dynamic")
        if own_registry:
            obs.REGISTRY.disable()
    if verbose:
        print()
        print(render_dynamic(rows, n=n, k=k, method=method))
    save_json(rows, output_json)
    return rows


def render_dynamic(rows: List[Dict[str, object]], n: int, k: int,
                   method: str) -> str:
    """Format the workload rows as plain text."""
    headers = ["updates:queries", "engine(s)", "scratch(s)", "speedup",
               "hits", "misses", "hit rate", "batches", "batched ev"]
    table_rows = []
    for row in rows:
        table_rows.append([
            f"{row['updates_per_round']}:{row['queries_per_round']}",
            row["engine_seconds"], row["scratch_seconds"], row["speedup"],
            row["query_hits"], row["query_misses"], row["hit_rate"],
            row["batch_updates"], row["batched_events"],
        ])
    first = rows[0] if rows else {"batch": 1, "node_churn": 0.0}
    title = (f"Dynamic engine vs from-scratch recomputation "
             f"(n={n}, k={k}, method={method}, batch={first['batch']}, "
             f"node_churn={first['node_churn']})")
    return f"{title}\n" + format_table(headers, table_rows)
