"""Sharded vs single-tracker serving throughput (repro.distributed).

One workload, two engines: a stream of edge reweights interleaved with
trace (group-CFCC) and resistance queries runs once through a single
:class:`repro.dynamic.DynamicCFCM` and once through a
:class:`repro.distributed.ShardedCFCM` over the same lattice, each engine
owning its own :class:`DynamicGraph` fed the identical mutation sequence
(sharing one graph would let either engine's journal compaction starve the
other's trackers).

The sharded win on a single core is *solver locality*: splu factor time and
per-column solve time both grow superlinearly in ``n``, so four
quarter-sized trackers beat one full-sized tracker even executed back to
back — the Schur stitch itself is a handful of dense BLAS-3 calls over the
separator block.

Each engine's ``build_s`` is the CPU time of the building thread to build
it from the lattice and serve its first exact read (BLAS worker threads are
not counted); it is recorded, not gated.  Run as a script, the file pins
BLAS to one thread before NumPy loads, so ``build_s`` and ``speedup`` time
the engines rather than the BLAS thread pool.

Gates (checked by ``main``):

* smoke mode (CI) — both engines match the from-scratch dense reference to
  1e-8 on a small lattice, dense backends end to end;
* full mode (``--side 320 --shards 4``, n = 102 400) — sampled sharded
  resistances match a fresh global splu reference to 1e-8 and aggregate
  update+query throughput is >= 2.5x the single-tracker engine.  Trace
  queries at that scale are served sketched (both engines, same
  convention), so the 1e-8 surface is the exact resistance path.

Standalone::

    PYTHONPATH=src python benchmarks/bench_distributed.py --smoke
    PYTHONPATH=src python benchmarks/bench_distributed.py --side 320 \\
        --shards 4 --cycles 16
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, set before NumPy loads; a pytest session that
    # imports this file keeps its own environment.
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from repro import obs  # noqa: E402
from repro.distributed import ShardedCFCM  # noqa: E402
from repro.dynamic import DynamicCFCM, DynamicGraph  # noqa: E402
from repro.experiments.report import (  # noqa: E402
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators  # noqa: E402


def _strip_seeds(rows: int, cols: int, shards: int) -> list:
    """Seed nodes at strip centres so the partition cuts along grid rows."""
    return [((2 * i + 1) * rows // (2 * shards)) * cols + cols // 2
            for i in range(shards)]


def _workload(rows: int, cols: int, cycles: int, updates: int,
              queries: int, seed: int):
    """Deterministic mutation/query schedule shared by both engines.

    Reweight-only churn (weight toggles between 1 and 2 on lattice edges):
    removals would route both engines through the same pure-Python
    disconnection guard and measure that instead of the solvers.
    """
    rng = np.random.default_rng(seed)
    graph = generators.grid_graph(rows, cols)
    edges = list(graph.edges())
    n = rows * cols
    plan = []
    for _ in range(cycles):
        picks = rng.choice(len(edges), size=updates, replace=False)
        probes = rng.integers(0, n, size=queries)
        plan.append(([tuple(edges[p]) for p in picks],
                     [int(x) for x in probes]))
    return plan


def _timed_build(make_engine, group):
    """``(engine, build_s)``: thread CPU seconds to build and serve one exact read."""
    start = time.thread_time()
    engine = make_engine()
    engine.evaluate_exact(group)
    return engine, time.thread_time() - start


def _drive(engine, graph, plan, group):
    """Apply the schedule through one engine.

    Returns ``(seconds, latencies, warmup_seconds)``.  The warmup — an exact
    read and the first resistance query, with whatever factorisations and
    group-state build they still need — runs outside the timed window for
    both engines: the gate measures steady-state update+query throughput,
    and the one-time builds are reported separately.
    """
    warmup_start = time.perf_counter()
    engine.evaluate_exact(group)
    _resistance(engine, next(x for x in plan[0][1] if x not in group), group)
    warmup = time.perf_counter() - warmup_start
    query_lat = []
    start = time.perf_counter()
    for edge_picks, probes in plan:
        for u, v in edge_picks:
            graph.update_weight(u, v, 3.0 - graph.weight(u, v))  # toggle 1<->2
        t0 = time.perf_counter()
        engine.evaluate_exact(group)
        for node in probes:
            if node not in group:
                _resistance(engine, node, group)
        query_lat.append(time.perf_counter() - t0)
    return time.perf_counter() - start, query_lat, warmup


def _resistance(engine, node, group):
    if isinstance(engine, ShardedCFCM):
        return engine.resistance_to_group(node, group)
    return engine.tracker(group).resistance_to_group(node)


def _splu_reference_diag(graph: DynamicGraph, group, nodes):
    """Exact grounded resistances from a fresh global factorisation."""
    lap = graph.laplacian_sparse().tocsc()
    grounded = set(graph.compact_nodes(group))
    keep = np.array([i for i in range(graph.n) if i not in grounded])
    lu = spla.splu(lap[np.ix_(keep, keep)].tocsc())
    position = {int(c): i for i, c in enumerate(keep)}
    out = {}
    for node in nodes:
        row = position[graph.compact_index(node)]
        rhs = np.zeros(len(keep))
        rhs[row] = 1.0
        out[node] = float(lu.solve(rhs)[row])
    return out


def run_comparison(rows: int, cols: int, shards: int, cycles: int,
                   updates: int, queries: int, seed: int,
                   backend: str, check_nodes: int = 16):
    """One head-to-head run; returns a ``BENCH_*.json`` row."""
    n = rows * cols
    group = (0, n // 2 + cols // 2)
    plan = _workload(rows, cols, cycles, updates, queries, seed)

    single, single_build = _timed_build(
        lambda: DynamicCFCM(generators.grid_graph(rows, cols), seed=seed,
                            backend=backend), group)
    graph_single = single.graph
    single_seconds, single_lat, single_warm = _drive(
        single, graph_single, plan, group)

    sharded, sharded_build = _timed_build(
        lambda: ShardedCFCM(generators.grid_graph(rows, cols), shards=shards,
                            seed=seed, backend=backend,
                            seeds=_strip_seeds(rows, cols, shards)), group)
    graph_sharded = sharded.graph
    sharded_seconds, sharded_lat, sharded_warm = _drive(
        sharded, graph_sharded, plan, group)

    # Exactness: sampled resistances from both engines against one fresh
    # global factorisation of the final (identical) graph state.
    rng = np.random.default_rng(seed + 1)
    sample = [int(x) for x in rng.integers(0, n, size=check_nodes)
              if int(x) not in group]
    reference = _splu_reference_diag(graph_sharded, group, sample)
    errs_single = [abs(_resistance(single, x, group) - reference[x])
                   for x in sample]
    errs_sharded = [abs(_resistance(sharded, x, group) - reference[x])
                    for x in sample]

    return {
        "n": n,
        "rows": rows,
        "cols": cols,
        "shards": shards,
        "cycles": cycles,
        "updates_per_cycle": updates,
        "queries_per_cycle": queries,
        "backend": backend,
        "separator_nodes": len(sharded.partition.separator),
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "single_build_s": single_build,
        "sharded_build_s": sharded_build,
        "single_warmup_seconds": single_warm,
        "sharded_warmup_seconds": sharded_warm,
        "speedup": single_seconds / sharded_seconds,
        "single_cycle_ms": percentiles_ms(single_lat),
        "sharded_cycle_ms": percentiles_ms(sharded_lat),
        "max_resistance_err_single": max(errs_single),
        "max_resistance_err_sharded": max(errs_sharded),
    }


def run_smoke_exactness(seed: int = 0):
    """Dense-backend end-to-end 1e-8 gate on a small lattice."""
    rows, cols = 8, 24
    n = rows * cols
    plan = _workload(rows, cols, cycles=3, updates=12, queries=4, seed=seed)
    graph = DynamicGraph(generators.grid_graph(rows, cols))
    engine = ShardedCFCM(graph, shards=4, seed=seed, backend="dense")
    group = (0, n // 2)
    _drive(engine, graph, plan, group)

    lap = graph.laplacian_dense()
    grounded = set(graph.compact_nodes(group))
    keep = [i for i in range(n) if i not in grounded]
    inverse = np.linalg.inv(lap[np.ix_(keep, keep)])
    position = {c: i for i, c in enumerate(keep)}
    cfcc_ref = n / np.trace(inverse)
    cfcc_err = abs(engine.evaluate_exact(group) - cfcc_ref)
    diag_err = max(
        abs(engine.resistance_to_group(node, group)
            - inverse[position[graph.compact_index(node)],
                      position[graph.compact_index(node)]])
        for node in range(n) if node not in grounded
    )
    return {"n": n, "cfcc_err": cfcc_err, "max_resistance_err": diag_err}


@pytest.mark.benchmark(group="distributed")
class TestShardedThroughput:
    """pytest-benchmark smoke pair: one cycle through each engine."""

    ROWS, COLS = 8, 24

    def _plan(self):
        return _workload(self.ROWS, self.COLS, cycles=1, updates=8,
                         queries=2, seed=0)

    def test_single_tracker_cycle(self, benchmark):
        plan = self._plan()

        def run():
            graph = DynamicGraph(generators.grid_graph(self.ROWS, self.COLS))
            engine = DynamicCFCM(graph, seed=0, backend="dense")
            return _drive(engine, graph, plan, (0,))[0]

        benchmark(run)

    def test_sharded_cycle(self, benchmark):
        plan = self._plan()

        def run():
            graph = DynamicGraph(generators.grid_graph(self.ROWS, self.COLS))
            engine = ShardedCFCM(graph, shards=4, seed=0, backend="dense")
            return _drive(engine, graph, plan, (0,))[0]

        benchmark(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded vs single-tracker update+query throughput")
    parser.add_argument("--side", type=int, default=320,
                        help="lattice side (n = side^2)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--cycles", type=int, default=16)
    parser.add_argument("--updates", type=int, default=48,
                        help="edge reweights per cycle")
    parser.add_argument("--queries", type=int, default=8,
                        help="resistance queries per cycle (plus one trace)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=("dense", "sparse", "auto"),
                        default="sparse")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="full-mode throughput gate (x single-tracker)")
    parser.add_argument("--smoke", action="store_true",
                        help="small dense-backend run for a CI exactness gate")
    parser.add_argument("--output-json", default=None)
    args = parser.parse_args(argv)

    output = args.output_json
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        if args.smoke:
            output = output or "BENCH_distributed.json"
            exact = run_smoke_exactness(seed=args.seed)
            if exact["cfcc_err"] > 1e-8 or exact["max_resistance_err"] > 1e-8:
                raise AssertionError(
                    f"smoke exactness gate failed: {exact}")
            row = run_comparison(rows=8, cols=24, shards=4, cycles=2,
                                 updates=8, queries=4, seed=args.seed,
                                 backend="dense", check_nodes=8)
            row.update(mode="smoke", **{f"exact_{k}": v
                                        for k, v in exact.items()})
            rows = [row]
        else:
            row = run_comparison(rows=args.side, cols=args.side,
                                 shards=args.shards, cycles=args.cycles,
                                 updates=args.updates, queries=args.queries,
                                 seed=args.seed, backend=args.backend)
            row["mode"] = "full"
            rows = [row]
            if row["speedup"] < args.min_speedup:
                raise AssertionError(
                    f"speedup {row['speedup']:.2f}x below the "
                    f"{args.min_speedup}x gate (single "
                    f"{row['single_seconds']:.2f}s, sharded "
                    f"{row['sharded_seconds']:.2f}s)")
        for row in rows:
            if row["max_resistance_err_sharded"] > 1e-8:
                raise AssertionError(
                    "sharded resistances diverged from the reference: "
                    f"{row['max_resistance_err_sharded']:.2e}")
    except AssertionError as exc:
        print(f"[bench_distributed] FAILED: {exc}")
        return 1
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    if output:
        write_bench_artifact(rows, output, benchmark="distributed_scaling")
        write_obs_artifacts(metrics_prefix_for(output),
                            label="bench_distributed")
    for row in rows:
        print(f"[bench_distributed] n={row['n']} shards={row['shards']} "
              f"single={row['single_seconds']:.3f}s "
              f"sharded={row['sharded_seconds']:.3f}s "
              f"speedup={row['speedup']:.2f}x "
              f"build={row['single_build_s']:.3f}s/"
              f"{row['sharded_build_s']:.3f}s "
              f"max_err={row['max_resistance_err_sharded']:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
