"""Dynamic-engine benchmarks — incremental maintenance vs from-scratch work.

Comparisons pairing an incremental path of :mod:`repro.dynamic` with the
batch recomputation it replaces:

* maintaining ``Tr(inv(L_{-S}))`` across a burst of ``t`` edge updates three
  ways: **batched** (one rank-``t`` Woodbury sync per burst), **sequential**
  (a Sherman–Morrison sync after every single event) and **refactorise** (a
  fresh O(n³) inversion per burst).  The two incremental strategies include
  the tracker's own budget refreshes: on the dense backend a
  refactorisation once 64 updates have been absorbed, or on a burst of more;
* answering a repeated CFCM query on an unchanged graph: version-aware cache
  hit versus re-running the batch algorithm;
* an update-heavy monitoring workload (updates interleaved with group-CFCC
  evaluations) end to end through the engine versus from scratch.

Besides the pytest-benchmark suite this module is runnable standalone, so CI
can exercise it cheaply::

    PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke
    PYTHONPATH=src python benchmarks/bench_dynamic.py --n 600 --repeats 5
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import pytest

from repro import obs
from repro.centrality.api import maximize_cfcc
from repro.centrality.cfcc import group_cfcc, grounded_trace
from repro.dynamic import DynamicCFCM, DynamicGraph, IncrementalResistance, \
    random_update_journal
from repro.experiments.report import (
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators

UPDATE_BURST = 8
GROUP = (0, 1, 2)


def _dynamic_copy(graph):
    """Fresh DynamicGraph over the session-scoped fixture topology."""
    return DynamicGraph(graph)


@pytest.mark.benchmark(group="dynamic-updates")
class TestIncrementalResistanceMaintenance:
    """Burst maintenance: batched rank-t vs per-event rank-1 vs refactorise."""

    def test_batched_sync_per_burst(self, benchmark, sparse_graph):
        def run():
            graph = _dynamic_copy(sparse_graph)
            tracker = IncrementalResistance(graph, list(GROUP))
            rng = np.random.default_rng(0)
            for _ in range(4):
                random_update_journal(graph, UPDATE_BURST, rng)
                tracker.trace()  # whole burst folds in as one Woodbury solve
            return tracker.trace()

        benchmark(run)

    def test_sequential_sync_per_event(self, benchmark, sparse_graph):
        def run():
            graph = _dynamic_copy(sparse_graph)
            tracker = IncrementalResistance(graph, list(GROUP))
            rng = np.random.default_rng(0)
            for _ in range(4):
                for _ in range(UPDATE_BURST):
                    random_update_journal(graph, 1, rng)
                    tracker.trace()  # one rank-1 step per event
            return tracker.trace()

        benchmark(run)

    def test_scratch_inversion_per_burst(self, benchmark, sparse_graph):
        def run():
            graph = _dynamic_copy(sparse_graph)
            grounded_trace(graph.snapshot(), list(GROUP))
            rng = np.random.default_rng(0)
            value = 0.0
            for _ in range(4):
                random_update_journal(graph, UPDATE_BURST, rng)
                value = grounded_trace(graph.snapshot(), list(GROUP))
            return value

        benchmark(run)


@pytest.mark.benchmark(group="dynamic-query")
class TestCachedQueries:
    def test_engine_repeat_query(self, benchmark, sparse_graph, loose_config):
        engine = DynamicCFCM(_dynamic_copy(sparse_graph), seed=0,
                             config=loose_config)
        engine.query(4, method="schur")  # warm the cache once
        benchmark(lambda: engine.query(4, method="schur"))

    def test_scratch_repeat_query(self, benchmark, sparse_graph, loose_config):
        snapshot = _dynamic_copy(sparse_graph).snapshot()
        benchmark(lambda: maximize_cfcc(snapshot, 4, method="schur", seed=0,
                                        config=loose_config))


@pytest.mark.benchmark(group="dynamic-workload")
class TestUpdateHeavyWorkload:
    """8 updates : 1 evaluation per round — the update-heavy regime."""

    def test_engine_update_heavy(self, benchmark, sparse_graph):
        def run():
            graph = _dynamic_copy(sparse_graph)
            engine = DynamicCFCM(graph, seed=0)
            rng = np.random.default_rng(1)
            value = engine.evaluate_exact(list(GROUP))
            for _ in range(4):
                random_update_journal(graph, UPDATE_BURST, rng)
                value = engine.evaluate_exact(list(GROUP))
            return value

        benchmark(run)

    def test_scratch_update_heavy(self, benchmark, sparse_graph):
        def run():
            graph = _dynamic_copy(sparse_graph)
            rng = np.random.default_rng(1)
            value = group_cfcc(graph.snapshot(), list(GROUP))
            for _ in range(4):
                random_update_journal(graph, UPDATE_BURST, rng)
                value = group_cfcc(graph.snapshot(), list(GROUP))
            return value

        benchmark(run)


# --------------------------------------------------------------------------
# Standalone burst-size study (also the CI smoke run)
# --------------------------------------------------------------------------

def run_burst_comparison(n: int = 400, bursts: int = 4,
                         t_values=(4, 16, 64), repeats: int = 3,
                         seed: int = 0, backend: str = "dense",
                         verbose: bool = True):
    """Time batched vs sequential vs refactorise syncs per burst size ``t``.

    Every strategy replays the *same* update stream; their final traces are
    cross-checked to 1e-8 so the timings cannot drift apart semantically.
    ``backend`` selects the resistance backend of the incremental trackers
    and is recorded on every row.  Returns one result dict per ``t``.
    """
    base = generators.barabasi_albert(n, 3, seed=seed)
    group = list(GROUP)
    rows = []
    for t in t_values:
        timings = {"batched": 0.0, "sequential": 0.0, "refactorise": 0.0}
        latencies = {name: [] for name in timings}
        traces = {}

        for strategy in timings:
            rng = np.random.default_rng(seed + 1)
            graph = DynamicGraph(base)
            tracker = None
            if strategy != "refactorise":
                tracker = IncrementalResistance(graph, group, backend=backend)
            value = 0.0
            start = time.perf_counter()
            for _ in range(repeats):
                for _ in range(bursts):
                    # Per-burst sync latency excludes journal generation so
                    # the percentile fields compare the maintenance work
                    # alone; the aggregate timing keeps the whole loop.
                    if strategy == "sequential":
                        burst_seconds = 0.0
                        for _ in range(t):
                            random_update_journal(graph, 1, rng)
                            op_start = time.perf_counter()
                            value = tracker.trace()
                            burst_seconds += time.perf_counter() - op_start
                        latencies[strategy].append(burst_seconds)
                    else:
                        random_update_journal(graph, t, rng)
                        op_start = time.perf_counter()
                        if strategy == "batched":
                            value = tracker.trace()
                        else:
                            value = grounded_trace(graph.snapshot(), group)
                        latencies[strategy].append(
                            time.perf_counter() - op_start)
            timings[strategy] = time.perf_counter() - start
            traces[strategy] = value

        spread = max(traces.values()) - min(traces.values())
        if not spread < 1e-8 * max(1.0, abs(traces["refactorise"])):
            raise AssertionError(
                f"strategies disagree at t={t}: {traces} (spread {spread})"
            )
        row = {
            "t": t,
            "backend": backend,
            "batched_seconds": timings["batched"],
            "sequential_seconds": timings["sequential"],
            "refactorise_seconds": timings["refactorise"],
            "speedup_vs_sequential": timings["sequential"] / timings["batched"]
            if timings["batched"] else float("inf"),
            "speedup_vs_refactorise": timings["refactorise"] / timings["batched"]
            if timings["batched"] else float("inf"),
            "batched_burst_latency": percentiles_ms(latencies["batched"]),
            "sequential_burst_latency": percentiles_ms(latencies["sequential"]),
            "refactorise_burst_latency": percentiles_ms(latencies["refactorise"]),
        }
        rows.append(row)
        if verbose:
            print(f"t={t:>3}  batched {row['batched_seconds']:.4f}s  "
                  f"sequential {row['sequential_seconds']:.4f}s  "
                  f"refactorise {row['refactorise_seconds']:.4f}s  "
                  f"(x{row['speedup_vs_sequential']:.2f} vs sequential, "
                  f"x{row['speedup_vs_refactorise']:.2f} vs refactorise)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Batched vs sequential vs refactorise burst maintenance")
    parser.add_argument("--n", type=int, default=400, help="graph size")
    parser.add_argument("--bursts", type=int, default=4,
                        help="update bursts per repeat")
    parser.add_argument("--repeats", type=int, default=3,
                        help="stream repetitions per strategy")
    parser.add_argument("--t", type=int, nargs="+", default=[4, 16, 64],
                        help="burst sizes to sweep")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--backend", choices=("dense", "sparse", "auto"),
                        default="dense",
                        help="resistance backend of the incremental trackers")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for a CI correctness/rot check")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: BENCH_dynamic.json)")
    args = parser.parse_args(argv)

    # Smoke failures must gate CI: exit non-zero with a one-line verdict
    # instead of only printing (or worse, returning 0 with a traceback in
    # the log that nothing checks).
    output = args.output_json
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        if args.smoke:
            output = output or "BENCH_dynamic.json"
            rows = run_burst_comparison(n=120, bursts=2, t_values=(4, 16),
                                        repeats=1, seed=args.seed,
                                        backend=args.backend)
        else:
            rows = run_burst_comparison(n=args.n, bursts=args.bursts,
                                        t_values=tuple(args.t),
                                        repeats=args.repeats, seed=args.seed,
                                        backend=args.backend)
        for row in rows:
            for key in ("batched_seconds", "sequential_seconds",
                        "refactorise_seconds"):
                if not np.isfinite(row[key]) or row[key] < 0.0:
                    raise AssertionError(f"non-finite timing {key}={row[key]} "
                                         f"at t={row['t']}")
    except AssertionError as exc:
        print(f"[bench_dynamic] smoke check FAILED: {exc}")
        return 1
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    if output:
        write_bench_artifact(rows, output, benchmark="dynamic_bursts")
        write_obs_artifacts(metrics_prefix_for(output), label="bench_dynamic")
    print(f"[bench_dynamic] {len(rows)} burst sizes compared; "
          "all strategies agreed to 1e-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
