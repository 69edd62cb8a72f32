"""Forest-pool benchmarks — importance-weighted reuse vs flush-and-redraw.

Two comparisons, both doubling as correctness gates:

* **Churn workload** — a :class:`repro.dynamic.DynamicCFCM` engine answers
  ``evaluate_forest`` after every burst of edge churn (plus occasional node
  insertions).  The importance-weighted pool reweights stored forests and
  redraws only the ESS deficit; the baseline redraws the whole pool from the
  current snapshot every round (exactly what the retired flush-on-drift
  policy did under sustained churn, where every burst breached the drift
  budget).  Both estimates are checked against the exact incremental
  inverse, so the timing comparison cannot drift apart semantically.  The
  seeded comparison runs ``--repeats`` times and the gate reads the median
  ratio: one run's ratio swings with host noise far more than the median's.
  Both strategies are timed in process CPU time (``time.process_time``),
  which leaves out the time other tenants of a shared host hold the CPU.
* **Estimator fold** — folding one ``(B, n)`` :class:`ForestBatch` into a
  :class:`repro.centrality.estimators.ForestAccumulator` with the batched
  kernels (``method="batched"``: the subtree sums the estimator reads,
  reduced over the batch, and a diagonal walk of at most τ steps along each
  node's BFS path, on the batch's preorder) vs the per-forest scalar
  reference (``method="scalar"``, on every node's subtree sums); the
  running sums are cross-checked to 1e-9.

Runnable standalone (and wired into the CI bench-smoke job)::

    PYTHONPATH=src python benchmarks/bench_pool.py --smoke
    PYTHONPATH=src python benchmarks/bench_pool.py --n 1200 --pool 96
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import obs
from repro.centrality.estimators import ForestAccumulator, rademacher_weights
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.experiments.report import (
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators
from repro.sampling import sample_forest_batch_vectorized


def _hub_roots(graph, count: int):
    return sorted(int(v) for v in np.argsort(-graph.degrees)[:count])


def _churn_round(graph: DynamicGraph, rng: np.random.Generator,
                 events: int, node_probability: float) -> None:
    """One burst of edge churn (insert-heavy, with optional node joins)."""
    for _ in range(events):
        nodes = [int(v) for v in graph.node_ids()]
        move = rng.random()
        if move < node_probability:
            attach = rng.choice(nodes, size=2, replace=False)
            graph.add_node([int(attach[0]), int(attach[1])])
            continue
        if move < node_probability + 0.6:
            for _ in range(30):
                u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    break
            continue
        edges = list(graph.edges())
        for index in rng.permutation(len(edges)):
            u, v = edges[int(index)]
            try:
                graph.remove_edge(u, v)
                break
            except Exception:
                continue


def _flush_and_redraw_estimate(graph: DynamicGraph, group, pool_size: int,
                               rng: np.random.Generator) -> float:
    """The retired policy: a full fresh pool from the current snapshot."""
    snapshot = graph.snapshot()
    roots = graph.compact_nodes(group)
    batch = sample_forest_batch_vectorized(snapshot, roots, pool_size, seed=rng)
    accumulator = ForestAccumulator(snapshot, roots, seed=rng)
    accumulator.add_batch(batch)
    return graph.n / float(np.sum(accumulator.diag_estimates()))


def run_churn_comparison(n: int, pool_size: int, rounds: int,
                         events_per_round: int, node_probability: float,
                         ba_m: int = 8, ess_floor: float = 0.25,
                         seed: int = 0, tolerance: float = 0.35,
                         verbose: bool = True) -> dict:
    """Time pooled reuse vs flush-and-redraw on identical churn journals.

    Both strategies answer one forest-mode evaluation per churn round; each
    answer is checked against the exact incremental inverse at the same
    version (within ``tolerance`` — both are Monte Carlo estimates of the
    configured pool size).

    ``ba_m`` sets the density, which is what decides the regime: a random
    edge's forest-inclusion probability is ``≈ (n - |S|) / m``, so on a
    sparse graph (``ba_m=3``: ~1/3) every event genuinely invalidates a
    third of the distribution's mass and reuse degrades to flush speed,
    while at ``ba_m=8`` (~1/8) stored forests stay importance-usable across
    many events and reuse redraws a fraction of the pool per round.
    ``ess_floor`` is the churn-tuned pool policy (the engine default of 0.5
    replaces stale mass more eagerly; 0.25 halves the redraw volume at an
    accuracy cost the exact cross-check shows to be negligible here).
    """
    base = generators.barabasi_albert(n, ba_m, seed=seed)
    group = _hub_roots(base, 4)

    reuse_graph = DynamicGraph(base)
    flush_graph = DynamicGraph(base)
    engine = DynamicCFCM(reuse_graph, seed=seed + 1, pool_size=pool_size,
                         ess_floor=ess_floor)
    exact_engine = DynamicCFCM(flush_graph, seed=seed + 2, pool_size=pool_size)
    flush_rng = np.random.default_rng(seed + 3)
    churn_rng = np.random.default_rng(seed + 4)
    replay_rng = np.random.default_rng(seed + 4)

    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        engine.evaluate_forest(group)  # warm pool: steady-state reuse regime
        reuse_latencies: list = []
        flush_latencies: list = []
        worst_reuse = worst_flush = 0.0
        for _ in range(rounds):
            _churn_round(reuse_graph, churn_rng, events_per_round,
                         node_probability)
            _churn_round(flush_graph, replay_rng, events_per_round,
                         node_probability)

            start = time.process_time()
            reuse_value = engine.evaluate_forest(group)
            reuse_latencies.append(time.process_time() - start)

            start = time.process_time()
            flush_value = _flush_and_redraw_estimate(flush_graph, group,
                                                     pool_size, flush_rng)
            flush_latencies.append(time.process_time() - start)

            exact = exact_engine.evaluate_exact(group)
            worst_reuse = max(worst_reuse, abs(reuse_value - exact) / exact)
            worst_flush = max(worst_flush, abs(flush_value - exact) / exact)
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    reuse_seconds = sum(reuse_latencies)
    flush_seconds = sum(flush_latencies)

    if worst_reuse > tolerance or worst_flush > tolerance:
        raise AssertionError(
            f"pool estimates off the exact reference: reuse {worst_reuse:.3f}, "
            f"flush {worst_flush:.3f} (tolerance {tolerance})"
        )
    stats = engine.stats
    row = {
        "n": n,
        "ba_m": ba_m,
        "pool_size": pool_size,
        "rounds": rounds,
        "events_per_round": events_per_round,
        "node_probability": node_probability,
        "ess_floor": ess_floor,
        "reuse_seconds": reuse_seconds,
        "flush_seconds": flush_seconds,
        "speedup": flush_seconds / reuse_seconds if reuse_seconds else float("inf"),
        "forests_resampled": stats.forests_resampled,
        "forests_reweighted": stats.forests_reweighted,
        "forests_dropped": stats.forests_dropped,
        "forests_folded": stats.forests_folded,
        "ess_topups": stats.ess_topups,
        "pools_flushed": stats.pools_flushed,
        "worst_reuse_error": worst_reuse,
        "worst_flush_error": worst_flush,
        "reuse_eval_latency": percentiles_ms(reuse_latencies),
        "flush_eval_latency": percentiles_ms(flush_latencies),
        # Recorded values survive disable(); registered at engine-module
        # import, so get() cannot miss.
        "engine_op_histogram":
            obs.REGISTRY.get("repro_engine_op_seconds").summary(),
    }
    if verbose:
        print(f"[churn] n={n} B={pool_size} rounds={rounds}  "
              f"reuse {reuse_seconds:.3f}s  flush {flush_seconds:.3f}s  "
              f"(x{row['speedup']:.2f}; redrew {stats.forests_resampled} of "
              f"{pool_size * rounds} flush-equivalent forests)")
    return row


def run_fold_comparison(n: int, batch: int, jl_rows: int, repeats: int = 3,
                        seed: int = 0, verbose: bool = True) -> dict:
    """Time the batched ``(B, n)`` estimator fold vs the scalar reference."""
    graph = generators.barabasi_albert(n, 3, seed=seed)
    roots = _hub_roots(graph, 4)
    jl = rademacher_weights(jl_rows, n, roots, np.random.default_rng(seed))
    forests = sample_forest_batch_vectorized(graph, roots, batch, seed=seed + 1)

    def timed(method: str):
        times = []
        accumulator = None
        for _ in range(max(1, repeats)):
            accumulator = ForestAccumulator(graph, roots, weights=jl,
                                            tracked_roots=[roots[0]], seed=0)
            start = time.perf_counter()
            accumulator.add_batch(forests, method=method)
            times.append(time.perf_counter() - start)
        return times, accumulator

    scalar_times, scalar_acc = timed("scalar")
    batched_times, batched_acc = timed("batched")
    scalar_seconds = min(scalar_times)
    batched_seconds = min(batched_times)
    for name in ("projected_sum", "diag_sum", "root_counts"):
        if not np.allclose(getattr(scalar_acc, name), getattr(batched_acc, name),
                           atol=1e-9):
            raise AssertionError(f"batched fold diverged from scalar on {name}")
    row = {
        "n": n,
        "batch": batch,
        "jl_rows": jl_rows,
        "scalar_fold_seconds": scalar_seconds,
        "batched_fold_seconds": batched_seconds,
        "fold_speedup": scalar_seconds / batched_seconds
        if batched_seconds else float("inf"),
        "scalar_fold_latency": percentiles_ms(scalar_times),
        "batched_fold_latency": percentiles_ms(batched_times),
    }
    if verbose:
        print(f"[fold] n={n} B={batch} w={jl_rows}  "
              f"scalar {scalar_seconds:.4f}s  batched {batched_seconds:.4f}s  "
              f"(x{row['fold_speedup']:.2f}); sums cross-checked")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Importance-weighted pool reuse vs flush-and-redraw")
    parser.add_argument("--n", type=int, default=600, help="graph size")
    parser.add_argument("--pool", type=int, default=48, help="pool capacity")
    parser.add_argument("--rounds", type=int, default=8, help="churn rounds")
    parser.add_argument("--events", type=int, default=6,
                        help="journal events per churn round")
    parser.add_argument("--node-probability", type=float, default=0.15,
                        help="probability a churn event is a node insertion")
    parser.add_argument("--ess-floor", type=float, default=0.25,
                        help="ESS floor fraction of the reuse engine's pools")
    parser.add_argument("--ba-m", type=int, default=8,
                        help="Barabási–Albert density of the churn graph")
    parser.add_argument("--batch", type=int, default=64,
                        help="batch size of the fold comparison")
    parser.add_argument("--jl-rows", type=int, default=8,
                        help="JL weight rows of the fold comparison")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions: the churn ratio is the "
                             "median, the fold time the best of them")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless reuse beats flush-and-redraw by "
                             "this median factor (default 1.2 in --smoke)")
    parser.add_argument("--min-fold-speedup", type=float, default=None,
                        help="fail unless the batched fold beats the scalar "
                             "fold by this factor (default 1.2 in --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed sweep for the CI perf gate")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: BENCH_pool.json)")
    args = parser.parse_args(argv)

    output = args.output_json
    min_speedup = args.min_speedup
    min_fold = args.min_fold_speedup
    if args.smoke:
        output = output or "BENCH_pool.json"
        min_speedup = 1.2 if min_speedup is None else min_speedup
        min_fold = 1.2 if min_fold is None else min_fold

    # One registry session spans both comparisons, so the METRICS_* artifact
    # carries the churn run's engine/pool histograms alongside the fold's.
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        # Every repeat is the same seeded comparison, checked against the
        # exact reference; only the timings differ between them.
        churns = [run_churn_comparison(args.n, args.pool, args.rounds,
                                       args.events, args.node_probability,
                                       ba_m=args.ba_m, ess_floor=args.ess_floor,
                                       seed=args.seed)
                  for _ in range(max(1, args.repeats))]
        speedup = float(np.median([churn["speedup"] for churn in churns]))
        fold = run_fold_comparison(args.n, args.batch, args.jl_rows,
                                   repeats=args.repeats, seed=args.seed)
        if min_speedup is not None and speedup < min_speedup:
            raise AssertionError(
                f"importance-weighted reuse too slow under churn: median "
                f"x{speedup:.2f} < x{min_speedup:.2f} over "
                f"{len(churns)} repeats (single runs "
                + ", ".join(f"x{churn['speedup']:.2f}" for churn in churns)
                + ")"
            )
        if min_fold is not None and fold["fold_speedup"] < min_fold:
            raise AssertionError(
                f"batched estimator fold too slow: "
                f"x{fold['fold_speedup']:.2f} < x{min_fold:.2f} "
                f"(scalar {fold['scalar_fold_seconds']:.4f}s, "
                f"batched {fold['batched_fold_seconds']:.4f}s)"
            )
    except AssertionError as exc:
        print(f"[bench_pool] smoke check FAILED: {exc}")
        return 1
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    rows = [dict(churn, comparison="churn", repeat=i, median_speedup=speedup)
            for i, churn in enumerate(churns)]
    rows.append(dict(fold, comparison="fold"))
    if output:
        write_bench_artifact(rows, output, benchmark="pool_reuse")
        write_obs_artifacts(metrics_prefix_for(output), label="bench_pool")
    print(f"[bench_pool] churn reuse median x{speedup:.2f} of {len(churns)}, "
          f"batched fold x{fold['fold_speedup']:.2f}; "
          "all estimates checked against the exact reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
