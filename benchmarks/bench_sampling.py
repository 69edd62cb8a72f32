"""Forest-sampling benchmarks — lockstep vectorised batches vs the scalar loop.

Compares the two ways this library can draw a batch of rooted spanning
forests:

* **scalar** — the per-forest Python loop of
  :func:`repro.sampling.sample_rooted_forest` (the pre-vectorisation
  default);
* **lockstep** — the vectorised cycle-popping kernel of
  :func:`repro.sampling.sample_forest_batch_vectorized`.

The sweep covers graph size ``n``, batch size ``B`` and root-set size
``|S|`` (roots are the top-degree hubs, matching how the CFCM algorithms
root their forests: greedy roots at the growing group, SchurCFCM enlarges
the root set with hubs on purpose).  Every timed lockstep batch is also
validated against the graph, so the benchmark doubles as a correctness
check.

Besides the pytest-benchmark suite this module is runnable standalone, so
CI can exercise it cheaply and gate on the lockstep kernel actually being
faster::

    PYTHONPATH=src python benchmarks/bench_sampling.py --smoke
    PYTHONPATH=src python benchmarks/bench_sampling.py --n 2000 --batch 128
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import pytest

from repro import obs
from repro.centrality.estimators import (
    PathSystem,
    _path_edge_down,
    _path_edge_up,
    rademacher_weights,
)
from repro.experiments.report import (
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators
from repro.sampling import sample_forest_batch_vectorized, sample_rooted_forest

BENCH_BATCH = 32


def _hub_roots(graph, count: int):
    """The ``count`` highest-degree nodes, sorted (CFCM-style root sets)."""
    return sorted(int(v) for v in np.argsort(-graph.degrees)[:count])


@pytest.mark.benchmark(group="sampling-batch")
class TestBatchSampling:
    """Scalar loop vs lockstep kernel on the standard benchmark stand-ins."""

    def test_scalar_loop(self, benchmark, sparse_graph):
        roots = _hub_roots(sparse_graph, 4)

        def run():
            rng = np.random.default_rng(0)
            return [sample_rooted_forest(sparse_graph, roots, seed=rng)
                    for _ in range(BENCH_BATCH)]

        benchmark(run)

    def test_lockstep_batch(self, benchmark, sparse_graph):
        roots = _hub_roots(sparse_graph, 4)
        benchmark(lambda: sample_forest_batch_vectorized(
            sparse_graph, roots, BENCH_BATCH, seed=0))

    def test_lockstep_batch_dense(self, benchmark, dense_graph):
        roots = _hub_roots(dense_graph, 4)
        benchmark(lambda: sample_forest_batch_vectorized(
            dense_graph, roots, BENCH_BATCH, seed=0))


@pytest.mark.benchmark(group="sampling-postprocess")
class TestBatchPostprocessing:
    """Batched ForestBatch kernels vs per-forest derived quantities."""

    def test_per_forest_subtree_sums(self, benchmark, sparse_graph):
        roots = _hub_roots(sparse_graph, 4)
        forests = sample_forest_batch_vectorized(sparse_graph, roots,
                                                 BENCH_BATCH, seed=0).forests()
        weights = np.ones((8, sparse_graph.n))

        def run():
            return [forest.subtree_sums(weights) for forest in forests]

        benchmark(run)

    def test_batched_subtree_sums(self, benchmark, sparse_graph):
        roots = _hub_roots(sparse_graph, 4)
        batch = sample_forest_batch_vectorized(sparse_graph, roots,
                                               BENCH_BATCH, seed=0)
        weights = np.ones((8, sparse_graph.n))
        benchmark(lambda: batch.subtree_sums(weights))

    def test_fold_pair_subtree_sums(self, benchmark, sparse_graph):
        """The form the estimator fold runs: the subtrees whose forest edge
        runs along or against the BFS path, with 96 JL rows."""
        roots = _hub_roots(sparse_graph, 1)
        batch = sample_forest_batch_vectorized(sparse_graph, roots,
                                               BENCH_BATCH, seed=0)
        path = PathSystem.from_graph(sparse_graph, roots)
        samples, nodes = np.nonzero(_path_edge_up(batch.parent, path)
                                    | _path_edge_down(batch.parent, path))
        weights = rademacher_weights(96, sparse_graph.n, roots,
                                     np.random.default_rng(0))
        benchmark(lambda: batch.subtree_sums(weights, samples, nodes))


# --------------------------------------------------------------------------
# Standalone sweep (also the CI smoke run)
# --------------------------------------------------------------------------

def _time_best_of(repeats, fn):
    """All per-repeat timings (seconds) plus the last result."""
    times = []
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def run_sampling_comparison(configs, repeats: int = 3, seed: int = 0,
                            verbose: bool = True):
    """Time scalar vs lockstep batch draws per config.

    ``configs`` is an iterable of ``(n, ba_m, root_count, batch)`` tuples;
    each graph is a Barabási–Albert stand-in rooted at its top-degree hubs.
    Every lockstep batch is validated against its graph.  Returns one result
    dict per config.
    """
    rows = []
    for n, ba_m, root_count, batch in configs:
        graph = generators.barabasi_albert(int(n), int(ba_m), seed=seed)
        roots = _hub_roots(graph, int(root_count))

        def scalar_draw():
            rng = np.random.default_rng(seed + 1)
            return [sample_rooted_forest(graph, roots, seed=rng)
                    for _ in range(batch)]

        scalar_times, _ = _time_best_of(repeats, scalar_draw)
        lockstep_times, lockstep_batch = _time_best_of(
            repeats,
            lambda: sample_forest_batch_vectorized(graph, roots, batch,
                                                   seed=seed + 1),
        )
        scalar_seconds = min(scalar_times)
        lockstep_seconds = min(lockstep_times)
        # The timings only compare identically distributed draws if the
        # lockstep batch is a genuine forest sample; validate it.
        lockstep_batch.forest(0).validate_against(graph)
        if not np.all(lockstep_batch.tree_sizes().sum(axis=1) == graph.n):
            raise AssertionError("lockstep batch does not span the graph")

        row = {
            "n": int(n),
            "ba_m": int(ba_m),
            "roots": int(root_count),
            "batch": int(batch),
            "scalar_seconds": scalar_seconds,
            "lockstep_seconds": lockstep_seconds,
            "speedup": scalar_seconds / lockstep_seconds
            if lockstep_seconds else float("inf"),
            "scalar_draw_latency": percentiles_ms(scalar_times),
            "lockstep_draw_latency": percentiles_ms(lockstep_times),
        }
        rows.append(row)
        if verbose:
            print(f"n={n:>5} |S|={root_count:>3} B={batch:>4}  "
                  f"scalar {scalar_seconds:.4f}s  "
                  f"lockstep {lockstep_seconds:.4f}s  "
                  f"(x{row['speedup']:.2f})")
    return rows


SMOKE_CONFIGS = (
    # The CFCM hot path: n ≈ 1000, forests rooted at a hub group.  The
    # lockstep kernel must beat the scalar loop clearly here (the
    # acceptance regime: >= 3x locally, --min-speedup gates CI).
    (1000, 3, 4, 64),
    # Worst-case single-root draw, reported but not gated: the lockstep
    # win is thinner when the root set holds no hubs.
    (1000, 3, 1, 64),
)

FULL_CONFIGS = tuple(
    (n, 3, root_count, batch)
    for n in (500, 1000, 2000)
    for root_count in (1, 4, 16)
    for batch in (32, 128)
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Scalar vs lockstep forest sampling")
    parser.add_argument("--n", type=int, nargs="+", default=None,
                        help="graph sizes to sweep (default: full sweep)")
    parser.add_argument("--batch", type=int, nargs="+", default=[32, 128],
                        help="batch sizes to sweep")
    parser.add_argument("--roots", type=int, nargs="+", default=[1, 4, 16],
                        help="root-set sizes to sweep (top-degree hubs)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the gated config's lockstep "
                             "speedup reaches this (default 1.5 in --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed sweep for the CI perf gate")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: BENCH_sampling.json)")
    args = parser.parse_args(argv)

    output = args.output_json
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        if args.smoke:
            output = output or "BENCH_sampling.json"
            min_speedup = args.min_speedup if args.min_speedup is not None else 1.5
            rows = run_sampling_comparison(SMOKE_CONFIGS, repeats=args.repeats,
                                           seed=args.seed)
            gated = rows[0]
            if not np.isfinite(gated["speedup"]):
                raise AssertionError("non-finite lockstep timing")
            if gated["speedup"] < min_speedup:
                raise AssertionError(
                    f"lockstep sampler too slow on the smoke config: "
                    f"x{gated['speedup']:.2f} < x{min_speedup:.2f} "
                    f"(scalar {gated['scalar_seconds']:.4f}s, "
                    f"lockstep {gated['lockstep_seconds']:.4f}s)"
                )
        else:
            if args.n is None:
                configs = FULL_CONFIGS
            else:
                configs = tuple((n, 3, r, b) for n in args.n
                                for r in args.roots for b in args.batch)
            rows = run_sampling_comparison(configs, repeats=args.repeats,
                                           seed=args.seed)
            if args.min_speedup is not None:
                slow = [row for row in rows if row["speedup"] < args.min_speedup]
                if slow:
                    raise AssertionError(
                        f"{len(slow)} configs below x{args.min_speedup:.2f}"
                    )
    except AssertionError as exc:
        print(f"[bench_sampling] smoke check FAILED: {exc}")
        return 1
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    if output:
        write_bench_artifact(rows, output, benchmark="sampling_lockstep")
        write_obs_artifacts(metrics_prefix_for(output), label="bench_sampling")
    headline = max(rows, key=lambda row: row["speedup"])
    print(f"[bench_sampling] {len(rows)} configs compared; best lockstep "
          f"speedup x{headline['speedup']:.2f} "
          f"(n={headline['n']}, |S|={headline['roots']}, "
          f"B={headline['batch']}); all batches validated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
