"""Resistance-backend benchmarks — sparse solver-backed vs dense Woodbury.

Both backends replay the *same* recorded edge-update journal through
:class:`repro.dynamic.IncrementalResistance` and answer the same per-burst
``group_cfcc`` monitoring query; only the engine underneath differs:

* **dense** — the explicit ``inv(L_{-S})`` with rank-``t`` Woodbury folds
  (O(n²) per sync, O(n²) memory);
* **sparse** — a sparse grounded factorisation with low-rank corrections and
  JL-sketched Hutchinson diagonals (Õ(m) per sync, O(m + nt) memory).

Four correctness gates keep the timings honest:

1. the dense replay must stay **bit-identical** to a hand-rolled replay of
   the pre-backend update functions (``grounded_inverse_edge_update`` /
   ``grounded_inverse_block_update``) — the refactor is not allowed to move
   a single ULP on the incumbent path;
2. the dense final trace must match a fresh ``grounded_trace`` to 1e-8;
3. the sparse (sketched) final trace must agree with the exact inverse to
   ``--tolerance`` relative error;
4. the sparse tracker's exact diagonal (its factor plus the low-rank
   correction, no sketch) must match a fresh dense inverse to
   :data:`EXACT_TOLERANCE` relative error — the sketch cannot see a factor
   error of 1e-6, this gate can.

A second phase replays a node-churn journal (joins and leaves among the
edge events) on the sparse backend alone, which absorbs each node event as
rank-(deg+1) triples on spare or tombstoned rows of a fixed-size factor.  It
fails unless the tracker's exact diagonal matches a fresh dense inverse to
:data:`EXACT_TOLERANCE` and the tracker refactorised fewer times than there
were bursts.

The ``--smoke`` run additionally gates on the sparse backend being at least
1.5x faster than dense on the sync+evaluate path, which is what CI checks::

    PYTHONPATH=src python benchmarks/bench_backend.py --smoke
    PYTHONPATH=src python benchmarks/bench_backend.py --n 3000 --t 32
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Sequence

import numpy as np

from repro import obs
from repro.centrality.cfcc import grounded_trace
from repro.dynamic import (
    DynamicGraph,
    GraphUpdate,
    IncrementalResistance,
    apply_event,
    random_churn_journal,
    random_update_journal,
)
from repro.experiments.report import (
    metrics_prefix_for,
    percentiles_ms,
    write_bench_artifact,
    write_obs_artifacts,
)
from repro.graph import generators
from repro.linalg import (
    DenseResistanceBackend,
    SparseResistanceBackend,
    grounded_inverse_block_update,
    grounded_inverse_edge_update,
    grounded_laplacian_dense,
)

GROUP = (0, 1, 2)
SMOKE_SPEEDUP = 1.5
#: Largest relative error of the sparse exact diagonal against a dense inverse.
EXACT_TOLERANCE = 1e-10
#: Share of node joins and leaves among the node-churn phase's events.
NODE_PROBABILITY = 0.15


def _record_journal(base, bursts: int, t: int, seed: int) -> List[List[GraphUpdate]]:
    """Generate one shared edge-update stream, recorded burst by burst."""
    rng = np.random.default_rng(seed + 1)
    graph = DynamicGraph(base)
    return [random_update_journal(graph, t, rng) for _ in range(bursts)]


def _reference_dense_replay(base, journal: Sequence[Sequence[GraphUpdate]],
                            group: Sequence[int]) -> np.ndarray:
    """Replay the journal with the pre-backend dense update kernels.

    Mirrors the tracker's sync exactly — one rank-``t`` batch per burst
    (single-event batches through the Sherman–Morrison path), a fresh
    ``np.linalg.inv`` of the grounded slice once the updates since the last
    one reach the dense budget of 64 or a burst alone passes it — so the
    result must be bit-identical to the dense backend's inverse.  The
    journal is edge-only, so the kept-row mapping is fixed.
    """
    budget = DenseResistanceBackend.break_even
    graph = DynamicGraph(base)
    mapping = graph.snapshot_mapping()
    grounded = set(int(v) for v in group)
    keep_mask = np.array([int(x) not in grounded for x in mapping])
    positions = np.flatnonzero(keep_mask)
    inverse = np.linalg.inv(
        graph.laplacian_dense()[np.ix_(positions, positions)])
    local = {int(x): row for row, x in enumerate(mapping[keep_mask])}
    updates = 0
    for burst in journal:
        triples = []
        for event in burst:
            apply_event(graph, event)
            if event.u in grounded and event.v in grounded:
                continue
            i = local.get(event.u, -1)
            j = local.get(event.v, -1)
            if i < 0:
                i, j = j, -1
            triples.append((i, None if j < 0 else j, event.delta))
        if not triples:
            continue
        if updates >= budget or len(triples) > budget:
            inverse = np.linalg.inv(
                graph.laplacian_dense()[np.ix_(positions, positions)])
            updates = 0
        elif len(triples) == 1:
            inverse = grounded_inverse_edge_update(inverse, *triples[0])
            updates += 1
        else:
            inverse = grounded_inverse_block_update(inverse, triples)
            updates += len(triples)
    return inverse


def run_backend_comparison(n: int = 3000, bursts: int = 6, t: int = 32,
                           seed: int = 0, probes: int = 24,
                           tolerance: float = 0.1,
                           verbose: bool = True) -> List[Dict[str, object]]:
    """Time dense vs sparse backends on one shared monitoring workload.

    Each tracker refactorises at its backend's break-even (a fixed 64
    updates on dense, the factor's own estimate on sparse), so the replay
    models sustained churn: low-rank folds between refreshes, a periodic
    refactorisation — O(n³) on dense, Õ(m) on sparse, which is exactly the
    gap this benchmark exists to show.
    Returns one row per backend; the sparse row carries the sync+evaluate
    speedup over dense.  Raises ``AssertionError`` when a correctness gate
    fails (backends drifting apart is a bug, not a data point).
    """
    base = generators.barabasi_albert(n, 3, seed=seed)
    group = list(GROUP)
    journal = _record_journal(base, bursts, t, seed)
    events_total = sum(len(burst) for burst in journal)

    rows: List[Dict[str, object]] = []
    timings: Dict[str, float] = {}
    for backend in ("dense", "sparse"):
        graph = DynamicGraph(base)
        tracker = IncrementalResistance(graph, group, backend=(
            SparseResistanceBackend(probes=probes, seed=seed)
            if backend == "sparse" else backend))
        tracker.trace()  # factorisation warm-up outside the timed region
        latencies: List[float] = []
        value = 0.0
        for burst in journal:
            for event in burst:
                apply_event(graph, event)
            op_start = time.perf_counter()
            value = tracker.group_cfcc()
            latencies.append(time.perf_counter() - op_start)
        seconds = float(sum(latencies))
        timings[backend] = seconds

        exact = graph.n / grounded_trace(graph.snapshot(), group)
        rel_err = abs(value - exact) / max(1.0, abs(exact))
        row: Dict[str, object] = {
            "backend": backend,
            "n": n,
            "bursts": bursts,
            "t": t,
            "events": events_total,
            "probes": probes if backend == "sparse" else None,
            "sync_evaluate_seconds": seconds,
            "burst_latency": percentiles_ms(latencies),
            "group_cfcc": value,
            "group_cfcc_exact": exact,
            "relative_error": rel_err,
            "refreshes": tracker.stats.refreshes,
            "batched_events": tracker.stats.batched_events,
        }
        if backend == "dense":
            if not rel_err <= 1e-8:
                raise AssertionError(
                    f"dense backend drifted from the exact inverse: "
                    f"{value!r} vs {exact!r} (rel err {rel_err:.3e})"
                )
            reference = _reference_dense_replay(base, journal, group)
            if not np.array_equal(reference, tracker.inverse):
                worst = float(np.abs(reference - tracker.inverse).max())
                raise AssertionError(
                    f"dense backend is not bit-identical to the pre-backend "
                    f"update kernels (max abs diff {worst:.3e})"
                )
            row["bit_identical"] = True
        else:
            if not rel_err <= tolerance:
                raise AssertionError(
                    f"sparse sketched estimate outside tolerance: {value!r} "
                    f"vs exact {exact!r} (rel err {rel_err:.3e} > {tolerance})"
                )
            row["speedup_vs_dense"] = (
                timings["dense"] / seconds if seconds else float("inf")
            )
            row["solver"] = tracker.backend.solver_used
            exact_diag = np.diag(np.linalg.inv(
                grounded_laplacian_dense(graph.snapshot(), group)[0]))
            diag_err = float(
                np.abs(tracker.diagonal(mode="exact") - exact_diag).max()
                / np.abs(exact_diag).max())
            row["exact_diagonal_relative_error"] = diag_err
            if not diag_err <= EXACT_TOLERANCE:
                raise AssertionError(
                    f"sparse exact diagonal ({row['solver']}) drifted from the "
                    f"dense inverse: rel err {diag_err:.3e} > {EXACT_TOLERANCE}"
                )
        rows.append(row)
        if verbose:
            extra = (f"  x{row['speedup_vs_dense']:.2f} vs dense, "
                     f"{row['solver']}, exact diagonal rel err "
                     f"{row['exact_diagonal_relative_error']:.1e}"
                     if backend == "sparse" else "  bit-identical")
            print(f"[bench_backend] {backend:>6}: {seconds:.4f}s over "
                  f"{bursts} bursts (rel err {rel_err:.2e}){extra}")
    return rows


def run_node_churn(n: int = 3000, bursts: int = 6, t: int = 32,
                   seed: int = 0, probes: int = 24,
                   verbose: bool = True) -> Dict[str, object]:
    """Replay a node-churn journal on the sparse backend and gate its answers.

    Raises ``AssertionError`` unless the sparse exact diagonal matches a
    fresh dense inverse to :data:`EXACT_TOLERANCE` and the tracker
    refactorised fewer times than there were bursts (joins and leaves are
    absorbed as triples, not refactorisations).
    """
    base = generators.barabasi_albert(n, 3, seed=seed)
    group = list(GROUP)
    rng = np.random.default_rng(seed + 2)
    recorder = DynamicGraph(base)
    journal = [random_churn_journal(recorder, t, rng,
                                    node_probability=NODE_PROBABILITY,
                                    protected=group)
               for _ in range(bursts)]
    graph = DynamicGraph(base)
    tracker = IncrementalResistance(
        graph, group, backend=SparseResistanceBackend(probes=probes, seed=seed))
    tracker.trace()  # factorisation warm-up outside the timed region
    latencies: List[float] = []
    for burst in journal:
        for event in burst:
            apply_event(graph, event)
        op_start = time.perf_counter()
        tracker.group_cfcc()
        latencies.append(time.perf_counter() - op_start)

    grounded = set(group)
    keep = [i for i, node in enumerate(graph.snapshot_mapping())
            if int(node) not in grounded]
    position = {int(graph.snapshot_mapping()[i]): k for k, i in enumerate(keep)}
    exact_diag = np.diag(np.linalg.inv(
        graph.laplacian_dense()[np.ix_(keep, keep)]))
    exact_diag = exact_diag[[position[int(x)] for x in tracker.kept]]
    diag_err = float(np.abs(tracker.diagonal(mode="exact") - exact_diag).max()
                     / np.abs(exact_diag).max())
    stats = tracker.stats
    row: Dict[str, object] = {
        "backend": "sparse_node_churn",
        "n": n,
        "bursts": bursts,
        "t": t,
        "events": sum(len(burst) for burst in journal),
        "node_events": sum(event.is_node_event for burst in journal
                           for event in burst),
        "node_grows": stats.node_grows,
        "node_downdates": stats.node_downdates,
        "refreshes": stats.refreshes,
        "sync_evaluate_seconds": float(sum(latencies)),
        "burst_latency": percentiles_ms(latencies),
        "solver": tracker.backend.solver_used,
        "exact_diagonal_relative_error": diag_err,
    }
    if verbose:
        print(f"[bench_backend] node churn: {row['node_events']} node events "
              f"in {bursts} bursts, {stats.refreshes} refactorisations, "
              f"{row['solver']}, exact diagonal rel err {diag_err:.1e}")
    if not diag_err <= EXACT_TOLERANCE:
        raise AssertionError(
            f"sparse exact diagonal under node churn ({row['solver']}) "
            f"drifted from the dense inverse: rel err {diag_err:.3e} > "
            f"{EXACT_TOLERANCE}"
        )
    if not stats.refreshes < bursts:
        raise AssertionError(
            f"node churn refactorised the sparse backend {stats.refreshes} "
            f"times in {bursts} bursts; joins and leaves should be absorbed"
        )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sparse solver-backed vs dense Woodbury resistance backends")
    parser.add_argument("--n", type=int, default=3000, help="graph size")
    parser.add_argument("--bursts", type=int, default=6,
                        help="update bursts to replay")
    parser.add_argument("--t", type=int, default=32, help="events per burst")
    parser.add_argument("--probes", type=int, default=24,
                        help="Hutchinson probes of the sparse backend")
    parser.add_argument("--tolerance", type=float, default=0.1,
                        help="relative-error gate on the sketched estimate")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: smaller sizes plus the >=1.5x "
                             "sparse-vs-dense speedup check")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: BENCH_backend.json)")
    args = parser.parse_args(argv)

    output = args.output_json
    own_registry = not obs.REGISTRY.enabled
    if own_registry:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
    try:
        if args.smoke:
            output = output or "BENCH_backend.json"
            rows = run_backend_comparison(n=1600, bursts=6, t=32,
                                          seed=args.seed, probes=args.probes,
                                          tolerance=args.tolerance)
            sparse = next(r for r in rows if r["backend"] == "sparse")
            if not sparse["speedup_vs_dense"] >= SMOKE_SPEEDUP:
                raise AssertionError(
                    f"sparse backend speedup x{sparse['speedup_vs_dense']:.2f} "
                    f"below the x{SMOKE_SPEEDUP} smoke gate"
                )
            rows.append(run_node_churn(n=1600, bursts=6, t=32,
                                       seed=args.seed, probes=args.probes))
        else:
            rows = run_backend_comparison(n=args.n, bursts=args.bursts,
                                          t=args.t, seed=args.seed,
                                          probes=args.probes,
                                          tolerance=args.tolerance)
            rows.append(run_node_churn(n=args.n, bursts=args.bursts, t=args.t,
                                       seed=args.seed, probes=args.probes))
    except AssertionError as exc:
        print(f"[bench_backend] smoke check FAILED: {exc}")
        return 1
    finally:
        if own_registry:
            obs.REGISTRY.disable()
    if output:
        write_bench_artifact(rows, output, benchmark="backend_compare")
        write_obs_artifacts(metrics_prefix_for(output), label="bench_backend")
    print("[bench_backend] dense bit-identical, sparse sketch within "
          f"tolerance, sparse exact diagonal within {EXACT_TOLERANCE:g} under "
          "edge and node churn, node churn absorbed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
