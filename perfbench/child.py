"""One workload run in the current process; prints one JSON document.

Invoked by ``perfbench/run.py`` as ``python -m perfbench.child`` with the
library on ``PYTHONPATH``, so each workload gets a process of its own (and
its own peak RSS).  With ``--trace 1`` the run measures half its time with
:class:`perfbench.layers.LayerTracing` installed, then half untraced, and
reports the per-layer metrics; otherwise it reports the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from typing import Dict, List

from repro.obs.metrics import REGISTRY
from repro.utils.timer import clock

from perfbench import layers
from perfbench.calibrate import ScaledClock
from perfbench.provenance import runtime_versions
from perfbench.stats import latency_summary, median
from perfbench.workloads import WORKLOADS, Measurement, Verdict, Workload


def _setup(workload: Workload, reps: int) -> tuple:
    """Build ``reps`` times (keeping the last state); returns (state, CPU seconds).

    Set-up is single-threaded, so its CPU time is its cost without the other
    tenants of a shared host; each build is scaled by the calibration kernel
    timed around it."""
    times: List[float] = []
    state = None
    cpu_clock = ScaledClock(workload.calibration)
    for _ in range(reps):
        if state is not None:
            workload.discard(state)
            gc.collect()  # a discarded state must not linger into the peak RSS
        cpu_clock.tick()
        began = cpu_clock.scaled
        state = workload.build()
        cpu_clock.tick()
        times.append(cpu_clock.scaled - began)
    return state, times


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload: Workload, state, seconds: float):
    """Measure one window; returns (measurement, peak RSS, window end)."""
    try:
        measurement = workload.measure(state, seconds)
    finally:
        workload.discard(state)
    return measurement, peak_rss_mb(), clock()


def end_to_end(m: Measurement, verdict: Verdict, setup: List[float]) -> Dict[str, float]:
    primary = latency_summary(m.latencies[m.primary])
    return {
        "setup_s": median(setup),
        "latency_p50_ms": primary["p50_ms"],
        "latency_p90_ms": primary["p90_ms"],
        "throughput_ops_s": m.completed / m.time_s,
        "quality": verdict.quality,
    }


def diagnostics(workload: Workload, m: Measurement, verdict: Verdict,
                peak_mb: float) -> Dict[str, object]:
    """The workload's metrics under their per-workload names, tails included."""
    out: Dict[str, object] = {
        "failed_frac": (m.refused + verdict.mismatches) / max(m.attempted, 1),
        "throughput_ops_s": m.completed / m.time_s,
        "peak_rss_mb": peak_mb,
        "attempted": m.attempted,
        "completed": m.completed,
        "checked": verdict.checked,
        "mismatches": verdict.mismatches,
        **verdict.details,
    }
    if "cpu_s" in m.extra:
        out["throughput_cpu_ops_s"] = m.completed / m.extra["cpu_s"]
    for kind, samples in m.latencies.items():
        if samples:
            out[f"latency.{kind}"] = latency_summary(samples)
    aliases = {"exact": "exact_read", "forest": "forest_read", "write": "write",
               "gen_lag": "gen_lag"}
    for kind, alias in aliases.items():
        summary = out.get(f"latency.{kind}")
        if summary:
            out[f"{alias}_p50_ms"] = summary["p50_ms"]
            out[f"{alias}_p90_ms"] = summary["p90_ms"]
            out[f"{alias}_p99_ms"] = summary["p99_ms"]
    if workload.name == "select":
        out["select_s"] = median(m.latencies["select_wall"])
        out["select_cpu_s"] = median(m.latencies["select_cpu"])
    return out


def _per_op(value: float, m: Measurement) -> float:
    return value / max(m.completed, 1)


def layer_metrics(m: Measurement, spans, untraced: Measurement,
                  profile: Dict[str, Dict[str, Dict[str, float]]]) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``*_s`` values are seconds per completed operation of the workload,
    except ``centrality.round_s`` (mean seconds per greedy-round call).
    The forest-pool metrics only ``serve_mixed`` moves are computed here
    too; they reach its artifact, not ``BENCHMARK.json``.
    """
    inc = lambda name: _per_op(layers.inclusive(spans, name), m)  # noqa: E731
    rounds = layers.stage_spans(spans, "centrality.round")
    by_id = {s["span_id"]: s for s in spans}
    schur = [s for s in rounds if s["attrs"].get("kind") == "schur"]
    fallbacks = [s for s in rounds if s["attrs"].get("kind") == "forest"
                 and by_id.get(s["parent_id"], {}).get("name") == "centrality.round"]
    draws = layers.stage_spans(spans, "sampling.draw")
    forests = sum(s["attrs"].get("forests", 0) for s in draws)
    draw_s = layers.inclusive(spans, "sampling.draw")
    syncs = [s["attrs"].get("pending", 0) for s in layers.stage_spans(spans, "resistance.sync")]
    batches = layers.stage_spans(spans, "service.apply_batch")
    counters = m.counters
    kept = counters.get("forests_kept", 0)
    resampled = counters.get("forests_resampled", 0)
    hits, misses = counters.get("eval_hits", 0), counters.get("eval_misses", 0)
    reads = [x for kind in ("exact", "forest") for x in m.latencies.get(kind, [])]
    served = layers.stage_spans(spans, "service.evaluate")
    read_wait_s = ((sum(reads) - layers.inclusive(spans, "service.evaluate")) / len(reads)
                   if served and reads else 0.0)
    refreshes = REGISTRY.get("repro_shard_schur_refreshes_total")
    base = latency_summary(untraced.latencies[untraced.primary])["p50_ms"]
    traced = latency_summary(m.latencies[m.primary])["p50_ms"]
    layer_self = {name: profile["layers"].get(name, {}).get("self_s", 0.0)
                  for name in layers.LAYERS}

    metrics = {
        "centrality.round_s": (sum(s["elapsed"] for s in rounds) / len(rounds)
                               if rounds else 0.0),
        "centrality.fold_s": inc("centrality.fold"),
        "centrality.schur_assembly_s": _per_op(
            sum(s["elapsed"] for s in schur)
            - sum(c["elapsed"] for c in spans
                  if c["name"] == "centrality.adaptive_sampling"
                  and by_id.get(c["parent_id"], {}).get("attrs", {}).get("kind") == "schur"), m),
        "centrality.forests_per_round": (
            sum(s["attrs"].get("samples", 0.0) for s in rounds) / len(rounds)
            if rounds else 0.0),
        "centrality.early_stop_rate": (
            sum(bool(s["attrs"].get("stopped_early")) for s in rounds) / len(rounds)
            if rounds else 0.0),
        "centrality.schur_fallback_rate": len(fallbacks) / len(schur) if schur else 0.0,
        "centrality.pool_fold_s": inc("centrality.pool_fold"),
        "sampling.lockstep_s": _per_op(draw_s, m),
        "sampling.forests": _per_op(forests, m),
        "sampling.forests_per_s": forests / draw_s if draw_s else 0.0,
        "sampling.pool_reuse_ratio": kept / (kept + resampled) if kept + resampled else 0.0,
        "sampling.pool_reweight_s": inc("pool.reweight"),
        "sampling.pool_topup_s": inc("pool.topup"),
        "sampling.pool_ess_min": counters.get("pool_ess_min", 0.0),
        "dynamic.engine_sync_s": inc("engine.sync_pools"),
        "dynamic.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "dynamic.resistance_sync_s": inc("resistance.sync"),
        "dynamic.events_per_sync": (sum(syncs) / sum(1 for p in syncs if p)
                                    if any(syncs) else 0.0),
        "dynamic.mutation_s": inc("dynamic.mutation"),
        "dynamic.snapshot_s": inc("dynamic.snapshot"),
        "linalg.factorize_s": inc("linalg.factorize"),
        "linalg.factorizations": float(len(layers.stage_spans(spans, "linalg.factorize"))),
        "linalg.apply_s": inc("linalg.apply"),
        "linalg.solve_s": inc("linalg.solve"),
        "service.batch_size": (sum(s["attrs"].get("batch", 0) for s in batches) / len(batches)
                               if batches else 0.0),
        "service.apply_s": inc("service.apply_batch"),
        "service.read_wait_ms": 1000.0 * max(read_wait_s, 0.0),
        "service.refused": float(counters.get("refused", 0)),
        "distributed.shard_sync_s": inc("shard_sync"),
        "distributed.stitch_s": inc("schur_stitch"),
        "distributed.schur_refreshes": float(refreshes.value()) if refreshes else 0.0,
        "distributed.separator_size": float(counters.get("separator_size", 0)),
        "obs.trace_overhead_frac": traced / base - 1.0,
        "obs.layer_coverage": sum(layer_self.values()) / m.busy_s if m.busy_s else 0.0,
        "failed_frac": m.refused / max(m.attempted, 1),
    }
    for name, value in layer_self.items():
        metrics[f"{name}.self_s"] = _per_op(value, m)
    return metrics


def run(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    workload = WORKLOADS[name](seed)
    state, setup = _setup(workload, workload.setup_reps)
    if not traced:
        measurement, peak, _ = _measure(workload, state, seconds)
        # Set-up is timed again after the window: the host's speed changes
        # within seconds, and samples spread over the run follow it better.
        spare, later = _setup(workload, workload.setup_reps)
        workload.discard(spare)
        setup += later
        verdicts = [workload.verify(state, measurement)]
        metrics = end_to_end(measurement, verdicts[0], setup)
        extra = {}
    else:
        # The traced half runs first, like the window of an untraced run, so
        # the overhead figure errs high (it also carries first-touch costs).
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            with layers.LayerTracing() as tracing:
                began = clock()
                traced_state = workload.build()
                window = clock()
                measurement, peak, end = _measure(workload, traced_state, seconds / 2.0)
                spans = tracing.spans(window, end)
                setup_spans = tracing.spans(began, window)
            profile = layers.profile(spans)
        finally:
            REGISTRY.disable()
        untraced, _, _ = _measure(workload, state, seconds / 2.0)
        verdicts = [workload.verify(traced_state, measurement),
                    workload.verify(state, untraced)]
        metrics = layer_metrics(measurement, spans, untraced, profile)
        extra = {
            "layers": profile,
            "setup_layers": layers.profile(setup_spans),
            "traced_setup_s": window - began,
            "time_s": measurement.time_s,
            "busy_s": measurement.busy_s,
        }
    mismatches = sum(v.mismatches for v in verdicts)
    return {
        "correct": mismatches == 0,
        "attempted": int(measurement.attempted),
        "failed": int(measurement.refused + mismatches),
        "metrics": metrics,
        "setup_samples_s": setup,
        "calibration_s": workload.calibration.samples,
        "diagnostics": diagnostics(workload, measurement, verdicts[0], peak),
        "versions": runtime_versions(),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    json.dump(result, sys.stdout, default=float)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
