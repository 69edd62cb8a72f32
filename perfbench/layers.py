"""Traced runs: spans around each layer's public functions, aggregated per layer.

:class:`LayerTracing` wraps the functions listed in :data:`PATCHES` in
:func:`repro.obs.tracing.trace` spans for the duration of a ``with`` block
and restores the originals on exit.  A function is patched under the name its
caller looks up: ``schur_cfcm`` and the dynamic engine import the estimator
and sampler functions by name, so those module attributes are replaced, not
only the defining module's.  The spans the library already emits
(``engine.*``, ``resistance.sync``, ``pool.*``, ``service.*``,
``schur_stitch`` ...) are kept and attributed to their layer too.

:func:`profile` turns the finished spans into per-stage and per-layer
``{count, inclusive_s, self_s}``; a span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import tracing

AttrFn = Optional[Callable[..., Dict[str, Any]]]


def _round_args(kind: str) -> Callable[..., Dict[str, Any]]:
    return lambda args, kwargs: {"kind": kind}


def _round_result(result) -> Dict[str, Any]:
    diagnostics = result[-1]
    return {"samples": float(diagnostics["samples"]),
            "stopped_early": bool(diagnostics["stopped_early"])}


def _forest_count(args, kwargs) -> Dict[str, Any]:
    count = kwargs.get("count", args[2] if len(args) > 2 else 0)
    return {"forests": int(count)}


# (module, attribute, stage, attrs from the call, attrs from the result)
PATCHES: List[Tuple[str, str, str, AttrFn, AttrFn]] = [
    # centrality: greedy rounds, the estimator fold, pooled folds
    ("repro.centrality.schur_cfcm", "estimate_first_pick", "centrality.round",
     _round_args("first"), _round_result),
    ("repro.centrality.schur_cfcm", "estimate_schur_delta", "centrality.round",
     _round_args("schur"), _round_result),
    ("repro.centrality.estimators", "estimate_forest_delta", "centrality.round",
     _round_args("forest"), _round_result),
    ("repro.centrality.estimators", "run_adaptive_sampling",
     "centrality.adaptive_sampling", None, None),
    ("repro.centrality.estimators", "ForestAccumulator.add_batch",
     "centrality.fold", None, None),
    ("repro.dynamic.engine", "batched_diag_estimates", "centrality.pool_fold",
     lambda args, kwargs: {"forests": int(args[0].shape[0])}, None),
    ("repro.dynamic.engine", "batched_projected_estimates",
     "centrality.pool_fold", None, None),
    # sampling: lockstep forest draws and the weighted pool
    ("repro.centrality.estimators", "sample_forest_batch_vectorized",
     "sampling.draw", _forest_count, None),
    ("repro.dynamic.engine", "sample_forest_batch_vectorized",
     "sampling.draw", _forest_count, None),
    ("repro.sampling.pool", "WeightedForestPool.apply_removal",
     "sampling.pool_update", None, None),
    ("repro.sampling.pool", "WeightedForestPool.apply_addition",
     "sampling.pool_update", None, None),
    ("repro.sampling.pool", "WeightedForestPool.apply_reweight",
     "sampling.pool_update", None, None),
    ("repro.sampling.pool", "WeightedForestPool.extend_leaf",
     "sampling.pool_update", None, None),
    ("repro.sampling.pool", "WeightedForestPool.admit",
     "sampling.pool_admit", None, None),
    # dynamic: journaled mutations (with their guards) and snapshots
    ("repro.dynamic.graph", "DynamicGraph.add_edge", "dynamic.mutation", None, None),
    ("repro.dynamic.graph", "DynamicGraph.remove_edge", "dynamic.mutation", None, None),
    ("repro.dynamic.graph", "DynamicGraph.update_weight", "dynamic.mutation", None, None),
    ("repro.dynamic.graph", "DynamicGraph.add_node", "dynamic.mutation", None, None),
    ("repro.dynamic.graph", "DynamicGraph.remove_node", "dynamic.mutation", None, None),
    ("repro.dynamic.graph", "DynamicGraph.snapshot", "dynamic.snapshot", None, None),
    # linalg: backend factorisations, low-rank applies and solves
    ("repro.linalg.backends", "ResistanceBackend.factorize",
     "linalg.factorize", None, None),
    ("repro.linalg.backends", "DenseResistanceBackend.apply_triples",
     "linalg.apply", None, None),
    ("repro.linalg.backends", "SparseResistanceBackend.apply_triples",
     "linalg.apply", None, None),
    ("repro.linalg.backends", "DenseResistanceBackend.solve_many",
     "linalg.solve", None, None),
    ("repro.linalg.backends", "SparseResistanceBackend.solve_many",
     "linalg.solve", None, None),
    # distributed: the sharded engine's public read surface
    ("repro.distributed.engine", "ShardedCFCM.evaluate_exact",
     "distributed.evaluate_exact", None, None),
    ("repro.distributed.engine", "ShardedCFCM.resistance_to_group",
     "distributed.resistance_to_group", None, None),
]

#: Span-name prefixes and the layer each belongs to (first match wins).
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("bench.", "bench"),
    ("centrality.", "centrality"),
    ("estimator.", "centrality"),
    ("sampling.", "sampling"),
    ("pool.", "sampling"),
    ("worker.sample_forests", "sampling"),
    ("dynamic.", "dynamic"),
    ("resistance.", "dynamic"),
    ("engine.", "dynamic"),
    ("linalg.", "linalg"),
    ("service.", "service"),
    ("distributed.", "distributed"),
    ("schur_stitch", "distributed"),
    ("shard_sync", "distributed"),
)

LAYERS = ("centrality", "sampling", "dynamic", "linalg", "service", "distributed")


def _resolve(module: str, attribute: str):
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap(fn: Callable, stage: str, call_attrs: AttrFn,
          result_attrs: AttrFn) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = call_attrs(args, kwargs) if call_attrs else {}
        with tracing.trace(stage, **attrs) as span:
            result = fn(*args, **kwargs)
            if result_attrs is not None:
                span.set(**result_attrs(result))
            return result
    return traced


#: Spans the tracer keeps; a traced half window stays well below it.
TRACE_CAPACITY = 1 << 21


class LayerTracing:
    """Context manager: patch :data:`PATCHES` in and enable a span tracer."""

    def __init__(self):
        self.tracer: Optional[tracing.Tracer] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTracing":
        for module, attribute, stage, call_attrs, result_attrs in PATCHES:
            owner, name = _resolve(module, attribute)
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            setattr(owner, name, _wrap(original, stage, call_attrs, result_attrs))
            self._undo.append((owner, name, original))
        self.tracer = tracing.enable_tracing(capacity=TRACE_CAPACITY)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracing.disable_tracing()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def spans(self, start: float = float("-inf"),
              end: float = float("inf")) -> List[Dict[str, Any]]:
        """Finished spans that started inside ``[start, end]``."""
        if self.tracer is None:
            return []
        return [s for s in self.tracer.spans() if start <= s["start"] <= end]


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def _span_layers(spans: Sequence[Dict[str, Any]]) -> Dict[int, str]:
    """Layer of every span.

    The sharded engine emits ``engine.*`` spans under its own public
    methods; such a span directly under the matching ``distributed.*``
    wrapper is the sharded engine's own work, not a shard engine's.
    """
    by_id = {s["span_id"]: s for s in spans}
    layers = {}
    for span in spans:
        layer = layer_of(span["name"])
        parent = by_id.get(span["parent_id"])
        if (layer == "dynamic" and parent is not None
                and parent["name"].startswith("distributed.")
                and parent["name"].split(".", 1)[1] == span["name"].split(".", 1)[1]):
            layer = "distributed"
        layers[span["span_id"]] = layer
    return layers


def profile(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-stage and per-layer ``{count, inclusive_s, self_s}``.

    A layer's ``inclusive_s`` counts only its outermost spans (a span whose
    parent is in the same layer is already inside its parent's time).
    """
    by_id = {s["span_id"]: s for s in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"] in by_id:
            child_time[span["parent_id"]] += span["elapsed"]
    layers_of = _span_layers(spans)

    def empty() -> Dict[str, float]:
        return {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}

    stages: Dict[str, Dict[str, float]] = defaultdict(empty)
    layers: Dict[str, Dict[str, float]] = defaultdict(empty)
    for span in spans:
        own = max(span["elapsed"] - child_time[span["span_id"]], 0.0)
        layer = layers_of[span["span_id"]]
        stage = stages[span["name"]]
        stage["count"] += 1
        stage["inclusive_s"] += span["elapsed"]
        stage["self_s"] += own
        entry = layers[layer]
        entry["count"] += 1
        entry["self_s"] += own
        parent = span["parent_id"]
        if parent not in by_id or layers_of[parent] != layer:
            entry["inclusive_s"] += span["elapsed"]
    return {"stages": dict(stages), "layers": dict(layers)}


def stage_spans(spans: Sequence[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [s for s in spans if s["name"] == name]


def inclusive(spans: Sequence[Dict[str, Any]], name: str) -> float:
    """Total time of the outermost ``name`` spans (nested repeats not re-counted)."""
    by_id = {s["span_id"]: s for s in spans}
    total = 0.0
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent_id"])
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_id.get(parent["parent_id"])
        if not nested:
            total += span["elapsed"]
    return total
