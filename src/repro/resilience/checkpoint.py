"""Engine checkpoint/restore: durable snapshots of a :class:`DynamicCFCM`.

A checkpoint captures everything the engine needs to *continue bit-equal*
with a never-crashed twin: the journaled graph (edges in insertion order —
Laplacian assembly iterates the weight map, so order is numerically
significant), the engine's RNG state, every forest pool
(:meth:`WeightedForestPool.state_dict`: parent matrix, importance weights,
trace cache and path system), the memoised query/evaluation results, and
every incremental tracker's factor state.  Restoring and then replaying the
same mutation and query sequence therefore reproduces the exact floats the
uninterrupted engine would have produced.

Format: one ``.npz`` archive (``np.savez_compressed``) holding the bulk
arrays plus a single JSON document (``meta``) for the scalar state.  The
archive never needs pickling to load, so a checkpoint is safe to read from
an untrusted store.  Writes go to a temporary sibling and are renamed into
place, so a crash mid-checkpoint never leaves a truncated archive behind.

Quiescing: :func:`checkpoint_engine` first folds every pending journal
event into every cached consumer and refactorises every tracker, so no
low-rank correction or tombstone is pending and each tracker's layout is
its live rows followed by a spare-row count, which the archive carries.  A
sparse base factor is then fully determined by the (serialised) graph and
that count; a dense inverse is stored verbatim all the same, because it is
the value the live engine continues from.  Restore installs that inverse
without inverting anything, and factorises each sparse tracker exactly
once, spare rows included.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, List

import numpy as np

from repro.exceptions import InvalidParameterError

#: Bump when the archive layout changes; restore refuses unknown versions.
CHECKPOINT_VERSION = 8


# ------------------------------------------------------------------ helpers
def _event_to_dict(event) -> Dict[str, Any]:
    return {
        "kind": event.kind, "u": int(event.u), "v": int(event.v),
        "weight": float(event.weight), "delta": float(event.delta),
        "version": int(event.version),
        "node": None if event.node is None else int(event.node),
        "edges": [[int(nb), float(w)] for nb, w in event.edges],
    }


def _event_from_dict(entry: Dict[str, Any]):
    from repro.dynamic.graph import GraphUpdate

    return GraphUpdate(
        kind=str(entry["kind"]), u=int(entry["u"]), v=int(entry["v"]),
        weight=float(entry["weight"]), delta=float(entry["delta"]),
        version=int(entry["version"]),
        node=None if entry["node"] is None else int(entry["node"]),
        edges=tuple((int(nb), float(w)) for nb, w in entry["edges"]),
    )


def _restore_stats(stats, payload: Dict[str, Any]) -> None:
    for key, value in payload.items():
        if hasattr(stats, key):
            setattr(stats, key, value)


# -------------------------------------------------------------------- graph
def _serialize_graph(graph, arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    edge_u, edge_v, edge_w = graph.edge_arrays()
    arrays["graph_edge_u"] = edge_u
    arrays["graph_edge_v"] = edge_v
    arrays["graph_edge_w"] = edge_w
    arrays["graph_active"] = np.array(
        [adj is not None for adj in graph._adjacency], dtype=bool
    )
    return {
        "version": int(graph._version),
        "journal_floor": int(graph._journal_floor),
        "active_count": int(graph._active_count),
        "non_unit_count": int(graph._non_unit_count),
        "journal": [_event_to_dict(event) for event in graph._journal],
    }


def _restore_graph(meta: Dict[str, Any], data) -> "Any":
    from repro.dynamic.graph import DynamicGraph

    graph = DynamicGraph.__new__(DynamicGraph)
    edge_u = data["graph_edge_u"]
    edge_v = data["graph_edge_v"]
    edge_w = data["graph_edge_w"]
    # Rebuilt in serialisation order: the weight map's insertion order is
    # the order of edge_arrays(), which the Laplacian assemblies sum in, so
    # it is bit-significant.
    graph._weights = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(edge_u, edge_v, edge_w)
    }
    active = data["graph_active"]
    graph._adjacency = [set() if flag else None for flag in active]
    for u, v in graph._weights:
        graph._adjacency[u].add(v)
        graph._adjacency[v].add(u)
    graph._active_count = int(meta["active_count"])
    graph._journal = [_event_from_dict(e) for e in meta["journal"]]
    graph._journal_floor = int(meta["journal_floor"])
    graph._version = int(meta["version"])
    graph._snapshot = None
    graph._snapshot_version = -1
    graph._edges = None
    graph._edges_version = -1
    graph._mapping = np.flatnonzero(active)
    graph._mapping.flags.writeable = False
    graph._non_unit_count = int(meta["non_unit_count"])
    return graph


# ------------------------------------------------------------------- engine
def checkpoint_engine(engine, path: str) -> str:
    """Serialise ``engine`` (quiesced) to ``path``; returns the path written.

    Quiesces first: pending journal events are folded into every pool and
    tracker, and every tracker refactorises so its factor matches the
    serialised graph exactly.  The engine remains fully usable — the
    quiesce is the same maintenance any query would have performed.
    """
    from repro.linalg.backends import DenseResistanceBackend

    engine.sync()
    for tracker in engine._trackers.values():
        tracker.sync()
        # Fold any low-rank correction and tombstones into a fresh factor:
        # the restored side rebuilds the identical sparse factorisation from
        # the serialised graph and spare-row count (both sparse LU and the
        # hub core are pure functions of the matrix, so an identical matrix
        # gives an identical factor) and reads a dense inverse verbatim.
        tracker._factorize()

    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, Any] = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "graph": _serialize_graph(engine.graph, arrays),
        "engine": {
            "pool_size": int(engine.pool_size),
            "ess_floor": float(engine.ess_floor),
            "adaptive_ess_floor": bool(engine.adaptive_ess_floor),
            "cache_capacity": int(engine.cache_capacity),
            "backend": engine.backend,
            "watchdog_interval": int(engine.watchdog_interval),
            "config": None if engine.config is None else asdict(engine.config),
            "pool_version": int(engine._pool_version),
            "rng_state": engine.rng.bit_generator.state,
            "stats": asdict(engine.stats),
        },
    }

    pools: List[Dict[str, Any]] = []
    for i, (roots, pool) in enumerate(engine._pools.items()):
        state, pool_arrays = pool.state_dict()
        for name, array in pool_arrays.items():
            arrays[f"pool{i}_{name}"] = array
        pools.append({"key": [int(r) for r in roots], "state": state})
    meta["pools"] = pools

    meta["eval_cache"] = [
        {"roots": [int(r) for r in roots], "version": int(version),
         "value": float(value)}
        for roots, (version, value) in engine._eval_cache.items()
    ]

    query_cache: List[Dict[str, Any]] = []
    for key, (version, result) in engine._query_cache.items():
        entry = {
            "key": list(key), "version": int(version),
            "result": {
                "method": result.method, "group": list(result.group),
                "runtime_seconds": result.runtime_seconds,
                "parameters": result.parameters,
                "iteration_log": result.iteration_log,
                "cfcc": result.cfcc,
            },
        }
        try:
            json.dumps(entry)
        except (TypeError, ValueError):
            continue  # non-JSON diagnostic payload: recomputable, drop it
        query_cache.append(entry)
    meta["query_cache"] = query_cache

    trackers: List[Dict[str, Any]] = []
    for j, (group, tracker) in enumerate(engine._trackers.items()):
        backend = tracker.backend
        dense = isinstance(backend, DenseResistanceBackend)
        entry = {
            "group": [int(g) for g in group],
            "kind": "dense" if dense else "sparse",
            "synced_version": int(tracker._synced_version),
            "updates_since_refresh": int(tracker._updates_since_refresh),
            "stats": asdict(tracker.stats),
            "watchdog": (None if tracker.watchdog is None
                         else tracker.watchdog.state_dict()),
            "spare_rows": int(backend.n - len(tracker.kept)),
        }
        arrays[f"trk{j}_kept"] = np.asarray(tracker.kept, dtype=np.int64)
        if dense:
            arrays[f"trk{j}_inverse"] = np.asarray(backend.inverse,
                                                   dtype=np.float64)
        else:
            # The sketched-diagonal probe stream is seeded by the factor
            # counter; carrying it over keeps post-restore sketches bit-equal.
            entry["factor_count"] = int(backend._factor_count)
        trackers.append(entry)
    meta["trackers"] = trackers

    arrays["meta"] = np.array(json.dumps(meta))
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    os.replace(tmp, path)
    return path


def restore_engine(path: str):
    """Rebuild a :class:`repro.dynamic.DynamicCFCM` from a checkpoint.

    The restored engine continues bit-equal with the checkpointed one: same
    RNG stream, same cached state, same factor state on the same row layout
    (dense inverses are restored verbatim; sparse base factors are
    re-derived from the identical serialised graph).  Journal events
    recorded after the checkpoint can be replayed onto
    :attr:`DynamicCFCM.graph` to reconverge with a crashed primary.
    """
    from repro.centrality.estimators import SamplingConfig
    from repro.dynamic.engine import DynamicCFCM
    from repro.dynamic.resistance import IncrementalResistance
    from repro.linalg.backends import make_resistance_backend
    from repro.resilience.watchdog import ResidualWatchdog
    from repro.sampling.pool import WeightedForestPool

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"][()]))
        if int(meta.get("checkpoint_version", -1)) != CHECKPOINT_VERSION:
            raise InvalidParameterError(
                f"unsupported checkpoint version "
                f"{meta.get('checkpoint_version')!r} (expected "
                f"{CHECKPOINT_VERSION})"
            )
        graph = _restore_graph(meta["graph"], data)
        spec = meta["engine"]
        config = spec["config"]
        if config is not None:
            config = SamplingConfig(**config)
        engine = DynamicCFCM(
            graph, seed=0, config=config, pool_size=spec["pool_size"],
            cache_capacity=spec["cache_capacity"],
            ess_floor=spec["ess_floor"], backend=spec["backend"],
            watchdog_interval=spec["watchdog_interval"],
            adaptive_ess_floor=spec["adaptive_ess_floor"],
        )
        engine.rng = np.random.default_rng(0)
        engine.rng.bit_generator.state = spec["rng_state"]
        engine._pool_version = int(spec["pool_version"])
        _restore_stats(engine.stats, spec["stats"])
        engine.stats.pool_ess = dict(spec["stats"].get("pool_ess", {}))

        for i, entry in enumerate(meta["pools"]):
            prefix = f"pool{i}_"
            pool_arrays = {name[len(prefix):]: data[name]
                           for name in data.files if name.startswith(prefix)}
            engine._pools[tuple(int(r) for r in entry["key"])] = (
                WeightedForestPool.from_state(entry["state"], pool_arrays)
            )

        for entry in meta["eval_cache"]:
            engine._eval_cache[tuple(int(r) for r in entry["roots"])] = (
                int(entry["version"]), float(entry["value"]))

        from repro.centrality.result import CFCMResult

        for entry in meta["query_cache"]:
            key = tuple(entry["key"])
            engine._query_cache[key] = (
                int(entry["version"]), CFCMResult(**entry["result"])
            )

        for j, entry in enumerate(meta["trackers"]):
            group = tuple(int(g) for g in entry["group"])
            kind = entry["kind"]
            watchdog = (None if entry["watchdog"] is None
                        else ResidualWatchdog.from_state(entry["watchdog"]))
            tracker = IncrementalResistance._restored(
                graph, group, make_resistance_backend(kind),
                watchdog=watchdog,
            )
            spares = int(entry["spare_rows"])
            if kind == "dense":
                tracker.backend.adopt_inverse(data[f"trk{j}_inverse"])
                tracker._adopt_rows(np.concatenate([
                    np.asarray(data[f"trk{j}_kept"], dtype=np.int64),
                    np.full(spares, -1, dtype=np.int64)]))
            else:
                tracker._factorize(spares)
                tracker.backend._factor_count = int(entry["factor_count"])
            tracker._synced_version = int(entry["synced_version"])
            tracker._updates_since_refresh = int(
                entry["updates_since_refresh"]
            )
            _restore_stats(tracker.stats, entry["stats"])
            engine._trackers[group] = tracker
    return engine
