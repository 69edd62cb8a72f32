"""Dynamic-graph engine: incremental CFCC maintenance under edge/node updates.

The batch algorithms of the paper solve CFCM on a frozen graph; this package
keeps their state alive while the graph mutates:

* :class:`DynamicGraph` — journaled mutable wrapper over :class:`repro.Graph`
  (``add_edge`` / ``remove_edge`` / ``update_weight`` plus ``add_node`` /
  ``remove_node`` with stable ids, version counters, connectivity guards,
  journal compaction, cached immutable snapshots with id remapping);
* :class:`IncrementalResistance` — grounded-Laplacian inverse maintained
  through a pluggable :class:`repro.linalg.backends.ResistanceBackend`:
  the dense backend folds rank-``t`` Woodbury batches (one BLAS-3 pass per
  journal suffix), the sparse backend absorbs the same journal as low-rank
  corrections against a sparse factorisation (``backend="dense" |
  "sparse" | "auto"``); on both, node events are triples of the same batch
  on spare or tombstoned rows, and the tracker refactorises at the
  backend's break-even;
* :class:`DynamicCFCM` — cached ``query(k, method, eps)`` engine with
  importance-weighted forest pools (ESS-floor top-ups instead of flushes),
  node-churn-aware eviction and hit/miss/batching statistics;
* :mod:`repro.dynamic.workload` — reproducible random edge-update and
  node-churn streams for experiments, benchmarks and tests, plus the async
  Poisson traffic driver and journal replay used with
  :class:`repro.service.AsyncCFCMService`.
"""

from repro.dynamic.graph import DynamicGraph, EdgeUpdate, GraphUpdate
from repro.dynamic.resistance import IncrementalResistance, ResistanceStats
from repro.dynamic.engine import DynamicCFCM, EngineStats
from repro.dynamic.workload import (
    TrafficReport,
    apply_event,
    apply_random_node_event,
    apply_random_reweight,
    apply_random_update,
    poisson_traffic,
    random_churn_journal,
    random_update_journal,
    replay_events,
)

__all__ = [
    "DynamicGraph",
    "EdgeUpdate",
    "GraphUpdate",
    "IncrementalResistance",
    "ResistanceStats",
    "DynamicCFCM",
    "EngineStats",
    "TrafficReport",
    "apply_event",
    "apply_random_node_event",
    "apply_random_reweight",
    "apply_random_update",
    "poisson_traffic",
    "random_churn_journal",
    "random_update_journal",
    "replay_events",
]
