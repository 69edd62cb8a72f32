"""Dynamic CFCM query engine: cached queries with importance-weighted pools.

:class:`DynamicCFCM` fronts the batch CFCM algorithms with three layers of
state that survive across graph mutations:

1. **Query cache** — ``query(k, method, eps)`` results are memoised per graph
   version, so repeated queries on an unchanged graph are O(1) hits; any
   mutation invalidates them wholesale (the optimal group can move
   arbitrarily far under a single edge edit).
2. **Forest pools** — :meth:`evaluate_forest` estimates the group CFCC of a
   root set from a pool of sampled spanning forests, held as one
   :class:`repro.sampling.WeightedForestPool` per root set: a ``(B, n)``
   parent matrix plus per-forest importance weights.  Mutations *reweight*
   instead of flushing: a deleted edge drops exactly the forests whose
   parent pointers use it (the survivors are exact samples of the shrunk
   graph), a reweighted edge multiplies its users by the exact density
   ratio ``w'/w``, an inserted edge down-weights every stored forest by a
   cheap inclusion prior, and an inserted *node* extends every stored
   forest with a leaf attachment — insertions never force a flush.  Once
   the pool's effective sample size falls below ``ess_floor * pool_size``
   the next evaluation tops it up with a vectorised lockstep draw, evicting
   the lowest-weight forests.  Node removals remain structural (compact ids
   shift), so they still evict/flush.
3. **Incremental inverses** — :meth:`evaluate_exact` delegates to a cached
   :class:`repro.dynamic.IncrementalResistance` per group, which folds each
   pending journal suffix in as a single rank-``t`` Woodbury batch (O(n²t),
   one BLAS-3 pass) instead of O(n³) inversions, growing/downdating rows on
   node events.

The engine also *bounds the journal*: after each synchronisation it asks the
graph to :meth:`~repro.dynamic.DynamicGraph.compact` the prefix every cached
consumer has already seen, so a long-running service's journal stays flat.
(External consumers of the same graph that fall behind a compaction rebuild
from the snapshot — see :meth:`DynamicGraph.journal_since`.)

Hit/miss, reweighting/top-up counters and per-pool ESS are exposed via
:attr:`stats` so operators can see whether the caches earn their memory.
"""

from __future__ import annotations

import copy
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.centrality.estimators import SamplingConfig, batched_diag_estimates

# Unused here: perfbench/layers.py patches the name on this module to time
# the projected fold, so the import stays until the benchmark drops it.
from repro.centrality.estimators import batched_projected_estimates  # noqa: F401
from repro.centrality.result import CFCMResult
from repro.dynamic.graph import REMOVE_NODE, DynamicGraph
from repro.dynamic.resistance import IncrementalResistance
from repro.graph.graph import Graph
from repro.sampling.batch import sample_forest_batch_vectorized
from repro.sampling.pool import WeightedForestPool
from repro.utils.rng import RandomState, as_rng
from repro.utils.timer import clock
from repro.utils.validation import check_integer

# Hot-path metrics (no-ops until the default registry is enabled).
_OP_SECONDS = REGISTRY.histogram(
    "repro_engine_op_seconds", "Wall time of one engine operation",
    labels=("op",),
)
_TOPUP_FORESTS = REGISTRY.histogram(
    "repro_engine_topup_forests", "Fresh forests drawn per pool top-up",
    buckets=SIZE_BUCKETS,
)
_FOLD_FORESTS = REGISTRY.histogram(
    "repro_engine_fold_forests", "Stale forests folded per estimator fold",
    buckets=SIZE_BUCKETS,
)


@contextmanager
def _op_timer(op: str):
    """Record one engine operation's wall time onto the op histogram."""
    if not REGISTRY.enabled:
        yield
        return
    start = clock()
    try:
        yield
    finally:
        _OP_SECONDS.observe(clock() - start, op=op)


@dataclass
class EngineStats:
    """Cache-effectiveness counters of one :class:`DynamicCFCM` instance.

    ``pools_flushed`` is retained for compatibility: with importance
    weighting it only counts the structural flushes that remain (node
    removals, journal-loss recovery), never edge churn.  ``pool_ess`` maps
    each live pool's root set (as a comma-joined key) to its current
    effective sample size.
    """

    query_hits: int = 0
    query_misses: int = 0
    eval_hits: int = 0
    eval_misses: int = 0
    forests_kept: int = 0
    forests_resampled: int = 0
    forests_reweighted: int = 0
    forests_dropped: int = 0
    forests_folded: int = 0
    pools_flushed: int = 0
    pools_evicted: int = 0
    ess_topups: int = 0
    batch_updates: int = 0
    batched_events: int = 0
    node_evictions: int = 0
    pool_ess: Dict[str, float] = field(default_factory=dict)

    def hit_rate(self) -> float:
        """Fraction of ``query`` calls answered from cache."""
        total = self.query_hits + self.query_misses
        return self.query_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "eval_hits": self.eval_hits,
            "eval_misses": self.eval_misses,
            "forests_kept": self.forests_kept,
            "forests_resampled": self.forests_resampled,
            "forests_reweighted": self.forests_reweighted,
            "forests_dropped": self.forests_dropped,
            "forests_folded": self.forests_folded,
            "pools_flushed": self.pools_flushed,
            "pools_evicted": self.pools_evicted,
            "ess_topups": self.ess_topups,
            "batch_updates": self.batch_updates,
            "batched_events": self.batched_events,
            "node_evictions": self.node_evictions,
            "hit_rate": self.hit_rate(),
            # Deep-copied so a snapshot attached to a response cannot mutate
            # under later engine activity (pool_ess nests per-pool state).
            "pool_ess": copy.deepcopy(self.pool_ess),
        }


def _pool_key(roots: Tuple[int, ...]) -> str:
    return ",".join(str(r) for r in roots)


class QueryFront:
    """``query`` and ``evaluate``, shared by the single and sharded engines.

    An engine provides ``graph``, ``config``, ``rng``, ``stats``,
    ``cache_capacity``, a ``_query_cache`` dict, ``sync()``,
    ``evaluate_exact()`` and ``evaluate_forest()``.
    """

    def query(self, k: int, method: str = "schur", eps: float = 0.2) -> CFCMResult:
        """Solve CFCM on the current graph, reusing the cache when unchanged.

        Parameters mirror :func:`repro.maximize_cfcc`; the result of a miss
        is computed by the corresponding batch algorithm on the current
        snapshot and memoised until the next mutation.  ``result.group``
        holds stable node ids (snapshot ids are translated back after node
        churn).  The sharded engine selects on the global snapshot too:
        sharding speeds up the serving surface, not selection.
        """
        from repro.centrality.api import maximize_cfcc, validate_cfcm_parameters

        k = validate_cfcm_parameters(self.graph.n, k, str(method).lower(), eps,
                                     self.config)
        if not self.graph.is_unit_weighted:
            # snapshot() exposes only the topology, so every batch method
            # (including exact greedy) would silently optimise the wrong
            # objective on a weighted graph.
            raise InvalidParameterError(
                "selection queries assume unit edge weights; reset weights "
                "to 1 (weighted graphs are supported for evaluation via "
                "evaluate_exact only)"
            )
        with trace("engine.query", k=k, method=str(method).lower()) as span, \
                _op_timer("query"):
            # Keep the pool/tracker state machine and journal compaction
            # moving under query-only traffic too, or the journal would grow
            # unboundedly in a service that never calls the evaluate paths.
            self.sync()
            key = (k, str(method).lower(), round(float(eps), 9))
            cached = self._query_cache.get(key)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.query_hits += 1
                span.set(cache="hit")
                _lru_store(self._query_cache, key, cached, self.cache_capacity)
                return cached[1]
            self.stats.query_misses += 1
            span.set(cache="miss")
            child_seed = int(self.rng.integers(0, 2**62))
            result = maximize_cfcc(self.graph.snapshot(), k, method=method,
                                   eps=eps, seed=child_seed, config=self.config)
            mapping = self.graph.snapshot_mapping()
            if int(mapping[-1]) != mapping.size - 1:
                # Node churn left holes in the id space: translate the
                # snapshot's compact ids back to the stable ids callers
                # reason in — in the group and in the per-iteration
                # diagnostics alike.
                result.group = [int(mapping[node]) for node in result.group]
                for entry in result.iteration_log:
                    if "node" in entry:
                        entry["node"] = int(mapping[entry["node"]])
            _lru_store(self._query_cache, key, (self.graph.version, result),
                       self.cache_capacity)
            return result

    def evaluate(self, group: Sequence[int], mode: str = "exact") -> float:
        """Group CFCC of ``group`` on the current graph.

        ``mode="exact"`` reads the incrementally maintained grounded inverse
        (:meth:`evaluate_exact`); ``mode="forest"`` the importance-weighted
        forest pools (:meth:`evaluate_forest`, accuracy grows with
        ``pool_size``).
        """
        mode = str(mode).lower()
        if mode == "exact":
            return self.evaluate_exact(group)
        if mode == "forest":
            return self.evaluate_forest(group)
        raise InvalidParameterError(f"unknown evaluation mode {mode!r}")


class DynamicCFCM(QueryFront):
    """Query engine maintaining CFCM state across edge and node updates.

    Parameters
    ----------
    graph:
        A :class:`DynamicGraph` (a plain connected :class:`repro.Graph` is
        wrapped automatically).  Groups and query results use the dynamic
        graph's *stable* node ids throughout, also after node churn.
    seed:
        Master seed; every cache miss derives an independent child seed so
        results are reproducible for a fixed call sequence.
    config:
        Optional :class:`SamplingConfig` forwarded to the sampling methods.
    pool_size:
        Number of forests kept per evaluation root set.
    cache_capacity:
        Maximum entries per cache (query results, forest pools, incremental
        inverses); least-recently-used entries are evicted beyond it so a
        long-running engine's memory stays bounded.
    ess_floor:
        Fraction of ``pool_size``: when a pool's effective sample size falls
        below ``ess_floor * pool_size``, the next evaluation replaces its
        stale mass with fresh lockstep draws.
    adaptive_ess_floor:
        Let every pool tune its live ESS floor from observed churn
        (:meth:`WeightedForestPool.effective_floor`): sustained churn
        relaxes the floor towards ``min(0.25, ess_floor)`` — halving redraw
        volume at negligible accuracy cost — and quiet periods restore the
        configured floor.  Off by default for parity with historical
        behaviour; the sharded engine enables it.
    backend:
        Resistance backend spec for the exact evaluation path: ``"dense"``
        (explicit inverse, the default), ``"sparse"`` (solver-backed, never
        materialises the inverse) or ``"auto"`` (picks by graph
        size/sparsity); forwarded to every
        :class:`~repro.dynamic.IncrementalResistance` this engine creates.
        A name, not an instance: one backend instance holds the
        factorisation of one grounded matrix, and the engine keeps a tracker
        per group.  Each tracker refactorises at its backend's break-even (a
        fixed 64 updates on dense, the factor's own estimate on sparse), and
        the journal is compacted past any tracker that lags further behind.
    watchdog_interval:
        Probe the numerical health of every cached incremental inverse once
        per this-many synchronisations (the backward residual
        ``max|L_{-S}(B⁻¹e) − e|`` of a sampled unit solve); drift past the
        :class:`~repro.resilience.ResidualWatchdog` default threshold
        (``1e-6``) triggers an automatic refactorisation.  ``0`` (the
        default) disables the watchdog.
    """

    def __init__(self, graph: DynamicGraph | Graph, seed: RandomState = None,
                 config: Optional[SamplingConfig] = None, pool_size: int = 24,
                 cache_capacity: int = 64, ess_floor: float = 0.5,
                 adaptive_ess_floor: bool = False,
                 backend: str = "dense",
                 watchdog_interval: int = 0):
        if isinstance(graph, Graph):
            graph = DynamicGraph(graph)
        self.graph = graph
        self.backend = str(backend).lower()
        if self.backend not in ("dense", "sparse", "auto"):
            raise InvalidParameterError(
                f"backend must be a spec string 'dense', 'sparse' or 'auto', "
                f"got {backend!r}"
            )
        self.rng = as_rng(seed)
        self.config = config
        self.pool_size = check_integer("pool_size", pool_size, minimum=1)
        self.ess_floor = float(ess_floor)
        if not 0.0 <= self.ess_floor <= 1.0:
            raise InvalidParameterError(
                f"ess_floor must lie in [0, 1], got {ess_floor}"
            )
        self.adaptive_ess_floor = bool(adaptive_ess_floor)
        self.cache_capacity = check_integer("cache_capacity", cache_capacity,
                                            minimum=1)
        self.watchdog_interval = check_integer("watchdog_interval",
                                               watchdog_interval, minimum=0)
        self.stats = EngineStats()
        self._query_cache: Dict[Tuple, Tuple[int, CFCMResult]] = {}
        self._eval_cache: Dict[Tuple, Tuple[int, float]] = {}
        self._pools: Dict[Tuple[int, ...], WeightedForestPool] = {}
        self._trackers: Dict[Tuple[int, ...], IncrementalResistance] = {}
        self._pool_version = graph.version

    # ---------------------------------------------------------------- queries
    @property
    def pending_events(self) -> int:
        """Journal events applied to the graph but not yet seen by the caches."""
        return self.graph.version - self._pool_version

    def sync(self) -> int:
        """Fold pending journal events into every cached consumer *now*.

        This is the maintenance half of every query, exposed as a
        non-blocking hook so a front end (e.g. the asyncio service in
        :mod:`repro.service`) can pump pool reweighting and journal
        compaction off the query hot path — between traffic bursts, from a
        worker thread, without answering anything.  Returns the version the
        caches now reflect, which callers can use as a consistency token.

        Edge events and node insertions are replayed onto every forest pool
        (:meth:`WeightedForestPool.apply`).  Only node *removals* remain
        structural: compact snapshot ids shift, so dependent pools/trackers
        are evicted and the surviving pools flushed.  Afterwards the journal
        prefix every cached consumer has seen is compacted away.
        """
        if self.graph.version == self._pool_version:
            # Nothing pending: skip the replay (and the span) entirely.
            self._compact_journal()
            return self._pool_version
        with trace("engine.sync_pools",
                   pending=self.graph.version - self._pool_version):
            try:
                events = self.graph.journal_since(self._pool_version)
            except GraphError:
                # Another consumer compacted the journal past our cursor; the
                # replay is lost, so conservatively flush every pool (trackers
                # recover the same way).
                events = None
            if events is None or any(e.kind == REMOVE_NODE for e in events):
                # Every pool ends up empty, so the other events of the same
                # suffix are no-ops for pools — which is also why the replay
                # below may use the *current* id mapping.
                self._evict_nodes([int(e.node) for e in events or ()
                                   if e.kind == REMOVE_NODE])
            else:
                with trace("pool.reweight", events=len(events)):
                    for event in events:
                        for pool in self._pools.values():
                            reweighted, dropped, flushed = pool.apply(
                                event, self.graph, self.rng)
                            self.stats.forests_reweighted += reweighted
                            self.stats.forests_dropped += dropped
                            self.stats.pools_flushed += flushed
            self._pool_version = self.graph.version
            for roots, pool in self._pools.items():
                self._record_pool_health(roots, pool)
            self._compact_journal()
        return self._pool_version

    def tracker(self, group: Sequence[int]) -> IncrementalResistance:
        """The cached per-group incremental inverse, created on first use.

        The maintenance entry point behind :meth:`evaluate_exact`, exposed
        so compositional front ends (the sharded engine's per-shard Schur
        stitch) can reach the tracker's solve surface
        (:meth:`~repro.dynamic.IncrementalResistance.resistance_column`,
        :attr:`~repro.dynamic.IncrementalResistance.kept`) without going
        through a scalar evaluation.  The tracker is LRU-cached under the
        validated group key exactly like an evaluation would cache it.
        """
        self.sync()
        key = self.graph.validate_group(group)
        tracker = self._trackers.get(key)
        if tracker is None:
            self.stats.eval_misses += 1
            tracker = IncrementalResistance(
                self.graph, key, backend=self.backend,
                watchdog=self._make_watchdog(key))
        else:
            self.stats.eval_hits += 1
        _lru_store(self._trackers, key, tracker, self.cache_capacity)
        return tracker

    def evaluate_exact(self, group: Sequence[int]) -> float:
        """Exact group CFCC via the per-group incremental inverse."""
        with trace("engine.evaluate_exact") as span, _op_timer("evaluate_exact"):
            key = self.graph.validate_group(group)
            span.set(group=_pool_key(key))
            cached = key in self._trackers
            span.set(cache="hit" if cached else "miss")
            tracker = self.tracker(key)
            batches = tracker.stats.batch_updates
            events = tracker.stats.batched_events
            value = tracker.group_cfcc()
            self.stats.batch_updates += tracker.stats.batch_updates - batches
            self.stats.batched_events += tracker.stats.batched_events - events
            return value

    def evaluate_forest(self, group: Sequence[int]) -> float:
        """Estimated group CFCC from the importance-weighted forest pool.

        ``Tr(inv(L_{-S}))`` is the sum of the per-node diagonal estimators of
        Lemma 3.3, evaluated as a *weighted* mean over the pooled forests
        rooted at ``S`` (one batched ``(B, n)`` fold, shared with the static
        estimators).  Stale forests contribute with their importance weight;
        the pool is topped up with fresh lockstep draws whenever its
        effective sample size falls below the ESS floor.  The answer is
        cached until the graph version moves.
        """
        roots = self._pool_roots(group)
        with trace("engine.evaluate_forest", roots=_pool_key(roots)) as span, \
                _op_timer("evaluate_forest"):
            self.sync()
            cached = self._eval_cache.get(roots)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.eval_hits += 1
                span.set(cache="hit")
                _lru_store(self._eval_cache, roots, cached,
                           self.cache_capacity)
                return cached[1]
            self.stats.eval_misses += 1
            span.set(cache="miss")

            pool, snapshot, compact_roots = self._pool_for(roots)
            self.stats.forests_kept += pool.size
            self._top_up(pool, snapshot, compact_roots)
            value = self._fold_trace(pool, snapshot)
            _lru_store(self._eval_cache, roots,
                       (self.graph.version, value), self.cache_capacity)
            self._record_pool_health(roots, pool)
            return value

    def refill_pool(self, group: Sequence[int]) -> int:
        """Top the forest pool of ``group`` up; returns the number drawn.

        The sampling half of :meth:`evaluate_forest`, exposed so a front end
        can refresh pools ahead of query traffic (prefetching).
        """
        roots = self._pool_roots(group)
        self.sync()
        pool, snapshot, compact_roots = self._pool_for(roots)
        drawn = self._top_up(pool, snapshot, compact_roots)
        self._record_pool_health(roots, pool)
        return drawn

    def pool_health(self) -> Dict[str, Dict[str, float]]:
        """Per-pool health snapshots (size, capacity, ESS, stale fraction)."""
        return {
            _pool_key(roots): pool.health()
            for roots, pool in self._pools.items()
        }

    # ----------------------------------------------------- durability hooks
    def checkpoint(self, path: str) -> str:
        """Serialise the full engine state to ``path`` (see
        :mod:`repro.resilience.checkpoint` for the format).  The engine is
        quiesced first (pending journal events folded in) and remains fully
        usable afterwards.  Returns the path written."""
        from repro.resilience.checkpoint import checkpoint_engine

        return checkpoint_engine(self, path)

    @classmethod
    def restore(cls, path: str) -> "DynamicCFCM":
        """Rebuild an engine from a :meth:`checkpoint` archive.

        The restored engine continues *bit-equal* with the checkpointed one:
        identical RNG stream, caches, pools and factor state.  To recover a
        crashed primary, replay its post-checkpoint mutations onto
        :attr:`graph` — the journal-replayed engine reconverges exactly.
        """
        from repro.resilience.checkpoint import restore_engine

        return restore_engine(path)

    def _make_watchdog(self, key: Tuple[int, ...]):
        """A per-tracker drift watchdog, or ``None`` when disabled.

        Seeded from the group key so every tracker probes an independent,
        deterministic row stream (and a restored checkpoint replays it).
        """
        if self.watchdog_interval <= 0:
            return None
        from repro.resilience.watchdog import ResidualWatchdog

        return ResidualWatchdog(
            interval=self.watchdog_interval,
            seed=zlib.crc32(_pool_key(key).encode("utf-8")),
        )

    # ------------------------------------------------------------ pooled reads
    def _pool_roots(self, group: Sequence[int]) -> Tuple[int, ...]:
        """Validate a pooled read's group: unit weights, live stable ids."""
        if not self.graph.is_unit_weighted:
            raise InvalidParameterError(
                "forest evaluation assumes unit edge weights; use mode='exact'"
            )
        return self.graph.validate_group(group)

    def _fold_trace(self, pool: WeightedForestPool, snapshot: Graph) -> float:
        """Group CFCC ``n / Tr`` from the pool's per-forest traces.

        One weight-aware batched fold, and only over the forests whose trace
        is not already cached against the pool's path system (fresh draws,
        or everything after a path invalidation).
        """
        path = pool.require_path(snapshot)
        stale = np.flatnonzero(~pool.trace_valid)
        if stale.size:
            with trace("estimator.fold", forests=int(stale.size)):
                diag = batched_diag_estimates(pool.batch().parent[stale], path)
                pool.set_traces(stale, diag.sum(axis=1))
            _FOLD_FORESTS.observe(int(stale.size))
            self.stats.forests_folded += int(stale.size)
        weights = pool.weights()
        pooled = float(weights @ pool.traces) / float(weights.sum())
        return self.graph.n / pooled

    # ------------------------------------------------------------ maintenance
    def _pool_for(self, roots: Tuple[int, ...]
                  ) -> Tuple[WeightedForestPool, Graph, Sequence[int]]:
        """``(pool, snapshot, compact_roots)`` for ``roots``; the pool is
        recreated when empty (fresh compact ids)."""
        snapshot = self.graph.snapshot()
        compact_roots = self.graph.compact_nodes(roots)
        pool = self._pools.get(roots)
        if pool is None or pool.size == 0:
            # An empty pool is rebuilt entirely from the current snapshot, so
            # it restarts with the mapping (and weights) in force right now.
            pool = WeightedForestPool(compact_roots, capacity=self.pool_size,
                                      ess_floor=self.ess_floor,
                                      adaptive_floor=self.adaptive_ess_floor)
        _lru_store(self._pools, roots, pool, self.cache_capacity,
                   on_evict=self._on_pool_evicted)
        return pool, snapshot, compact_roots

    def _top_up(self, pool: WeightedForestPool, snapshot: Graph,
                compact_roots: Sequence[int]) -> int:
        """Draw the fresh forests the pool's refresh plan asks for.

        Covers both the size deficit (forests killed by deletions) and the
        ESS floor (stale mass from insertions/reweights); fresh forests are
        drawn as one lockstep vectorised batch and admitted at weight 1,
        evicting the lowest-weight forests beyond capacity.
        """
        missing = pool.plan_refresh()
        if missing <= 0:
            return 0
        if missing > self.pool_size - pool.size:
            self.stats.ess_topups += 1
        with trace("pool.topup", missing=missing):
            pool.admit(sample_forest_batch_vectorized(
                snapshot, compact_roots, missing, seed=self.rng
            ))
        _TOPUP_FORESTS.observe(missing)
        self.stats.forests_resampled += missing
        return missing

    def _evict_nodes(self, nodes: Sequence[int]) -> None:
        """Drop cached state referencing removed nodes; flush every survivor.

        The surviving pools' forests no longer span a valid snapshot id
        space (and neither do their path systems).
        """
        removed = set(nodes)
        for roots in [r for r in self._pools if removed.intersection(r)]:
            del self._pools[roots]
            self.stats.pool_ess.pop(_pool_key(roots), None)
            self.stats.node_evictions += 1
        for group in [g for g in self._trackers if removed.intersection(g)]:
            del self._trackers[group]
            self.stats.node_evictions += 1
        for pool in self._pools.values():
            if pool.flush():
                self.stats.pools_flushed += 1

    def _on_pool_evicted(self, roots: Tuple[int, ...],
                         pool: WeightedForestPool) -> None:
        """LRU-eviction hook: record the event and drop the pool's health
        entry, so :attr:`EngineStats.pool_ess` only ever lists live pools."""
        self.stats.pools_evicted += 1
        self.stats.pool_ess.pop(_pool_key(roots), None)

    def _record_pool_health(self, roots: Tuple[int, ...],
                            pool: WeightedForestPool) -> None:
        self.stats.pool_ess[_pool_key(roots)] = pool.ess()

    def _compact_journal(self) -> None:
        """Ask the graph to drop the journal prefix all consumers have seen.

        Every relevant event is at least one triple, so a cached tracker
        lagging more than its backend's break-even in events will refresh
        from the snapshot rather than replay on its next sync: it never
        needs the old suffix — don't let it pin the floor (and the
        journal's memory) at its stale version forever.
        """
        version = self.graph.version
        floor = self._pool_version
        for tracker in self._trackers.values():
            lag_floor = version - math.ceil(tracker.backend.break_even)
            floor = min(floor, max(tracker.synced_version, lag_floor))
        self.graph.compact(floor)


def _lru_store(cache: Dict, key, value, capacity: int,
               on_evict: Optional[Callable] = None) -> None:
    """Insert ``key`` as the most-recent entry, evicting down to ``capacity``.

    Called on every hit and miss alike, so dict insertion order doubles as
    LRU order; the caches hold dense inverses / forest pools, so bounding
    them is what keeps a long-running engine's memory flat.  ``on_evict``
    receives ``(key, value)`` for every entry dropped, so owners can record
    the eviction and release any per-entry bookkeeping (a silently vanishing
    pool used to leave its health/cursor state behind).
    """
    cache.pop(key, None)
    cache[key] = value
    while len(cache) > capacity:
        old_key = next(iter(cache))
        old_value = cache.pop(old_key)
        if on_evict is not None:
            on_evict(old_key, old_value)
