"""ShardedCFCM: per-shard trackers stitched by a global Schur complement.

Order the grounded global Laplacian ``L_{-S}`` as ``[U, T']`` where ``U``
concatenates the shard interiors (minus ``S``) and ``T' = T \\ S`` is the
live separator.  The partition invariant (:mod:`repro.distributed.partition`)
makes the interior block *block diagonal by shard*::

    L_{-S} = [[ A,  W  ],        A  = blockdiag(A_1 … A_p)
              [ Wᵀ, L_TT]]       W  = stacked interior–separator couplings

so with per-shard grounded inverses ``A_i⁻¹`` (each served by one
:class:`repro.dynamic.IncrementalResistance` inside a per-shard
:class:`repro.dynamic.DynamicCFCM` over the shard mirror) the whole global
inverse is reachable through one dense ``|T'| × |T'|`` Schur complement::

    S_c = L_TT − Σ_i W_iᵀ A_i⁻¹ W_i = L_TT − Σ_i C_i,      M = S_c⁻¹
    (L_{-S}⁻¹)_TT = M
    (L_{-S}⁻¹)_UU = A⁻¹ + (A⁻¹W) M (A⁻¹W)ᵀ

Traces add (``Tr = Σ_i Tr(A_i⁻¹) + Tr(M) + Σ_i Tr(M·W_iᵀA_i⁻²W_i)``), and a
single node's resistance to ``S`` is its tracker diagonal plus an ``xᵀMx``
correction with ``x = W_iᵀ A_i⁻¹ e_u`` — one per-shard column solve, exact on
every backend.

**Deferred stitching.**  Events are O(1) at update time: the engine
classifies each journal event and forwards it to the owning shard's mirror;
all Schur maintenance waits until a query folds the pending burst.  A fold
over ``k`` events on shard ``i`` syncs the tracker (``A_i,old → A_i,new``
with ``A_new = A_old + B D Bᵀ``), recovers the *pre*-burst inverse through
one Woodbury identity

    ``A_old⁻¹ = A_new⁻¹ + V H Vᵀ``, ``V = A_new⁻¹B``, ``H = (D⁻¹ − BᵀV)⁻¹``

(the sparse backend hands ``V`` over for free from its accumulated
correction columns — :meth:`ResistanceBackend.correction_columns`), and
updates the cached coupling block exactly::

    C_new = C_old − G H Gᵀ + (E + Eᵀ) − F,   G = W_oldᵀV,
    E = ΔWᵀA_new⁻¹W_new,  F = ΔWᵀA_new⁻¹ΔW

where ``ΔW`` collects the burst's interior–separator weight changes (a few
extra column solves at most).  Every term is low rank, so the Schur
complement moves by ``P Λ Pᵀ`` and ``M`` follows by one block Woodbury —
never a fresh ``|T'|³`` inversion on the hot path (a periodic refresh from
the exactly-maintained ``S_c`` keeps float drift bounded).

Separator–separator events never touch a shard: they fold into ``L_TT``
(rank one each).  Node events and cross-part interior edge insertions are
*structural*: the engine re-partitions from inherited homes and rebuilds the
shards (forest pools restart; everything exact is rebuilt from the graph).

Per-shard folds, traces and pool work fan out over a
:class:`repro.distributed.executor.ShardExecutor`; the serial default is
deterministic and, on a single core, fastest — the sharding win there comes
from solver locality (factor and solve costs scale superlinearly in n, so
four quarter-sized trackers beat one full-sized one even back to back).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.centrality.estimators import SamplingConfig
from repro.centrality.result import CFCMResult
from repro.distributed.executor import ShardExecutor, make_executor
from repro.distributed.partition import (
    Partition,
    assign_homes,
    partition_from_home,
    partition_graph,
)
from repro.distributed.shard import ShardState
from repro.dynamic.engine import EngineStats, _lru_store, _op_timer
from repro.dynamic.graph import REMOVE, DynamicGraph, GraphUpdate
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import trace
from repro.utils.rng import RandomState, as_rng
from repro.utils.timer import clock
from repro.utils.validation import check_integer

# Sharded-engine metrics (no-ops until the default registry is enabled).
_SYNC_SECONDS = REGISTRY.histogram(
    "repro_shard_sync_seconds",
    "Wall time of one per-shard fold (tracker sync + coupling algebra)",
    labels=("shard",),
)
_STITCH_SECONDS = REGISTRY.histogram(
    "repro_shard_stitch_seconds",
    "Wall time of one full Schur stitch (all dirty shards + M update)",
)
_SHARD_COUNT = REGISTRY.gauge(
    "repro_shard_count", "Number of shards of the sharded engine",
)
_SEPARATOR_NODES = REGISTRY.gauge(
    "repro_shard_separator_nodes", "Current vertex-separator size |T|",
)
_INTERIOR_NODES = REGISTRY.gauge(
    "repro_shard_interior_nodes", "Interior nodes owned by one shard",
    labels=("shard",),
)
_EVENTS_TOTAL = REGISTRY.counter(
    "repro_shard_events_total",
    "Journal events routed to one shard ('separator' = T-T events)",
    labels=("shard",),
)
_REBUILDS_TOTAL = REGISTRY.counter(
    "repro_shard_rebuilds_total",
    "Structural re-partitions (node events, cross-part insertions)",
)
_SCHUR_REFRESHES_TOTAL = REGISTRY.counter(
    "repro_shard_schur_refreshes_total",
    "Full recomputations of M = inv(Schur) (rank budget or singular fold)",
)


class _StitchInvalid(Exception):
    """A fold could not be applied incrementally; rebuild the group state."""


class _GroupState:
    """Stitch state of one grounded group ``S``: couplings, Schur, inverse.

    All arrays are indexed by ``tprime`` position (the sorted live separator
    ``T \\ S``).  Per participating shard it holds the tracker handle, the
    kept-row order it was built against, the sparse coupling ``W_i`` as a
    ``{(row, tcol): -w}`` dict (with a cached CSR), and the dense coupling
    block ``C_i = W_iᵀA_i⁻¹W_i``.  ``cursor`` points into the engine's
    event log: everything before it is folded in.
    """

    def __init__(self, engine: "ShardedCFCM", key: Tuple[int, ...]):
        self.key = key
        self.sset = frozenset(key)
        graph = engine.graph
        part = engine.partition
        self.tprime: Tuple[int, ...] = tuple(
            t for t in part.separator if t not in self.sset
        )
        self.tpos: Dict[int, int] = {t: i for i, t in enumerate(self.tprime)}
        tp = len(self.tprime)

        # Grounded separator block of the *global* Laplacian: full weighted
        # degrees on the diagonal, -w couplings inside T'.
        ltt = np.zeros((tp, tp), dtype=np.float64)
        for t in self.tprime:
            a = self.tpos[t]
            for nb in graph.neighbors(t):
                w = graph.weight(t, nb)
                ltt[a, a] += w
                b = self.tpos.get(nb)
                if b is not None:
                    ltt[a, b] -= w

        self.trackers: Dict[int, object] = {}
        self.kept: Dict[int, np.ndarray] = {}
        self.rowpos: Dict[int, Dict[int, int]] = {}
        self.w_entries: Dict[int, Dict[Tuple[int, int], float]] = {}
        self._wcsr: Dict[int, Tuple[int, sp.csr_matrix]] = {}
        self._wepoch: Dict[int, int] = {}
        self.coupling: Dict[int, np.ndarray] = {}

        schur = ltt
        for si, shard in enumerate(engine._shards):
            if shard is None:
                continue
            grounded = shard.grounded_group(key)
            if len(grounded) >= shard.mirror.n:
                continue  # interior fully grounded: contributes nothing
            tracker = shard.engine.tracker(grounded)
            tracker.sync()
            kept = np.asarray(tracker.kept, dtype=np.int64).copy()
            rowpos = {int(x): r for r, x in enumerate(kept)}
            w: Dict[Tuple[int, int], float] = {}
            for t in self.tprime:
                a = self.tpos[t]
                for nbg in graph.neighbors(t):
                    if shard.owns(nbg) and nbg not in self.sset:
                        r = rowpos[shard.g2l[nbg]]
                        w[(r, a)] = -graph.weight(t, nbg)
            self.trackers[si] = tracker
            self.kept[si] = kept
            self.rowpos[si] = rowpos
            self.w_entries[si] = w
            if tp and w:
                block = self._exact_coupling(tracker, w, tp)
                self.coupling[si] = block
                schur = schur - block
            else:
                self.coupling[si] = np.zeros((tp, tp), dtype=np.float64)
        self.schur = schur
        self.M = (np.linalg.inv(schur) if tp
                  else np.zeros((0, 0), dtype=np.float64))
        self.cursor = engine._event_end
        self.version = graph.version
        self.rank_folded = 0

    @staticmethod
    def _exact_coupling(tracker, w: Dict[Tuple[int, int], float],
                        tp: int) -> np.ndarray:
        """Dense ``C = WᵀA⁻¹W`` over the active separator columns only.

        Columns of ``W`` with no incident interior edge are identically
        zero, so only the shard-adjacent separator columns are solved —
        on strip-like partitions that is a small fraction of ``|T'|``.
        """
        n = tracker.backend.n
        active = sorted({a for (_, a) in w})
        amap = {a: i for i, a in enumerate(active)}
        dense = np.zeros((n, len(active)), dtype=np.float64)
        for (r, a), val in w.items():
            dense[r, amap[a]] = val
        x = np.empty_like(dense)
        for lo in range(0, dense.shape[1], 256):
            hi = min(lo + 256, dense.shape[1])
            x[:, lo:hi] = tracker.backend.solve_many(dense[:, lo:hi])
        block = np.zeros((tp, tp), dtype=np.float64)
        block[np.ix_(active, active)] = dense.T @ x
        return block

    def wcsr(self, si: int) -> sp.csr_matrix:
        """CSR view of ``W_i`` (rows = kept order, cols = T' positions)."""
        epoch = self._wepoch.get(si, 0)
        cached = self._wcsr.get(si)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        w = self.w_entries[si]
        n = len(self.kept[si])
        tp = len(self.tprime)
        if w:
            rows, cols, vals = zip(*[(r, a, v) for (r, a), v in w.items()])
            csr = sp.csr_matrix((vals, (rows, cols)), shape=(n, tp))
        else:
            csr = sp.csr_matrix((n, tp), dtype=np.float64)
        self._wcsr[si] = (epoch, csr)
        return csr

    def touch_w(self, si: int) -> None:
        self._wepoch[si] = self._wepoch.get(si, 0) + 1


class ShardedCFCM:
    """Drop-in sharded counterpart of :class:`repro.dynamic.DynamicCFCM`.

    Parameters
    ----------
    graph:
        A :class:`DynamicGraph` (plain connected :class:`repro.Graph` is
        wrapped).  All mutations go through this graph; the engine classifies
        and forwards its journal.
    shards:
        Number of parts the node set is split into.
    seeds:
        Optional explicit BFS seed nodes for the first partition (one per
        shard) — lets topology-aware callers (lattice strips) pin the layout.
        Re-partitions after structural events fall back to automatic seeds.
    executor:
        ``"serial"`` (deterministic default), ``"thread"`` or a ready
        :class:`ShardExecutor` — runs per-shard folds, traces and pool work.
    coupling:
        How trace queries evaluate ``Tr(M·W_iᵀA_i⁻²W_i)``: ``"exact"``
        (dense solves), ``"sketch"`` (Hutchinson probes from the backend's
        cached block) or ``"auto"`` (exact up to ``coupling_threshold`` kept
        rows per shard, sketched beyond — mirroring the sparse backend's own
        trace convention).  Per-node resistance queries are exact in every
        mode.
    schur_refresh:
        Accumulated fold rank after which ``M`` is recomputed from the
        exactly-maintained Schur complement (float hygiene).
    max_group_lag:
        Pending-event count beyond which a stale group state is rebuilt
        from scratch instead of folded forward.
    seed, config, pool_size, refresh_interval, cache_capacity, ess_floor,
    backend, backend_options:
        Forwarded to the per-shard :class:`DynamicCFCM` engines (pools run
        with adaptive ESS floors).
    """

    def __init__(self, graph: DynamicGraph | Graph, shards: int = 2,
                 seed: RandomState = None,
                 config: Optional[SamplingConfig] = None,
                 pool_size: int = 24, refresh_interval: int = 64,
                 cache_capacity: int = 16, ess_floor: float = 0.5,
                 backend: str = "auto",
                 backend_options: Optional[Dict[str, object]] = None,
                 executor: str | ShardExecutor = "serial", workers: int = 4,
                 seeds: Sequence[int] = (), coupling: str = "auto",
                 coupling_threshold: int = 2048, schur_refresh: int = 512,
                 max_group_lag: int = 4096):
        if isinstance(graph, Graph):
            graph = DynamicGraph(graph)
        self.graph = graph
        self.shards = check_integer("shards", shards, minimum=1)
        self.rng = as_rng(seed)
        self.config = config
        self.pool_size = check_integer("pool_size", pool_size, minimum=1)
        self.refresh_interval = check_integer(
            "refresh_interval", refresh_interval, minimum=1)
        self.cache_capacity = check_integer(
            "cache_capacity", cache_capacity, minimum=1)
        self.ess_floor = float(ess_floor)
        self.backend = backend
        self.backend_options = dict(backend_options) if backend_options else None
        self.executor = make_executor(executor, workers=workers)
        coupling = str(coupling).lower()
        if coupling not in ("auto", "exact", "sketch"):
            raise InvalidParameterError(
                f"coupling must be 'auto', 'exact' or 'sketch', got {coupling!r}"
            )
        self.coupling = coupling
        self.coupling_threshold = check_integer(
            "coupling_threshold", coupling_threshold, minimum=1)
        self.schur_refresh = check_integer(
            "schur_refresh", schur_refresh, minimum=1)
        self.max_group_lag = check_integer(
            "max_group_lag", max_group_lag, minimum=1)
        self.stats = EngineStats()
        self.rebuilds = 0
        self._groups: Dict[Tuple[int, ...], _GroupState] = {}
        self._query_cache: Dict[Tuple, Tuple[int, CFCMResult]] = {}
        self._eval_cache: Dict[Tuple, Tuple[int, float]] = {}
        self._event_log: List[GraphUpdate] = []
        self._event_base = 0
        self._synced_version = graph.version
        self._shards: List[Optional[ShardState]] = []
        self.partition: Optional[Partition] = None
        self._build(seeds)

    # ------------------------------------------------------------- lifecycle
    def _build(self, seeds: Sequence[int] = ()) -> None:
        """(Re)partition the current graph and stand up fresh shard states."""
        graph = self.graph
        if self.partition is None or seeds:
            partition = partition_graph(graph, self.shards, seeds)
        else:
            # Inherit homes across the structural event: surviving nodes keep
            # their part; new nodes adopt the home of an already-homed
            # neighbour (BFS order, so chains of new nodes resolve too).
            old_home = self.partition.home
            home = {int(x): old_home[int(x)] for x in graph.node_ids()
                    if int(x) in old_home}
            if not home:
                home = assign_homes(graph, self.shards)
            pending = [int(x) for x in graph.node_ids() if int(x) not in home]
            while pending:
                stuck = True
                rest = []
                for node in pending:
                    owner = next((home[nb] for nb in graph.neighbors(node)
                                  if nb in home), None)
                    if owner is None:
                        rest.append(node)
                    else:
                        home[node] = owner
                        stuck = False
                pending = rest
                if stuck and pending:
                    for node in pending:
                        home[node] = 0
                    pending = []
            partition = partition_from_home(graph, home, self.shards)
        self.partition = partition
        self._shards = []
        for si, interior in enumerate(partition.parts):
            if not interior:
                self._shards.append(None)
                _INTERIOR_NODES.set(0.0, shard=str(si))
                continue
            child_seed = int(self.rng.integers(0, 2**62))
            self._shards.append(ShardState(
                graph, si, interior, partition.separator, seed=child_seed,
                config=self.config, pool_size=self.pool_size,
                refresh_interval=self.refresh_interval,
                cache_capacity=self.cache_capacity, ess_floor=self.ess_floor,
                backend=self.backend, backend_options=self.backend_options,
            ))
            _INTERIOR_NODES.set(float(len(interior)), shard=str(si))
        _SHARD_COUNT.set(float(self.shards))
        _SEPARATOR_NODES.set(float(len(partition.separator)))
        self._groups.clear()
        self._eval_cache.clear()
        self._event_log = []
        self._event_base = 0
        self._synced_version = graph.version

    def _rebuild(self) -> None:
        """Structural event: re-partition and rebuild everything exact."""
        self.rebuilds += 1
        _REBUILDS_TOTAL.inc()
        self._build()

    def close(self) -> None:
        """Release executor workers (the engine stays usable serially)."""
        self.executor.shutdown()

    # ----------------------------------------------------------- composition
    @property
    def version(self) -> int:
        return self.graph.version

    @property
    def synced_version(self) -> int:
        """Graph version classified/forwarded into the shard mirrors."""
        return self._synced_version

    @property
    def pending_events(self) -> int:
        return self.graph.version - self._synced_version

    @property
    def _event_end(self) -> int:
        return self._event_base + len(self._event_log)

    def describe(self) -> Dict[str, object]:
        info = dict(self.partition.describe())
        info.update(executor=self.executor.name, backend=self.backend,
                    rebuilds=self.rebuilds)
        return info

    def sync(self) -> int:
        """Classify pending journal events and forward them to shard mirrors.

        O(1) per event: membership lookups plus one mirror mutation.  All
        Schur/coupling algebra is deferred to the next query's fold.  Node
        events and cross-part interior insertions trigger a structural
        rebuild that subsumes the rest of the suffix.
        """
        graph = self.graph
        if graph.version == self._synced_version:
            return self._synced_version
        try:
            events = graph.journal_since(self._synced_version)
        except GraphError:
            # Another consumer compacted past our cursor; rebuild from the
            # current state (same recovery the single engine performs).
            self._rebuild()
            return self._synced_version
        sep = self.partition._separator_set
        home = self.partition.home
        for event in events:
            if event.is_node_event:
                self._rebuild()
                return self._synced_version
            u_sep = event.u in sep
            v_sep = event.v in sep
            if u_sep and v_sep:
                _EVENTS_TOTAL.inc(shard="separator")
            else:
                if not u_sep and not v_sep and home[event.u] != home[event.v]:
                    # A cross-part interior edge breaks block diagonality;
                    # only insertions can create one (the invariant bars it
                    # from existing), and they force a re-partition.
                    self._rebuild()
                    return self._synced_version
                owner = home[event.v] if u_sep else home[event.u]
                shard = self._shards[owner]
                if shard is not None:
                    shard.forward(event)
                _EVENTS_TOTAL.inc(shard=str(owner))
            self._event_log.append(event)
        self._synced_version = graph.version
        self._trim_event_log()
        graph.compact(self._synced_version)
        return self._synced_version

    def _trim_event_log(self) -> None:
        if not self._groups:
            floor = self._event_end
        else:
            floor = min(gs.cursor for gs in self._groups.values())
        drop = floor - self._event_base
        if drop > 0:
            del self._event_log[:drop]
            self._event_base = floor

    # ----------------------------------------------------------- group state
    def _stitched(self, group: Sequence[int]) -> Tuple[Tuple[int, ...],
                                                       _GroupState]:
        """Sync, then return a fully folded group state for ``group``."""
        self.sync()
        key = self.graph.validate_group(group)
        gs = self._groups.get(key)
        if gs is not None and (gs.cursor < self._event_base
                               or self._event_end - gs.cursor
                               > self.max_group_lag):
            gs = None  # lagged past the log (or too far to fold profitably)
        if gs is None:
            self.stats.eval_misses += 1
            gs = _GroupState(self, key)
        else:
            self.stats.eval_hits += 1
            if gs.cursor < self._event_end:
                try:
                    self._fold(gs)
                except _StitchInvalid:
                    _SCHUR_REFRESHES_TOTAL.inc()
                    gs = _GroupState(self, key)
        _lru_store(self._groups, key, gs, self.cache_capacity)
        return key, gs

    def _fold(self, gs: _GroupState) -> None:
        """Fold the pending event suffix into ``gs`` (the Schur stitch)."""
        events = self._event_log[gs.cursor - self._event_base:]
        start = clock()
        with trace("schur_stitch", events=len(events),
                   group=len(gs.key)) as span:
            tp = len(gs.tprime)
            # --- classification against this group's T' and S -------------
            triples: Dict[int, List[Tuple[int, Optional[int], float]]] = {}
            dwsum: Dict[int, Dict[Tuple[int, int], float]] = {}
            diag: Dict[int, float] = {}
            tt_edges: List[Tuple[int, int, float]] = []
            sep = self.partition._separator_set
            home = self.partition.home
            for event in events:
                a = gs.tpos.get(event.u)
                b = gs.tpos.get(event.v)
                if a is not None and b is not None:
                    tt_edges.append((a, b, event.delta))
                    continue
                if a is not None or b is not None:
                    tcol = a if a is not None else b
                    diag[tcol] = diag.get(tcol, 0.0) + event.delta
                # Shard-side bookkeeping for any non-T'-T' event.
                si, i, j = self._tracker_rows(gs, event, sep, home)
                if si is None:
                    continue
                if i is not None:
                    triples.setdefault(si, []).append((i, j, event.delta))
                tcol = a if a is not None else b
                if tcol is not None:
                    interior = event.v if a is not None else event.u
                    row = self._kept_row(gs, si, interior, sep)
                    if row is not None:
                        self._apply_wdelta(gs, si, row, tcol, event,
                                           dwsum.setdefault(si, {}))
            dirty = sorted(set(triples) | set(dwsum))

            # --- per-shard folds (executor fan-out) -----------------------
            def shard_fold(si: int):
                fold_start = clock()
                with trace("shard_sync", shard=si,
                           events=len(triples.get(si, ()))):
                    result = self._fold_shard(gs, si, triples.get(si, []),
                                              dwsum.get(si, {}))
                if REGISTRY.enabled:
                    _SYNC_SECONDS.observe(clock() - fold_start, shard=str(si))
                return result

            results = self.executor.map(
                [(lambda s=si: shard_fold(s)) for si in dirty])

            # --- deterministic merge: C blocks, Schur, M ------------------
            cols: List[np.ndarray] = []
            lams: List[float] = []
            for si, (p_block, lam_block) in zip(dirty, results):
                if lam_block.size:
                    # The block is ΔSchur_i = −ΔC_i: subtract it from the
                    # coupling cache, add it to the Schur complement below.
                    delta_dense = (p_block * lam_block) @ p_block.T
                    gs.coupling[si] = gs.coupling[si] - delta_dense
                    cols.append(p_block)
                    lams.append(lam_block)
            for tcol, dsum in sorted(diag.items()):
                if dsum != 0.0:
                    e = np.zeros((tp, 1))
                    e[tcol, 0] = 1.0
                    cols.append(e)
                    lams.append(np.array([dsum]))
            for a, b, delta in tt_edges:
                e = np.zeros((tp, 1))
                e[a, 0] = 1.0
                e[b, 0] = -1.0
                cols.append(e)
                lams.append(np.array([delta]))
            if cols:
                p_all = np.concatenate(cols, axis=1)
                lam = np.concatenate([np.atleast_1d(l) for l in lams])
                keep = lam != 0.0
                p_all, lam = p_all[:, keep], lam[keep]
            else:
                lam = np.zeros(0)
            if lam.size:
                gs.schur = gs.schur + (p_all * lam) @ p_all.T
                mp = gs.M @ p_all
                core = np.diag(1.0 / lam) + p_all.T @ mp
                try:
                    gs.M = gs.M - mp @ np.linalg.solve(core, mp.T)
                except np.linalg.LinAlgError:
                    _SCHUR_REFRESHES_TOTAL.inc()
                    gs.M = np.linalg.inv(gs.schur)
                gs.M = (gs.M + gs.M.T) * 0.5
                gs.rank_folded += int(lam.size)
                if gs.rank_folded >= self.schur_refresh:
                    _SCHUR_REFRESHES_TOTAL.inc()
                    gs.M = np.linalg.inv(gs.schur)
                    gs.rank_folded = 0
            span.set(rank=int(lam.size), shards=len(dirty))
            gs.cursor = self._event_end
            gs.version = self.graph.version
        if REGISTRY.enabled:
            _STITCH_SECONDS.observe(clock() - start)

    def _tracker_rows(self, gs: _GroupState, event: GraphUpdate,
                      sep, home) -> Tuple[Optional[int], Optional[int],
                                          Optional[int]]:
        """Owning shard and tracker-row triple sides of one edge event.

        Returns ``(shard, i, j)`` with ``i`` ``None`` when neither endpoint
        is a kept row (the event is grounded-only for this group), matching
        the orientation rule of
        :meth:`IncrementalResistance._apply_edge_batch` so fold columns line
        up with the backend's accumulated correction columns.
        """
        u_sep = event.u in sep
        v_sep = event.v in sep
        if u_sep and v_sep:
            return None, None, None
        si = home[event.v] if u_sep else home[event.u]
        if si not in gs.trackers:
            return None, None, None
        i = self._kept_row(gs, si, event.u, sep)
        j = self._kept_row(gs, si, event.v, sep)
        if i is None and j is None:
            return si, None, None
        if i is None:
            i, j = j, None
        return si, i, j

    def _kept_row(self, gs: _GroupState, si: int, node: int,
                  sep) -> Optional[int]:
        if node in sep or node in gs.sset:
            return None
        shard = self._shards[si]
        if shard is None or not shard.owns(node):
            return None
        return gs.rowpos[si].get(shard.g2l[node])

    def _apply_wdelta(self, gs: _GroupState, si: int, row: int, tcol: int,
                      event: GraphUpdate,
                      dw: Dict[Tuple[int, int], float]) -> None:
        """Update ``W_i`` eagerly and record the fold's ΔW entry."""
        key = (row, tcol)
        delta_w = -event.delta  # W entries hold -w
        dw[key] = dw.get(key, 0.0) + delta_w
        w = gs.w_entries[si]
        if event.kind == REMOVE:
            w.pop(key, None)  # exact zero, no float residue
        else:
            w[key] = w.get(key, 0.0) + delta_w
        gs.touch_w(si)

    def _fold_shard(self, gs: _GroupState, si: int,
                    triples: List[Tuple[int, Optional[int], float]],
                    dwsum: Dict[Tuple[int, int], float]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's fold: returns ``(P, Λ)`` with ``ΔSchur_i = P Λ Pᵀ``.

        Derivation in the module docstring; every piece is assembled as
        symmetric rank-one factors so the caller can apply one block
        Woodbury to ``M`` and exact dense updates to ``C_i``/``Schur``.
        """
        tracker = gs.trackers[si]
        tracker.sync()
        if not np.array_equal(np.asarray(tracker.kept, dtype=np.int64),
                              gs.kept[si]):
            raise _StitchInvalid("kept-row order moved under the coupling")
        backend = tracker.backend
        tp = len(gs.tprime)
        n = len(gs.kept[si])
        cols: List[np.ndarray] = []
        lams: List[np.ndarray] = []

        k = len(triples)
        if k:
            deltas = np.array([t[2] for t in triples], dtype=np.float64)
            rows_i = np.array([t[0] for t in triples], dtype=np.int64)
            rows_j = np.array([-1 if t[1] is None else t[1]
                               for t in triples], dtype=np.int64)
            v = None
            state = backend.correction_columns(k)
            if state is not None:
                ri, rj, dd, corrected = state
                if (np.array_equal(ri, rows_i) and np.array_equal(rj, rows_j)
                        and np.array_equal(dd, deltas)):
                    v = corrected
            if v is None:
                rhs = np.zeros((n, k), dtype=np.float64)
                rhs[rows_i, np.arange(k)] = 1.0
                mask = rows_j >= 0
                rhs[rows_j[mask], np.flatnonzero(mask)] = -1.0
                v = backend.solve_many(rhs)
            btv = v[rows_i]
            mask = rows_j >= 0
            if np.any(mask):
                btv = btv.copy()
                btv[mask] -= v[rows_j[mask]]
            core = np.diag(1.0 / deltas) - btv
            try:
                h = np.linalg.inv(core)
            except np.linalg.LinAlgError as exc:
                raise _StitchInvalid(f"singular fold core: {exc}") from exc
            h = (h + h.T) * 0.5
            csr = gs.wcsr(si)
            g = csr.T @ v  # W_newᵀ V
            for (row, tcol), dw_val in dwsum.items():
                g[tcol, :] -= dw_val * v[row, :]  # back out ΔW: G = W_oldᵀV
            hvals, q = np.linalg.eigh(h)
            cols.append(np.asarray(g @ q))
            lams.append(hvals)

        if dwsum:
            csr = gs.wcsr(si)
            entries = sorted(dwsum.items())
            s_cols = {row: np.asarray(backend.column(row), dtype=np.float64)
                      for row in sorted({r for (r, _), _ in entries})}
            # −(E + Eᵀ): two symmetric rank-ones per ΔW entry.
            for (row, tcol), dw_val in entries:
                g_m = csr.T @ s_cols[row]
                x = np.zeros(tp)
                x[tcol] = 1.0
                y = dw_val * np.asarray(g_m).ravel()
                cols.append(np.column_stack([x + y, x - y]))
                lams.append(np.array([-0.5, 0.5]))
            # +F = J Cw Jᵀ with Cw[m,m'] = dw_m dw_m' (A⁻¹)[r_m, r_m'].
            kw = len(entries)
            cw = np.empty((kw, kw), dtype=np.float64)
            for mi, ((ri_, _), dwi) in enumerate(entries):
                for mj, ((rj_, _), dwj) in enumerate(entries):
                    cw[mi, mj] = dwi * dwj * s_cols[rj_][ri_]
            cw = (cw + cw.T) * 0.5
            wvals, qw = np.linalg.eigh(cw)
            scatter = np.zeros((tp, kw), dtype=np.float64)
            for mi, ((_, tcol), _) in enumerate(entries):
                scatter[tcol, :] += qw[mi, :]
            cols.append(scatter)
            lams.append(wvals)

        if not cols:
            return (np.zeros((tp, 0)), np.zeros(0))
        return np.concatenate(cols, axis=1), np.concatenate(lams)

    # --------------------------------------------------------------- queries
    def evaluate(self, group: Sequence[int], mode: str = "exact") -> float:
        mode = str(mode).lower()
        if mode == "exact":
            return self.evaluate_exact(group)
        if mode == "forest":
            return self.evaluate_forest(group)
        raise InvalidParameterError(f"unknown evaluation mode {mode!r}")

    def evaluate_exact(self, group: Sequence[int]) -> float:
        """Group CFCC via the stitched per-shard inverses.

        Exactness matches the configured backends: dense backends give the
        reference value to float precision; sparse backends serve their
        (deterministic) Hutchinson trace for the interior terms, the same
        convention the single-tracker engine follows at that scale.
        """
        with trace("engine.evaluate_exact"), _op_timer("evaluate_exact"):
            key, gs = self._stitched(group)
            cache_key = ("exact", key)
            cached = self._eval_cache.get(cache_key)
            if cached is not None and cached[0] == self.graph.version:
                return cached[1]
            value = self.graph.n / self._stitched_trace(gs, forest=False)
            _lru_store(self._eval_cache, cache_key,
                       (self.graph.version, value), self.cache_capacity)
            return value

    def _stitched_trace(self, gs: _GroupState, forest: bool) -> float:
        """``Tr(L_{-S}⁻¹)`` = interior traces + ``Tr(M)`` + couplings."""
        items = sorted(gs.trackers)

        def shard_trace(si: int) -> float:
            if forest:
                shard = self._shards[si]
                grounded = shard.grounded_group(gs.key)
                value = shard.engine.evaluate_forest(grounded)
                interior = shard.mirror.n / value
            else:
                interior = gs.trackers[si].trace()
            return interior + self._coupling_term(gs, si)

        parts = self.executor.map([(lambda s=si: shard_trace(s))
                                   for si in items])
        return float(sum(parts) + np.trace(gs.M))

    def _coupling_term(self, gs: _GroupState, si: int) -> float:
        """``Tr(M · W_iᵀ A_i⁻² W_i)`` — the interior↔separator cross term."""
        if gs.M.size == 0 or not gs.w_entries[si]:
            return 0.0
        tracker = gs.trackers[si]
        backend = tracker.backend
        mode = self.coupling
        if mode == "auto":
            exact = (backend.name == "dense"
                     or backend.n <= self.coupling_threshold)
            mode = "exact" if exact else "sketch"
        if mode == "exact":
            w = gs.w_entries[si]
            active = sorted({a for (_, a) in w})
            amap = {a: i for i, a in enumerate(active)}
            dense = np.zeros((backend.n, len(active)), dtype=np.float64)
            for (r, a), val in w.items():
                dense[r, amap[a]] = val
            x = backend.solve_many(dense)
            msub = gs.M[np.ix_(active, active)]
            return float(np.sum(msub * (x.T @ x)))
        z, y = backend.probe_block()
        g = gs.wcsr(si).T @ y  # (tp, probes)
        return float(np.mean(np.sum(g * (gs.M @ g), axis=0)))

    def resistance_to_group(self, node: int, group: Sequence[int]) -> float:
        """Exact effective resistance ``R(u, S)`` through the stitch.

        Interior nodes pay one tracker column solve plus an ``xᵀMx`` with
        ``x = W_iᵀ A_i⁻¹ e_u``; separator nodes read ``M`` directly; group
        members are 0.  Exact on every backend (column solves are exact even
        when traces are sketched).
        """
        with trace("engine.resistance_to_group"), _op_timer("resistance"):
            key, gs = self._stitched(group)
            node = int(node)
            if node in gs.sset:
                return 0.0
            tcol = gs.tpos.get(node)
            if tcol is not None:
                return float(gs.M[tcol, tcol])
            si = self.partition.home[node]
            shard = self._shards[si]
            if shard is None or si not in gs.trackers:
                raise InvalidParameterError(
                    f"node {node} is not tracked by any shard"
                )
            tracker = gs.trackers[si]
            local = shard.g2l[node]
            base = tracker.resistance_to_group(local)
            if gs.M.size == 0:
                return float(base)
            column = tracker.resistance_column(local)
            x = gs.wcsr(si).T @ column
            return float(base + x @ (gs.M @ x))

    def evaluate_forest(self, group: Sequence[int]) -> float:
        """Pooled-forest estimate of the group CFCC, stitched across shards.

        Per-shard pools estimate the interior traces (weighted trace sums
        simply add); the separator terms ``Tr(M)`` + couplings come from the
        stitch.  The merged effective sample size composes as the ROADMAP
        predicts: per shard ``min(Kish, Σ_b min(w_b, 1))``, then one ``min``
        reduce across shards (the weakest pool governs the estimate); it is
        recorded under ``pool_ess["merged"]`` and in :meth:`pool_health`.
        """
        if not self.graph.is_unit_weighted:
            raise InvalidParameterError(
                "forest evaluation assumes unit edge weights; use mode='exact'"
            )
        with trace("engine.evaluate_forest"), _op_timer("evaluate_forest"):
            key, gs = self._stitched(group)
            cache_key = ("forest", key)
            cached = self._eval_cache.get(cache_key)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.eval_hits += 1
                return cached[1]
            value = self.graph.n / self._stitched_trace(gs, forest=True)
            self.stats.pool_ess["merged"] = self.merged_ess()
            _lru_store(self._eval_cache, cache_key,
                       (self.graph.version, value), self.cache_capacity)
            return value

    def merged_ess(self) -> float:
        """``min_i min(Kish_i, Σ_b min(w_b, 1))`` over all live shard pools."""
        merged = [entry["ess"] for shard in self._shards if shard is not None
                  for entry in shard.engine.pool_health().values()
                  if entry["size"]]
        return min(merged, default=0.0)

    def query(self, k: int, method: str = "schur", eps: float = 0.2,
              evaluate: bool | str = False) -> CFCMResult:
        """CFCM group selection on the current graph (version-cached).

        Selection itself runs the batch algorithm on the global snapshot —
        the sharded layer accelerates the *serving* surface (evaluation,
        resistance, estimator folds); see ``docs/distributed.md``.
        """
        from repro.centrality.api import maximize_cfcc, validate_cfcm_parameters

        k = validate_cfcm_parameters(self.graph.n, k, str(method).lower(),
                                     eps, self.config)
        if not self.graph.is_unit_weighted:
            raise InvalidParameterError(
                "selection queries assume unit edge weights; reset weights "
                "to 1 (weighted graphs are supported for evaluation via "
                "evaluate_exact only)"
            )
        with trace("engine.query", k=k) as span, _op_timer("query"):
            self.sync()
            if evaluate is True:
                evaluate = "exact"
            key = (k, str(method).lower(), round(float(eps), 9),
                   str(evaluate) if evaluate else "")
            cached = self._query_cache.get(key)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.query_hits += 1
                span.set(cache="hit")
                _lru_store(self._query_cache, key, cached,
                           self.cache_capacity)
                return cached[1]
            self.stats.query_misses += 1
            span.set(cache="miss")
            child_seed = int(self.rng.integers(0, 2**62))
            result = maximize_cfcc(self.graph.snapshot(), k, method=method,
                                   eps=eps, seed=child_seed,
                                   config=self.config, evaluate=evaluate)
            mapping = self.graph.snapshot_mapping()
            if int(mapping[-1]) != mapping.size - 1:
                result.group = [int(mapping[node]) for node in result.group]
                for entry in result.iteration_log:
                    if "node" in entry:
                        entry["node"] = int(mapping[entry["node"]])
            _lru_store(self._query_cache, key,
                       (self.graph.version, result), self.cache_capacity)
            return result

    # ---------------------------------------------------------------- health
    def pool_health(self) -> Dict[str, Dict[str, float]]:
        """Shard-prefixed pool health plus the merged-ESS pseudo entry."""
        health: Dict[str, Dict[str, float]] = {}
        total_size = 0.0
        total_capacity = 0.0
        for si, shard in enumerate(self._shards):
            if shard is None:
                continue
            for pool_key, entry in shard.engine.pool_health().items():
                health[f"s{si}:{pool_key}"] = entry
                total_size += entry.get("size", 0.0)
                total_capacity += entry.get("capacity", 0.0)
        if health:
            health["merged"] = {
                "ess": self.merged_ess(),
                "ess_floor": min(entry.get("ess_floor", 0.0)
                                 for k, entry in health.items()
                                 if k != "merged"),
                "size": total_size,
                "capacity": total_capacity,
                "stale_fraction": max(entry.get("stale_fraction", 0.0)
                                      for k, entry in health.items()
                                      if k != "merged"),
            }
        return health
