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
every backend.  The cross terms are solved exactly on dense backends or up to
:data:`EXACT_COUPLING_ROWS` kept rows per shard and Hutchinson-sketched beyond
(the sparse backend's own trace convention).

**Deferred stitching.**  Events are O(1) at update time: the engine
classifies each journal event and forwards it to the owning shard's mirror;
all Schur maintenance waits until a query folds the pending burst.  A fold
over ``k`` events on shard ``i`` syncs the tracker (``A_i,old → A_i,new``
with ``A_new = A_old + B D Bᵀ``), recovers the *pre*-burst inverse through
one Woodbury identity

    ``A_old⁻¹ = A_new⁻¹ + V H Vᵀ``, ``V = A_new⁻¹B``, ``H = (D⁻¹ − BᵀV)⁻¹``

(the sparse backend hands ``V`` over for free from its accumulated
correction columns — :meth:`ResistanceBackend.correction_columns`), and
derives the change of the coupling block exactly::

    C_new = C_old − G H Gᵀ + (E + Eᵀ) − F,   G = W_oldᵀV,
    E = ΔWᵀA_new⁻¹W_new,  F = ΔWᵀA_new⁻¹ΔW

where ``ΔW`` collects the burst's interior–separator weight changes (a few
extra column solves at most).  Every term is low rank, so the Schur
complement moves by ``P Λ Pᵀ = −ΔC_i`` and ``M`` follows by one block
Woodbury — never a fresh ``|T'|³`` inversion on the hot path (``M`` is
recomputed from the exactly-maintained ``S_c`` every
:data:`SCHUR_REFRESH_RANK` folded ranks, which keeps float drift bounded).

Separator–separator events never touch a shard: they fold into ``L_TT``
(rank one each).  Node events and cross-part interior edge insertions are
*structural*: the engine re-partitions from inherited homes and rebuilds the
shards (forest pools restart; everything exact is rebuilt from the graph).

Per-shard folds and traces run back to back in shard order.  The sharding
win comes from solver locality, not parallelism: factor and solve costs
scale superlinearly in n, so four quarter-sized trackers beat one full-sized
one even serially.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.centrality.estimators import SamplingConfig
from repro.centrality.result import CFCMResult
from repro.distributed.partition import Partition, partition_graph, repartition
from repro.distributed.shard import ShardState
from repro.dynamic.engine import EngineStats, QueryFront, _lru_store, _op_timer
from repro.dynamic.graph import REMOVE, DynamicGraph, GraphUpdate
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.solvers import SOLVE_BLOCK
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import trace
from repro.utils.rng import RandomState, as_rng
from repro.utils.timer import clock
from repro.utils.validation import check_integer

#: Kept rows per shard up to which the cross term ``Tr(M·W_iᵀA_i⁻²W_i)`` is
#: solved exactly (dense backends always are); larger shards sketch it.
EXACT_COUPLING_ROWS = 2048
#: Folded rank after which ``M`` is recomputed from the Schur complement.
SCHUR_REFRESH_RANK = 512
#: Pending events beyond which a lagging group state is rebuilt, not folded.
MAX_GROUP_LAG = 4096

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


class _ShardCoupling:
    """One shard's side of a group stitch: its tracker and coupling ``W_i``.

    ``rows`` maps the global id of every kept row (the shard's interior
    minus the group) to its tracker row; ``w`` holds ``W_i`` as
    ``{(row, tcol): -w}`` over ``T'`` positions, and :attr:`csr` is a CSR
    view of it that :meth:`shift` drops whenever an entry changes, along
    with the solved block of :meth:`coupling_block`.

    Tracker rows and ``kept`` positions coincide: shard trackers only ever
    see edge events (the engine rebuilds on node events), so their factors
    never carry spare or tombstoned rows (``backend.n == len(kept)``).
    """

    def __init__(self, shard: ShardState, tracker, tp: int):
        self.shard = shard
        self.tracker = tracker
        self.kept = np.asarray(tracker.kept, dtype=np.int64).copy()
        assert tracker.backend.n == len(self.kept)
        members = np.asarray(shard.l2g, dtype=np.int64)[self.kept]
        self.rows: Dict[int, int] = dict(zip(members.tolist(),
                                             range(len(self.kept))))
        self.w: Dict[Tuple[int, int], float] = {}
        self.tp = tp
        self._csr: Optional[sp.csr_matrix] = None
        # ((backend, epoch), solve_active() result) of the kept block.
        self._solved: Optional[tuple] = None

    @property
    def csr(self) -> sp.csr_matrix:
        """``W_i`` as CSR (rows = kept order, cols = ``T'`` positions)."""
        if self._csr is None:
            shape = (len(self.kept), self.tp)
            if self.w:
                rows, cols, vals = zip(*[(r, a, v)
                                         for (r, a), v in self.w.items()])
                self._csr = sp.csr_matrix((vals, (rows, cols)), shape=shape)
            else:
                self._csr = sp.csr_matrix(shape, dtype=np.float64)
        return self._csr

    def shift(self, row: int, tcol: int, event: GraphUpdate,
              dw: Dict[Tuple[int, int], float]) -> None:
        """Apply ``event`` to ``W_i`` eagerly and add its ΔW entry to ``dw``."""
        key = (row, tcol)
        delta_w = -event.delta  # W entries hold -w
        dw[key] = dw.get(key, 0.0) + delta_w
        if event.kind == REMOVE:
            self.w.pop(key, None)  # exact zero, no float residue
        else:
            self.w[key] = self.w.get(key, 0.0) + delta_w
        self._csr = self._solved = None

    def solve_active(self) -> Tuple[List[int], sp.csr_matrix, np.ndarray]:
        """``(active, W_a, A_i⁻¹W_a)`` over the nonzero columns of ``W_i``.

        Columns with no incident interior edge are identically zero, so only
        the shard-adjacent separator columns are densified and solved
        (``SOLVE_BLOCK`` at a time) — on strip-like partitions a small
        fraction of ``|T'|``.  ``W_a`` stays sparse: a column holds one
        entry per interior neighbour of its separator node.
        """
        backend = self.tracker.backend
        active = sorted({a for (_, a) in self.w})
        w_a = self.csr[:, active]
        solved = np.empty((backend.n, len(active)), dtype=np.float64)
        for lo in range(0, len(active), SOLVE_BLOCK):
            block = slice(lo, lo + SOLVE_BLOCK)
            solved[:, block] = backend.solve_many(w_a[:, block].toarray())
        return active, w_a, solved

    def coupling_block(self) -> Tuple[List[int], sp.csr_matrix, np.ndarray]:
        """:meth:`solve_active`, kept while ``W_i``, the backend and its epoch
        (bumped by every mutation and refactorisation) stay unchanged where
        the cross term is exact, which reads the block after ``S_c`` does."""
        backend = self.tracker.backend
        stamp = (backend, backend._epoch)
        if self._solved is None or self._solved[0] != stamp:
            if not self._exact:
                return self.solve_active()
            self._solved = (stamp, self.solve_active())
        return self._solved[1]

    @property
    def _exact(self) -> bool:
        """Whether :meth:`coupling_trace` solves its cross term exactly."""
        backend = self.tracker.backend
        return backend.name == "dense" or backend.n <= EXACT_COUPLING_ROWS

    def fold(self, triples: List[Tuple[int, Optional[int], float]],
             dwsum: Dict[Tuple[int, int], float]
             ) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's fold: ``(P, Λ)`` with ``ΔSchur_i = P Λ Pᵀ = −ΔC_i``.

        Derivation in the module docstring; every piece is assembled as
        symmetric rank-one factors so the caller can apply one block
        Woodbury to ``M`` and an exact dense update to the Schur complement.
        """
        tracker = self.tracker
        tracker.sync()
        if not np.array_equal(np.asarray(tracker.kept, dtype=np.int64),
                              self.kept):
            raise _StitchInvalid("kept-row order moved under the coupling")
        backend = tracker.backend
        assert backend.n == len(self.kept)
        tp = self.tp
        n = len(self.kept)
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
            g = self.csr.T @ v  # W_newᵀ V
            for (row, tcol), dw_val in dwsum.items():
                g[tcol, :] -= dw_val * v[row, :]  # back out ΔW: G = W_oldᵀV
            hvals, q = np.linalg.eigh(h)
            cols.append(np.asarray(g @ q))
            lams.append(hvals)

        if dwsum:
            csr = self.csr
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

    def coupling_trace(self, m: np.ndarray) -> float:
        """``Tr(M · W_iᵀ A_i⁻² W_i)`` — the interior↔separator cross term.

        Exact on dense backends or up to :data:`EXACT_COUPLING_ROWS` kept
        rows; beyond, a Hutchinson sketch over the backend's probe block.
        """
        if m.size == 0 or not self.w:
            return 0.0
        if self._exact:
            active, _, solved = self.coupling_block()
            return float(np.sum(m[np.ix_(active, active)]
                                * (solved.T @ solved)))
        _, y = self.tracker.backend.probe_block()
        g = self.csr.T @ y  # (tp, probes)
        return float(np.mean(np.sum(g * (m @ g), axis=0)))


class _GroupState:
    """Stitch state of one grounded group ``S``.

    Arrays are indexed by ``tprime`` position (the sorted live separator
    ``T \\ S``): the Schur complement ``schur``, its inverse ``M``, and
    ``rank_folded``, the rank folded into ``M`` since it was last
    recomputed.  ``cursor`` points into the engine's event log: everything
    before it is folded in.  ``links`` holds one :class:`_ShardCoupling` per
    shard whose interior is not fully grounded, in shard order.
    """

    def __init__(self, engine: "ShardedCFCM", key: Tuple[int, ...]):
        self.key = key
        self.sset = frozenset(key)
        graph = engine.graph
        self.tprime: Tuple[int, ...] = tuple(
            t for t in engine.partition.separator if t not in self.sset
        )
        self.tpos: Dict[int, int] = {t: i for i, t in enumerate(self.tprime)}
        tp = len(self.tprime)
        self.links: Dict[int, _ShardCoupling] = {}
        for si, shard in enumerate(engine._shards):
            if shard is None:
                continue
            grounded = shard.grounded_group(key)
            if len(grounded) >= shard.mirror.n:
                continue  # interior fully grounded: contributes nothing
            tracker = shard.engine.tracker(grounded)
            tracker.sync()
            self.links[si] = _ShardCoupling(shard, tracker, tp)

        # Grounded separator block of the *global* Laplacian (full weighted
        # degrees on the diagonal, -w couplings inside T'); every other edge
        # of a T' node that reaches a kept row is an entry of that shard's W.
        # Each edge is seen from each T' end ``a`` with its other end ``nb``,
        # in (a, nb) order: the order neighbors() lists them in, which the
        # degree sums keep bit for bit.
        u, v, w = graph.edge_arrays()
        bound = int(graph.node_ids()[-1]) + 1
        pos = np.full(bound, -1, dtype=np.int64)
        pos[list(self.tprime)] = np.arange(tp)
        ends, others = np.concatenate([u, v]), np.concatenate([v, u])
        seen = pos[ends] >= 0
        a, nb, w = pos[ends[seen]], others[seen], np.concatenate([w, w])[seen]
        order = np.lexsort((nb, a))
        a, nb, w = a[order], nb[order], w[order]
        schur = np.zeros((tp, tp), dtype=np.float64)
        schur[np.diag_indices(tp)] = np.bincount(a, weights=w, minlength=tp)
        b = pos[nb]
        inside = b >= 0
        schur[a[inside], b[inside]] = -w[inside]
        row_of = np.full(bound, -1, dtype=np.int64)
        link_of = np.full(bound, -1, dtype=np.int64)
        for si, link in self.links.items():
            members = np.fromiter(link.rows, dtype=np.int64,
                                  count=len(link.rows))
            row_of[members] = np.arange(members.size)
            link_of[members] = si
        coupled = ~inside & (row_of[nb] >= 0)
        for si, row, col, val in zip(link_of[nb[coupled]].tolist(),
                                     row_of[nb[coupled]].tolist(),
                                     a[coupled].tolist(),
                                     (-w[coupled]).tolist()):
            self.links[si].w[(row, col)] = val
        for link in self.links.values():
            if tp and link.w:
                active, w_a, solved = link.coupling_block()
                schur[np.ix_(active, active)] -= np.asarray(w_a.T @ solved)
        self.schur = schur
        self.M = (np.linalg.inv(schur) if tp
                  else np.zeros((0, 0), dtype=np.float64))
        self.cursor = engine._event_end
        self.rank_folded = 0


class ShardedCFCM(QueryFront):
    """Drop-in sharded counterpart of :class:`repro.dynamic.DynamicCFCM`.

    ``query`` and ``evaluate`` are the single engine's own
    (:class:`repro.dynamic.engine.QueryFront`); exact reads, resistances
    and forest estimates are stitched from one tracker and one forest pool
    per shard.  The stitch follows fixed rules: cross terms are exact on
    dense backends or up to :data:`EXACT_COUPLING_ROWS` kept rows per shard
    and sketched beyond (per-node resistances are exact everywhere); ``M``
    is recomputed from the Schur complement every
    :data:`SCHUR_REFRESH_RANK` folded ranks; a group state lagging more
    than :data:`MAX_GROUP_LAG` events is rebuilt instead of folded forward.

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
        Re-partitions after structural events inherit homes instead
        (:func:`repro.distributed.partition.repartition`).
    executor:
        Only ``"serial"`` is accepted: per-shard folds and traces run back
        to back in shard order.
    seed, config, pool_size, cache_capacity, ess_floor, backend:
        Forwarded to the per-shard :class:`DynamicCFCM` engines (pools run
        with adaptive ESS floors; trackers refactorise at their backend's
        break-even).
    """

    def __init__(self, graph: DynamicGraph | Graph, shards: int = 2,
                 seed: RandomState = None,
                 config: Optional[SamplingConfig] = None,
                 pool_size: int = 24, cache_capacity: int = 16,
                 ess_floor: float = 0.5,
                 backend: str = "auto",
                 executor: str = "serial", seeds: Sequence[int] = ()):
        if str(executor).lower() != "serial":
            raise InvalidParameterError(
                f"unknown executor {executor!r} (only 'serial' is supported)"
            )
        if isinstance(graph, Graph):
            graph = DynamicGraph(graph)
        self.graph = graph
        self.shards = check_integer("shards", shards, minimum=1)
        self.rng = as_rng(seed)
        self.config = config
        self.pool_size = check_integer("pool_size", pool_size, minimum=1)
        self.cache_capacity = check_integer(
            "cache_capacity", cache_capacity, minimum=1)
        self.ess_floor = float(ess_floor)
        self.backend = backend
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
            partition = repartition(graph, self.partition)
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
                cache_capacity=self.cache_capacity, ess_floor=self.ess_floor,
                backend=self.backend,
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
        """No-op: the engine holds no workers or other releasable resources."""

    # ----------------------------------------------------------- composition
    @property
    def pending_events(self) -> int:
        return self.graph.version - self._synced_version

    @property
    def _event_end(self) -> int:
        return self._event_base + len(self._event_log)

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
        sep = self.partition.separator_set
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
                               > MAX_GROUP_LAG):
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
            sep = self.partition.separator_set
            home = self.partition.home
            for event in events:
                a = gs.tpos.get(event.u)
                b = gs.tpos.get(event.v)
                if a is not None and b is not None:
                    tt_edges.append((a, b, event.delta))
                    continue
                tcol = a if a is not None else b
                if tcol is not None:
                    diag[tcol] = diag.get(tcol, 0.0) + event.delta
                u_sep = event.u in sep
                if u_sep and event.v in sep:
                    continue
                si = home[event.v] if u_sep else home[event.u]
                link = gs.links.get(si)
                if link is None:
                    continue
                # Tracker rows in the orientation of the tracker's own edge
                # triples (repro.dynamic.resistance._edge_triple), so fold
                # columns line up with the backend's accumulated correction
                # columns.
                i = link.rows.get(event.u)
                j = link.rows.get(event.v)
                if i is None:
                    i, j = j, None
                if i is None:
                    continue  # grounded-only for this group
                triples.setdefault(si, []).append((i, j, event.delta))
                if tcol is not None:
                    # A T'-interior edge: ``i`` is the interior's kept row.
                    link.shift(i, tcol, event, dwsum.setdefault(si, {}))

            # --- per-shard folds, then one block Woodbury on M ------------
            cols: List[np.ndarray] = []
            lams: List[np.ndarray] = []
            for si in sorted(triples):
                fold_start = clock()
                with trace("shard_sync", shard=si, events=len(triples[si])):
                    p_block, lam_block = gs.links[si].fold(
                        triples[si], dwsum.get(si, {}))
                if REGISTRY.enabled:
                    _SYNC_SECONDS.observe(clock() - fold_start, shard=str(si))
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
            p_all = np.concatenate(cols, axis=1) if cols else np.zeros((tp, 0))
            lam = np.concatenate(lams) if lams else np.zeros(0)
            keep = lam != 0.0
            p_all, lam = p_all[:, keep], lam[keep]
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
                if gs.rank_folded >= SCHUR_REFRESH_RANK:
                    _SCHUR_REFRESHES_TOTAL.inc()
                    gs.M = np.linalg.inv(gs.schur)
                    gs.rank_folded = 0
            span.set(rank=int(lam.size), shards=len(triples))
            gs.cursor = self._event_end
        if REGISTRY.enabled:
            _STITCH_SECONDS.observe(clock() - start)

    # --------------------------------------------------------------- queries
    def evaluate_exact(self, group: Sequence[int]) -> float:
        """Group CFCC via the stitched per-shard inverses.

        Exactness matches the configured backends: dense backends give the
        reference value to float precision; sparse backends serve their
        (deterministic) Hutchinson trace for the interior terms, the same
        convention the single-tracker engine follows at that scale.
        """
        with trace("engine.evaluate_exact"), _op_timer("evaluate_exact"):
            return self._cached_cfcc(group, forest=False)

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
            return self._cached_cfcc(group, forest=True)

    def _cached_cfcc(self, group: Sequence[int], forest: bool) -> float:
        """Stitched group CFCC, memoised per graph version.

        The group-state lookup in :meth:`_stitched` is the one hit/miss
        this read counts in :attr:`stats`.
        """
        key, gs = self._stitched(group)
        cache_key = ("forest" if forest else "exact", key)
        cached = self._eval_cache.get(cache_key)
        if cached is not None and cached[0] == self.graph.version:
            return cached[1]
        value = self.graph.n / self._stitched_trace(gs, forest)
        if forest:
            self.stats.pool_ess["merged"] = self.merged_ess()
        _lru_store(self._eval_cache, cache_key,
                   (self.graph.version, value), self.cache_capacity)
        return value

    def _stitched_trace(self, gs: _GroupState, forest: bool) -> float:
        """``Tr(L_{-S}⁻¹)`` = interior traces + ``Tr(M)`` + couplings."""
        parts = []
        for _, link in sorted(gs.links.items()):
            if forest:
                shard = link.shard
                value = shard.engine.evaluate_forest(
                    shard.grounded_group(gs.key))
                interior = shard.mirror.n / value
            else:
                interior = link.tracker.trace()
            parts.append(interior + link.coupling_trace(gs.M))
        return float(sum(parts) + np.trace(gs.M))

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
            link = gs.links.get(self.partition.home[node])
            if link is None:
                raise InvalidParameterError(
                    f"node {node} is not tracked by any shard"
                )
            local = link.shard.g2l[node]
            base = link.tracker.resistance_to_group(local)
            if gs.M.size == 0:
                return float(base)
            x = link.csr.T @ link.tracker.resistance_column(local)
            return float(base + x @ (gs.M @ x))

    def merged_ess(self) -> float:
        """``min_i min(Kish_i, Σ_b min(w_b, 1))`` over all live shard pools."""
        merged = [entry["ess"] for shard in self._shards if shard is not None
                  for entry in shard.engine.pool_health().values()
                  if entry["size"]]
        return min(merged, default=0.0)

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
