"""Incremental effective-resistance state under batched edge and node updates.

:class:`IncrementalResistance` maintains the grounded-Laplacian inverse
``inv(L_{-S})`` of a :class:`repro.dynamic.DynamicGraph` for a fixed grounded
group ``S`` — *through* a pluggable :class:`repro.linalg.ResistanceBackend`
rather than one hard-coded representation.  A pending journal suffix is one
low-rank Laplacian perturbation ``B D Bᵀ``, handed to the backend as a single
batch of triples: the ``dense`` backend folds it with an explicit-inverse
Woodbury solve (O(n²t) in one BLAS-3 pass; edge-only journals stay
bit-identical to the historical engine), the ``sparse`` backend accumulates
it as an implicit low-rank correction over a sparse base factor (Õ(m·t)).

Node events take the same route on every backend: the factor keeps its size
between factorisations and a node event becomes rank-(deg+1) triples on it.
A leave of row ``r`` removes each incident edge ``(y, w)`` as ``(r, y, −w)``
(``y`` is ``None`` when grounded) and adds ``(r, None, +1)``, leaving ``r``
an isolated identity row — a *tombstone*.  A join takes the lowest free row
(a tombstone or a spare identity row), clears it with ``(r, None, −1)`` and
adds ``(r, y, +w)`` per edge.  The whole suffix, edge and node events in
journal order, is one ``apply_triples`` call.  Spare rows are lazy: a
tracker starts with none, and only a join that finds no free row
refactorises, appending twice as many spare rows as the joins seen since
the previous factorisation.  Free rows stay inside the tracker:
:attr:`~IncrementalResistance.kept`, :meth:`~IncrementalResistance.trace`
and every query cover live rows only.

Staleness policy
----------------
Low-rank updates are exact in exact arithmetic but accumulate floating-point
drift, and long journals eventually cost more than one clean factorisation.
The tracker therefore refreshes (re-factorises from the current graph state)

* once the update columns absorbed since the last factorisation have
  reached the backend's :attr:`~repro.linalg.ResistanceBackend.break_even`,
  or when one burst alone would pass it.  On the sparse backend that is the
  factor's own estimate (factorisation cost over per-column solve cost), a
  pure function of the factor, so two trackers replaying one journal
  refactorise at the same bursts; on the dense backend, whose updates cost
  the same however many came before, it is a fixed drift budget of 64;
* when a join finds no free row;
* whenever a batch is singular (its capacitance matrix is not invertible),
  which for deletions means the grounded graph lost its last path to ground —
  the connectivity guards of :class:`DynamicGraph` make this rare, but
  grounded *sub*-graphs can still degenerate numerically,
* when the graph compacted its journal past this tracker's synced version
  (the suffix can no longer be replayed).

All query methods synchronise lazily: mutate the graph freely, then call
:meth:`trace` / :meth:`resistance_to_group` and the journal suffix is folded
in on demand.  Removing a *grounded* node invalidates the tracker (its group
no longer exists) and raises :class:`repro.exceptions.GraphError`;
:class:`repro.dynamic.DynamicCFCM` evicts such trackers before they sync.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    BackendUnavailableError,
    ConvergenceError,
    GraphError,
    InvalidParameterError,
    NumericalDriftError,
)
from repro.dynamic.graph import ADD_NODE, REMOVE_NODE, DynamicGraph, GraphUpdate
from repro.linalg.backends import (
    DenseResistanceBackend,
    ResistanceBackend,
    make_resistance_backend,
)
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.resilience.policy import record_failover
from repro.resilience.watchdog import ResidualWatchdog
from repro.utils.faultpoints import fault_point
from repro.utils.timer import clock

_SYNC_SECONDS = REGISTRY.histogram(
    "repro_resistance_sync_seconds",
    "Wall time of one IncrementalResistance journal synchronisation",
)
_SYNC_EVENTS = REGISTRY.histogram(
    "repro_resistance_sync_events",
    "Pending journal events folded per synchronisation",
    buckets=SIZE_BUCKETS,
)
_BACKEND_SYNC_SECONDS = REGISTRY.histogram(
    "repro_backend_sync_seconds",
    "Wall time of one journal synchronisation, split by resistance backend",
    labels=("backend",),
)

# (i, j, delta) in local row indices; j is None for a grounded endpoint.
_Triple = Tuple[int, Optional[int], float]


@dataclass
class ResistanceStats:
    """Counters describing how the incremental state was maintained."""

    rank1_updates: int = 0
    batch_updates: int = 0
    batched_events: int = 0
    node_grows: int = 0
    node_downdates: int = 0
    refreshes: int = 0
    singular_refreshes: int = 0
    drift_refreshes: int = 0
    failovers: int = 0
    events_seen: int = 0


class IncrementalResistance:
    """Maintains ``inv(L_{-S})`` of a dynamic graph across edge/node updates.

    Parameters
    ----------
    graph:
        The dynamic graph to track.
    group:
        Grounded node group ``S`` (non-empty strict subset of the active
        nodes, by stable id).
    backend:
        Resistance backend spec: ``"dense"`` (explicit inverse, the
        default — bit-identical to the historical engine), ``"sparse"``
        (solver-backed, never materialises the inverse), ``"auto"`` (picks
        by graph size/sparsity), or a ready
        :class:`repro.linalg.ResistanceBackend` instance (say, a sparse
        backend with its own probe count and seed).

    Attributes
    ----------
    kept:
        Stable node ids of the tracked (non-grounded) nodes in row order —
        the index of :meth:`diagonal` and :meth:`resistance_column`.  Sorted
        after a factorisation.  A join lands at a free row, possibly
        mid-array.
    """

    def __init__(self, graph: DynamicGraph, group: Sequence[int],
                 backend: Union[str, ResistanceBackend] = "dense",
                 watchdog: Optional[ResidualWatchdog] = None):
        self._install(graph, group, make_resistance_backend(
            backend, n=graph.n, m=graph.m), watchdog)
        self._factorize()

    @classmethod
    def _restored(cls, graph: DynamicGraph, group: Sequence[int],
                  backend: ResistanceBackend,
                  watchdog: Optional[ResidualWatchdog] = None,
                  ) -> "IncrementalResistance":
        """A tracker around ``backend`` that has factorised nothing yet.

        Checkpoint restore builds trackers here and then installs the stored
        factor and row table, so no factorisation is thrown away.
        """
        tracker = cls.__new__(cls)
        tracker._install(graph, group, backend, watchdog)
        return tracker

    def _install(self, graph: DynamicGraph, group: Sequence[int],
                 backend: ResistanceBackend,
                 watchdog: Optional[ResidualWatchdog]) -> None:
        self.graph = graph
        self.group = list(graph.validate_group(group))
        self.backend = backend
        self.watchdog = watchdog
        self.stats = ResistanceStats()
        self._updates_since_refresh = 0
        self._joins = 0
        self._synced_version = -1
        self._probing = False

    @property
    def kept(self) -> np.ndarray:
        """Stable ids of the live rows, in row order (see the class docstring)."""
        return self._rows if self._live is None else self._rows[self._live]

    # ---------------------------------------------------------------- syncing
    def sync(self) -> "IncrementalResistance":
        """Fold any pending journal events into the inverse; returns ``self``.

        The whole suffix, edge and node events in journal order, is one
        batch of triples.  Any singular update falls back to a fresh
        factorisation of the current state.
        """
        graph = self.graph
        if self._synced_version < graph.version:
            pending = graph.version - self._synced_version
            start = clock()
            with trace("resistance.sync", pending=pending, backend=self.backend.name):
                try:
                    self._sync_pending(graph)
                finally:
                    if REGISTRY.enabled:
                        elapsed = clock() - start
                        _SYNC_SECONDS.observe(elapsed)
                        _SYNC_EVENTS.observe(pending)
                        _BACKEND_SYNC_SECONDS.observe(elapsed, backend=self.backend.name)
        if (self.watchdog is not None and not self._probing
                and self.watchdog.tick()):
            self._probing = True
            try:
                self.verify(repair=True)
            finally:
                self._probing = False
        return self

    def _sync_pending(self, graph: DynamicGraph) -> None:
        """The replay half of :meth:`sync` (pending events guaranteed)."""
        if self._synced_version < graph.journal_floor:
            # The suffix we need was compacted away; rebuild from scratch.
            self._refresh()
            return
        events = graph.journal_since(self._synced_version)
        self.stats.events_seen += len(events)

        # Edge events touching at least one kept row are relevant
        # (grounded–grounded edges never enter L_{-S}), and so is every node
        # event.  Group membership is fixed, so relevance is decided up front.
        grounded = set(self.group)
        relevant: List[GraphUpdate] = []
        for event in events:
            if event.is_node_event:
                if event.node in grounded:
                    raise GraphError(
                        f"grounded node {event.node} was removed from the "
                        f"graph; the tracked group {self.group} no longer exists"
                    )
                relevant.append(event)
            elif event.u not in grounded or event.v not in grounded:
                relevant.append(event)
        try:
            folded = self._absorb(relevant)
        except (InvalidParameterError, ConvergenceError) as exc:
            # Singular capacitance or a solver that failed mid-batch: the
            # backend contract guarantees nothing was committed, so a fresh
            # factorisation of the current state is always a valid answer.
            self._refresh()
            if isinstance(exc, InvalidParameterError):
                self.stats.singular_refreshes += 1
            return
        if folded:
            self._synced_version = graph.version
        else:
            self._refresh()

    def _absorb(self, events: List[GraphUpdate]) -> bool:
        """Fold the whole suffix in as one batch of triples.

        Folds nothing and returns False when a join finds no free row, when
        the columns absorbed since the last factorisation have reached the
        backend's break-even, or when this burst alone would pass it.
        """
        joins = sum(event.kind == ADD_NODE for event in events)
        self._joins += joins
        batch = self._node_triples(events)
        if batch is None:
            return False
        triples, rows, local = batch
        limit = self.backend.break_even
        if triples and (self._updates_since_refresh >= limit
                        or len(triples) > limit):
            return False
        self._apply_triples(triples)
        self._adopt_rows(rows, local)
        self.stats.node_grows += joins
        self.stats.node_downdates += sum(event.kind == REMOVE_NODE
                                         for event in events)
        return True

    def _node_triples(self, events: List[GraphUpdate]
                      ) -> Optional[Tuple[List[_Triple], np.ndarray,
                                          Dict[int, int]]]:
        """The suffix as triples on the fixed-size row table, in journal order.

        Returns the triples with the row table and id → row map they leave
        behind, or ``None`` when a join finds no free row.  A leave frees
        its row as a tombstone, which a later join in the suffix may take.
        """
        rows = self._rows.copy()
        local = dict(self._local)
        free = np.flatnonzero(rows < 0).tolist()  # ascending, so a heap
        triples: List[_Triple] = []
        for event in events:
            if not event.is_node_event:
                triples.append(_edge_triple(event, local))
                continue
            node = int(event.node)
            if event.kind == ADD_NODE:
                if not free:
                    return None
                row = heapq.heappop(free)
                rows[row] = node
                local[node] = row
                triples.append((row, None, -1.0))
                triples.extend((row, local.get(neighbour), weight)
                               for neighbour, weight in event.edges)
            else:
                row = local.pop(node)
                triples.extend((row, local.get(neighbour), -weight)
                               for neighbour, weight in event.edges)
                triples.append((row, None, 1.0))
                rows[row] = -1
                heapq.heappush(free, row)
        return triples, rows, local

    # ---------------------------------------------------------------- queries
    def trace(self) -> float:
        """Current ``Tr(inv(L_{-S})) = Σ_u R(u, S)`` (synchronises first).

        Backends serving sketched diagonals (sparse, large n) return the
        Hutchinson estimate here; pass exactness concerns through
        :meth:`diagonal` with ``mode="exact"`` instead.
        """
        self.sync()
        if self._live is None:
            return self.backend.trace()
        # Free rows are skipped, not counted as 1 each: a sketched estimate
        # of a tombstone's diagonal is only approximately 1.
        return float(self.backend.diagonal()[self._live].sum())

    def group_cfcc(self) -> float:
        """Current group CFCC ``C(S) = n / Tr(inv(L_{-S}))``."""
        return self.graph.n / self.trace()

    def diagonal(self, mode: str = "auto") -> np.ndarray:
        """Diagonal of the current inverse, indexed by :attr:`kept`.

        ``mode`` selects the backend's policy: ``"exact"`` forces the
        escape hatch (n solves on solver-backed engines), ``"sketch"`` a
        Hutchinson estimate where supported, ``"auto"`` the backend default.
        """
        self.sync()
        values = self.backend.diagonal(mode=mode)
        return values if self._live is None else values[self._live]

    def resistance_to_group(self, node: int) -> float:
        """Effective resistance ``R(u, S)`` of one node to the grounded group."""
        node = self.graph._check_active(node)
        self.sync()
        local = self._local.get(node)
        if local is None:
            return 0.0
        return self.backend.diag_entry(local)

    def resistance_column(self, node: int) -> np.ndarray:
        """Column of ``inv(L_{-S})`` for one kept node, by stable id.

        Indexed by :attr:`kept`.  Lazily materialised and version-cached by
        the backend, so repeated single-column walks only pay for the
        columns they actually touch.  The all-grounded convention returns a
        zero column.
        """
        node = self.graph._check_active(node)
        self.sync()
        local = self._local.get(node)
        if local is None:
            return np.zeros(len(self.kept), dtype=np.float64)
        column = np.asarray(self.backend.column(local), dtype=np.float64)
        return column.copy() if self._live is None else column[self._live]

    @property
    def inverse(self) -> np.ndarray:
        """The explicit dense inverse over the live rows, indexed by :attr:`kept`.

        Dense backend only.  The sparse backend never materialises it;
        callers needing matrix entries should go through :meth:`diagonal` /
        :meth:`resistance_column` instead.
        """
        if isinstance(self.backend, DenseResistanceBackend):
            inverse = self.backend.inverse
            if self._live is None:
                return inverse
            return inverse[np.ix_(self._live, self._live)]
        raise InvalidParameterError(
            f"backend {self.backend.name!r} does not materialise the dense "
            f"inverse; query diagonal()/resistance_column() instead"
        )

    @property
    def synced_version(self) -> int:
        """Graph version the inverse currently reflects."""
        return self._synced_version

    # ----------------------------------------------------- numerical health
    def verify(self, threshold: Optional[float] = None,
               repair: bool = True) -> float:
        """Probe the backward residual ``max|L_{-S}(B⁻¹e) − e|`` of the state.

        Solves one sampled unit system against the tracked factorisation and
        measures the residual against the *actual* grounded Laplacian of the
        current graph, in the factor's row layout (free rows included, as
        the identity rows they should be).  Past ``threshold`` (default: the
        watchdog's, else ``1e-6``), ``repair=True`` refactorises the current
        graph while ``repair=False`` raises
        :class:`repro.exceptions.NumericalDriftError`.  Returns the observed
        residual (``inf`` when the solver could not even answer the probe).
        """
        self.sync()
        if threshold is None:
            threshold = (self.watchdog.threshold if self.watchdog is not None
                         else 1e-6)
        n = self.backend.n
        if n == 0:
            return 0.0
        row = (self.watchdog.pick_row(n) if self.watchdog is not None else 0)
        unit = np.zeros(n, dtype=np.float64)
        unit[row] = 1.0
        try:
            solution = self.backend.solve(unit)
            matrix = self._grounded_matrix()
            residual = float(np.max(np.abs(matrix @ solution - unit)))
        except ConvergenceError:
            residual = float("inf")
        if self.watchdog is not None:
            self.watchdog.record(residual, group=self._group_label())
        if residual > threshold:
            if not repair:
                raise NumericalDriftError(
                    f"tracked inverse drifted: probe residual {residual:.3e} "
                    f"exceeds threshold {threshold:.3e}",
                    residual=residual, threshold=threshold,
                )
            if self.watchdog is not None:
                self.watchdog.count_trip()
            self._refresh()
            self.stats.drift_refreshes += 1
        return residual

    def _group_label(self) -> str:
        return ",".join(str(int(node)) for node in self.group)

    def _grounded_matrix(self):
        """The current grounded Laplacian in the backend's row layout."""
        graph = self.graph
        mapping = graph.snapshot_mapping()
        position = {int(x): i for i, x in enumerate(mapping)}
        kept = self.kept
        rows = np.fromiter((position[int(x)] for x in kept),
                           dtype=np.int64, count=len(kept))
        full = graph.laplacian_sparse()
        return _embed(full[rows][:, rows].tocsr(), self._rows)

    # -------------------------------------------------------------- internals
    def _apply_triples(self, triples: List[_Triple]) -> None:
        if not triples:
            return
        self.backend.apply_triples(triples)
        fault_point("backend.drift", subject=self.backend)
        if len(triples) == 1:
            self.stats.rank1_updates += 1
        else:
            self.stats.batch_updates += 1
            self.stats.batched_events += len(triples)
        self._updates_since_refresh += len(triples)

    def _adopt_rows(self, rows: np.ndarray,
                    local: Optional[Dict[int, int]] = None) -> None:
        """Install a row table: the node id of each backend row, -1 if free."""
        self._rows = rows
        self._local = (local if local is not None else
                       {x: r for r, x in enumerate(rows.tolist()) if x >= 0})
        live = rows >= 0
        self._live = None if live.all() else np.flatnonzero(live)
        self.backend.free_rows = int(live.size - np.count_nonzero(live))

    def _refresh(self) -> None:
        """Refactorise from the current graph state, counted as a refresh."""
        self._factorize()
        self.stats.refreshes += 1

    def _factorize(self, spares: Optional[int] = None) -> None:
        """Factorise the current graph state, with ``spares`` free rows appended.

        ``spares`` defaults to twice the joins seen since the previous
        factorisation.
        """
        graph = self.graph
        if spares is None:
            spares = 2 * self._joins
        mapping = graph.snapshot_mapping()
        missing = [node for node in self.group if not graph.has_node(node)]
        if missing:
            raise GraphError(
                f"grounded node(s) {missing} were removed from the graph; the "
                f"tracked group {self.group} no longer exists"
            )
        grounded = set(self.group)
        keep_mask = np.array([int(x) not in grounded for x in mapping])
        positions = np.flatnonzero(keep_mask)
        rows = np.concatenate([mapping[keep_mask].astype(np.int64),
                               np.full(spares, -1, dtype=np.int64)])
        if self.backend.wants_sparse:
            full = graph.laplacian_sparse()
            matrix = full[positions][:, positions].tocsc()
        else:
            full = graph.laplacian_dense()
            matrix = full[np.ix_(positions, positions)]
        matrix = _embed(matrix, rows)
        try:
            self.backend.factorize(matrix)
        except (RuntimeError, ConvergenceError, InvalidParameterError,
                np.linalg.LinAlgError) as exc:
            self._failover(matrix, exc)
        self._adopt_rows(rows)
        self._updates_since_refresh = 0
        self._joins = 0
        self._synced_version = graph.version

    def _failover(self, matrix, exc: Exception) -> None:
        """Degrade after a failed factorisation: sparse → dense, dense → retry.

        ``matrix`` is laid out on the row table, spare rows included, so the
        fallback keeps the failed backend's layout.  The failed backend
        committed nothing (its factorize raises before swapping state in),
        so retrying — on the dense fallback, or once more on the dense
        backend itself — is always sound.  A second failure is terminal:
        :class:`BackendUnavailableError`.
        """
        failed = self.backend.name
        fallback = (self.backend if isinstance(self.backend, DenseResistanceBackend)
                    else DenseResistanceBackend())
        try:
            fallback.factorize(matrix)
        except (RuntimeError, ConvergenceError, InvalidParameterError,
                np.linalg.LinAlgError) as retry_exc:
            raise BackendUnavailableError(
                f"factorisation failed on backend {failed!r} and on the "
                f"dense fallback: {retry_exc}"
            ) from exc
        self.backend = fallback
        self.stats.failovers += 1
        record_failover(failed)


def _edge_triple(event: GraphUpdate, local: Dict[int, int]) -> _Triple:
    """One relevant edge event as ``(i, j, δ)``; ``j`` is None when grounded."""
    i = local.get(event.u, -1)
    j = local.get(event.v, -1)
    if i < 0:
        i, j = j, -1
    return (i, None if j < 0 else j, event.delta)


def _embed(matrix, rows: np.ndarray):
    """``matrix`` (over the live rows) laid out on the row table ``rows``.

    Free rows (``rows < 0``) hold an isolated identity row — the state of a
    spare row or a tombstone.  Without free rows ``matrix`` is returned as is.
    """
    free = np.flatnonzero(rows < 0)
    if free.size == 0:
        return matrix
    live = np.flatnonzero(rows >= 0)
    coo = sp.coo_matrix(matrix)
    return sp.csc_matrix(
        (np.concatenate([coo.data, np.ones(free.size)]),
         (np.concatenate([live[coo.row], free]),
          np.concatenate([live[coo.col], free]))),
        shape=(rows.size, rows.size),
    )
