"""Importance-weighted pools of rooted spanning forests.

Monte Carlo consumers that survive graph mutations (the dynamic engine's
:meth:`~repro.dynamic.DynamicCFCM.evaluate_forest`, and through it the async
service) keep a *pool* of sampled forests per root set.  Before
this module, pools were lists of :class:`~repro.sampling.forest.Forest`
objects that were flushed wholesale whenever the graph drifted: edge
insertions bumped a crude drift counter, node insertions and reweights threw
every stored sample away.

:class:`WeightedForestPool` replaces that policy with importance weighting
over one :class:`~repro.sampling.batch.ForestBatch`-backed ``(B, n)`` parent
matrix.  Every stored forest carries a **log importance weight relative to a
forest freshly drawn from the current graph's rooted-forest distribution**
(fresh draws enter at log-weight 0).  Mutations update weights instead of
flushing:

* **edge removal** — forests whose parent pointers use the edge have density
  zero under the new distribution and are dropped; the survivors are exact
  samples of the new distribution (for unit weights, forests of ``G - e``
  are exactly the forests of ``G`` avoiding ``e``, and conditioning a
  uniform sample is exact), so their weights are untouched;
* **edge reweighting** — the rooted-forest density is ``∏_{e ∈ F} w_e`` up
  to normalisation, so a forest using the edge is reweighted by the exact
  ratio ``w'_e / w_e``.  A reweight that later returns to the old weight
  cancels exactly — pools survive transient weight excursions that used to
  force a flush.  (The normalisation ratio ``Z/Z'`` is common to all stored
  forests and cancels under self-normalisation whenever the pool is
  evaluated at unit weights, the only regime the estimators accept.)
* **edge insertion** — stored forests cannot use the new edge, so they are
  samples of the new distribution *conditioned on avoiding it* — correct on
  their stratum, but blind to the forests that use the edge.  Every stored
  forest is therefore down-weighted by ``1 - β̂`` where ``β̂`` is a cheap
  prior for the new edge's forest-inclusion probability
  (:func:`edge_inclusion_prior`); the missing stratum is progressively
  covered by fresh top-up draws, which enter at weight 1 and dominate the
  self-normalised estimate as churn accumulates.
* **node insertion** — a rooted forest of ``G + z`` in which ``z`` is a leaf
  is exactly a forest of ``G`` plus an independent choice of ``z``'s parent
  (drawn ∝ attachment weight), so every stored forest is *extended* in
  place (:meth:`extend_leaf`).  The missing stratum (forests where ``z`` is
  internal) is handled like an insertion: a conservative down-weight plus
  fresh draws.  Insertions never force a flush.

**Effective sample size.**  The pool's health metric is
``ess = min(Kish, Σ_i min(w_i, 1))`` — the classical Kish effective sample
size ``(Σw)² / Σw²`` (variance inflation from weight skew) capped by the
*fidelity mass* ``Σ min(w_i, 1)`` (how many perfectly fresh samples the pool
is worth; a uniformly stale pool scales Kish-invariantly, which is exactly
the failure mode the cap catches).  A fresh pool has ``ess == size``.  The
refresh policy (:meth:`plan_refresh`) tops the pool up with fresh draws
whenever ``ess`` falls below a configurable floor, evicting the
lowest-weight forests to make room — so sustained churn continuously
replaces stale mass instead of periodically discarding everything.

The conservative insertion priors only pace the policy; estimator
consistency comes from dead-on removal, exact reweight ratios, and the fresh
draws that the ESS floor keeps pulling in (see ``tests/test_pool.py`` for
the tolerance suite against fresh-pool and exact references).

**Estimator caching.**  A forest's estimator value (e.g. its Lemma 3.3
trace contribution under a fixed path system) is a deterministic function
of its parent row, so the pool keeps a per-forest ``traces`` cache
row-aligned through every compress/admit, next to the path system it was
computed against (:attr:`WeightedForestPool.path`).  Weight updates never
touch it; the consumer (the dynamic engine) fills invalid rows, a node
join extends the path system and every cached row by the new node's
column, and deleting a path edge drops the path system with every cached
row — which is what lets a pooled evaluation under churn fold only the
freshly drawn forests.  Flushing or emptying the pool drops the path
system along with the forests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sampling.batch import ForestBatch

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from repro.centrality.estimators import PathSystem

# Forests whose log-weight falls below this are numerically dead: their
# contribution to a self-normalised estimate is < 1e-26 of a fresh draw's.
DEAD_LOG_WEIGHT = -60.0


def edge_inclusion_prior(degree_u: int, degree_v: int) -> float:
    """Cheap prior for ``Pr[(u, v) ∈ F]`` under the rooted-forest law.

    A forest edge at ``(u, v)`` means ``π(u) = v`` or ``π(v) = u``; the
    uniform-arrow heuristic prices each event at ``≈ 1/deg``, giving the
    union bound ``1/d_u + 1/d_v``.  Empirically this tracks the true
    inclusion probability well across densities (e.g. ~0.33 predicted vs
    ~0.36 measured for random insertions on a degree-6 graph, ~0.13 vs
    ~0.12 at degree 16).  Capped at 1/2; the prior only paces the pool's
    staleness decay (how fast ESS falls per insertion), never the estimate
    itself — consistency comes from the fresh draws the ESS floor pulls in.
    """
    guess = 1.0 / max(int(degree_u), 1) + 1.0 / max(int(degree_v), 1)
    return min(0.5, guess)


def node_internal_prior(neighbour_degrees: Sequence[int]) -> float:
    """Prior for ``Pr[z is internal]`` after inserting node ``z``.

    ``z`` is internal when some neighbour's forest parent points at it; the
    union bound over the uniform-arrow heuristic gives ``Σ 1/deg``, capped.
    """
    guess = sum(1.0 / max(int(d), 1) for d in neighbour_degrees)
    return min(0.75, guess)


class WeightedForestPool:
    """A bounded pool of importance-weighted rooted forests for one root set.

    Parameters
    ----------
    roots:
        The (compact snapshot-id) root set shared by every stored forest.
    capacity:
        Target number of stored forests.
    ess_floor:
        Fraction of ``capacity``; when the pool's effective sample size
        falls below ``ess_floor * capacity``, :meth:`plan_refresh` schedules
        fresh draws (evicting the lowest-weight forests to make room).
    adaptive_floor:
        Tune the live ESS floor from the observed churn rate.  Under
        sustained churn the floor relaxes towards ``min(0.25, ess_floor)``
        (benchmarks show 0.25 vs 0.5 halves redraw volume at negligible
        accuracy cost, because fresh draws arrive continuously anyway);
        when churn subsides it recovers to the configured ``ess_floor``.
        The live value is reported by :meth:`health` (and therefore by the
        ``repro_pool_ess_floor`` gauge) and :meth:`effective_floor`.

    Notes
    -----
    The pool stores parents as one ``(B, n)`` matrix and weights as log
    importance weights relative to a fresh draw from the *current* graph
    (see the module docstring for the exact per-event semantics).  All
    mutation hooks are O(B) NumPy passes.
    """

    # Churn-pressure EWMA of the adaptive floor: fraction of new observation
    # folded in per refresh check, and the pressure at which the floor is
    # fully relaxed (one unit ~= the whole pool decayed once per check).
    _CHURN_SMOOTHING = 0.3
    _CHURN_SCALE = 1.0

    def __init__(self, roots: Sequence[int], capacity: int,
                 ess_floor: float = 0.5, adaptive_floor: bool = False):
        self.roots = np.asarray(sorted(int(r) for r in roots), dtype=np.int64)
        if self.roots.size == 0:
            raise InvalidParameterError("pool root set must be non-empty")
        capacity = int(capacity)
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        ess_floor = float(ess_floor)
        if not 0.0 <= ess_floor <= 1.0:
            raise InvalidParameterError(
                f"ess_floor must lie in [0, 1], got {ess_floor}"
            )
        self.capacity = capacity
        self.ess_floor = ess_floor
        self.adaptive_floor = bool(adaptive_floor)
        # Churn accounting of the adaptive floor: mutation hooks accumulate
        # the staleness mass they introduced; plan_refresh folds the
        # accumulator into an EWMA of churn pressure.
        self._churn_accum = 0.0
        self._churn_pressure = 0.0
        self._batch: Optional[ForestBatch] = None
        self._log_weights = np.zeros(0, dtype=np.float64)
        # Per-forest cached estimator values (e.g. each forest's Lemma 3.3
        # trace contribution under the consumer's fixed path system): a
        # forest's estimate is a deterministic function of its parent row,
        # so it survives every weight update and only needs recomputing when
        # the consumer's path system itself is invalidated.  Rows stay
        # aligned with the stored forests through every compress/admit.
        self._trace = np.zeros(0, dtype=np.float64)
        self._trace_valid = np.zeros(0, dtype=bool)
        self._path: Optional["PathSystem"] = None
        self._dead_drops = 0

    # -------------------------------------------------------------- inventory
    @property
    def size(self) -> int:
        """Number of stored (alive) forests."""
        return int(self._log_weights.size)

    @property
    def n(self) -> Optional[int]:
        """Node count of the stored forests (``None`` while empty)."""
        return None if self._batch is None else self._batch.n

    def __len__(self) -> int:
        return self.size

    def batch(self) -> ForestBatch:
        """The stored forests as one :class:`ForestBatch`."""
        if self._batch is None or self.size == 0:
            raise InvalidParameterError("forest pool is empty")
        return self._batch

    def weights(self) -> np.ndarray:
        """``(B,)`` importance weights (fresh draw == 1)."""
        return np.exp(self._log_weights)

    # ---------------------------------------------------- estimator caching
    def require_path(self, graph) -> "PathSystem":
        """The BFS path system of ``graph`` (the current snapshot), rebuilt
        when the id space moved on."""
        if self._path is None or self._path.n != graph.n:
            from repro.centrality.estimators import PathSystem

            self._replace_path(PathSystem.from_graph(graph, self.roots))
        return self._path

    @property
    def trace_valid(self) -> np.ndarray:
        """``(B,)`` mask: which forests have a cached estimator value."""
        return self._trace_valid

    @property
    def traces(self) -> np.ndarray:
        """``(B,)`` cached per-forest estimator values (0 where invalid)."""
        return self._trace

    def set_traces(self, rows, values) -> None:
        """Record computed estimator values for the given rows."""
        self._trace[rows] = np.asarray(values, dtype=np.float64)
        self._trace_valid[rows] = True

    def invalidate_traces(self) -> None:
        """Drop every cached estimator value (path system changed)."""
        self._trace_valid[:] = False
        self._trace[:] = 0.0

    def ess(self) -> float:
        """Effective sample size: ``min(Kish, fidelity mass)``.

        ``Kish = (Σw)²/Σw²`` captures weight skew; the fidelity mass
        ``Σ min(w, 1)`` captures uniform staleness, which is invariant under
        Kish (rescaling every weight equally).  Both equal ``size`` for a
        fresh pool.
        """
        if self.size == 0:
            return 0.0
        weights = self.weights()
        total = float(weights.sum())
        square = float((weights * weights).sum())
        kish = (total * total / square) if square > 0.0 else 0.0
        fidelity = float(np.minimum(weights, 1.0).sum())
        return min(kish, fidelity)

    def effective_floor(self) -> float:
        """The live ESS floor fraction the refresh policy currently applies.

        Equals ``ess_floor`` unless ``adaptive_floor`` is on, in which case
        the floor interpolates between ``ess_floor`` (quiet pool) and
        ``min(0.25, ess_floor)`` (sustained churn) by the churn-pressure
        EWMA that :meth:`plan_refresh` maintains: each refresh check folds
        the staleness mass the mutation hooks introduced since the last
        check into the pressure, so a bursty stream relaxes the floor —
        halving redraw volume — while an idle pool keeps the strict one.
        """
        if not self.adaptive_floor:
            return self.ess_floor
        relaxed = min(0.25, self.ess_floor)
        pressure = min(1.0, self._churn_pressure / self._CHURN_SCALE)
        return self.ess_floor - (self.ess_floor - relaxed) * pressure

    def health(self) -> Dict[str, float]:
        """Operator-facing snapshot: size, capacity, ESS, stale mass."""
        ess = self.ess()
        return {
            "size": float(self.size),
            "capacity": float(self.capacity),
            "ess": ess,
            "ess_floor": self.effective_floor() * self.capacity,
            "stale_fraction": 1.0 - ess / self.capacity,
            "churn_pressure": float(self._churn_pressure),
        }

    # -------------------------------------------------------- mutation hooks
    def apply(self, event, graph, rng: np.random.Generator) -> Tuple[int, int, int]:
        """Replay one journal event of ``graph`` onto the pool.

        ``graph`` is the :class:`~repro.dynamic.DynamicGraph` that recorded
        ``event``; stable ids are translated to the pool's compact ids by the
        graph's *current* mapping, which stays valid for every event kind
        except node removal (compact ids shift) — the owner evicts or flushes
        pools for those instead of replaying them.  Edge removals drop the
        using forests, reweights apply the exact density ratio, insertions
        decay by :func:`edge_inclusion_prior`, and node joins extend every
        forest with a leaf (:meth:`extend_leaf`).

        Returns ``(reweighted, dropped, flushed)``: the forests reweighted,
        the forests dropped (including numerically dead ones) and ``1`` if
        the event forced a flush.
        """
        from repro.dynamic.graph import ADD, ADD_NODE, REMOVE

        if self.size == 0:
            return 0, 0, 0
        if event.kind == ADD_NODE:
            neighbours = [int(nb) for nb, _ in event.edges]
            if (not all(graph.has_node(nb) for nb in neighbours)
                    or graph.compact_index(event.node) != self.n):
                # The new node is not the next column: rebuild lazily.
                self.flush()
                return 0, 0, 1
            reweighted = self.extend_leaf(
                graph.compact_nodes(neighbours),
                [float(w) for _, w in event.edges],
                node_internal_prior([graph.degree(nb) for nb in neighbours]),
                rng,
            )
            return reweighted, self.take_dead_drops(), 0
        if not (graph.has_node(event.u) and graph.has_node(event.v)):
            return 0, 0, 0
        u, v = graph.compact_index(event.u), graph.compact_index(event.v)
        reweighted = dropped = 0
        if event.kind == ADD:
            reweighted = self.apply_addition(
                edge_inclusion_prior(graph.degree(event.u), graph.degree(event.v))
            )
        elif event.kind == REMOVE:
            dropped = self.apply_removal(u, v)
            if self._path is not None and self._path.uses_edge(u, v):
                # Cached rows are for paths that no longer exist.
                self._replace_path(None)
        else:
            old_weight = event.weight - event.delta
            if old_weight <= 0.0:
                # The journal stores (new weight, delta); reconstructing the
                # old weight cancels catastrophically for extreme ratios
                # (e.g. 1e-25 -> 1).  An unrecoverable ratio means
                # unknowable importance weights: flush.
                self.flush()
                return 0, 0, 1
            reweighted = self.apply_reweight(u, v, event.weight / old_weight)
        return reweighted, dropped + self.take_dead_drops(), 0

    def apply_removal(self, u: int, v: int) -> int:
        """Drop every forest whose parent pointers use edge ``(u, v)``.

        Survivors are exact samples of the shrunk graph's distribution (see
        module docstring), so their weights are untouched.  Returns the
        number of forests dropped.
        """
        if self.size == 0:
            return 0
        dead = self._batch.uses_edge(u, v)
        dropped = int(np.count_nonzero(dead))
        if dropped:
            self._churn_accum += dropped / max(self.size, 1)
            self._compress(~dead)
        return dropped

    def apply_addition(self, stale_probability: float) -> int:
        """Down-weight every stored forest after an edge insertion.

        ``stale_probability`` is the prior inclusion probability of the new
        edge (:func:`edge_inclusion_prior`): the fraction of the new
        distribution's mass that the stored (edge-avoiding) stratum misses.
        Returns the number of forests reweighted (forests the decay pushed
        below the dead threshold are reported via :meth:`take_dead_drops`).
        """
        if self.size == 0:
            return 0
        reweighted = self.size
        stale_probability = min(max(float(stale_probability), 0.0), 1.0 - 1e-12)
        self._churn_accum += stale_probability
        self._log_weights += math.log1p(-stale_probability)
        self._drop_dead()
        return reweighted

    def apply_reweight(self, u: int, v: int, ratio: float) -> int:
        """Reweight forests using edge ``(u, v)`` by the exact density ratio.

        ``ratio = w'_e / w_e``; the rooted-forest density is ``∏_{e∈F} w_e``
        up to normalisation, so this is the exact per-forest importance
        update.  Returns the number of forests whose weight changed.
        """
        if self.size == 0:
            return 0
        ratio = float(ratio)
        if ratio <= 0.0:
            raise InvalidParameterError(f"weight ratio must be positive, got {ratio}")
        users = self._batch.uses_edge(u, v)
        touched = int(np.count_nonzero(users))
        if touched:
            self._churn_accum += (
                min(1.0, abs(math.log(ratio))) * touched / max(self.size, 1)
            )
            self._log_weights[users] += math.log(ratio)
            self._drop_dead()
        return touched

    def extend_leaf(self, neighbours: Sequence[int],
                    attachment_weights: Sequence[float],
                    stale_probability: float,
                    rng: np.random.Generator) -> int:
        """Extend every stored forest with a newly inserted node.

        The new node (compact id ``n``) is attached as a leaf whose parent is
        drawn independently per forest from ``neighbours`` with probability
        proportional to ``attachment_weights`` — exact for the leaf stratum
        of the grown graph's distribution.  The missing internal stratum is
        priced in by down-weighting everything by ``1 - stale_probability``
        (:func:`node_internal_prior`).  Returns the number of forests
        extended; insertions therefore never force a flush.

        The path system gains the same leaf (first attachment), leaving
        every existing path intact, so cached traces stay valid: they only
        gain the new node's column, priced by a single-column walk instead
        of a full refold.
        """
        if self.size == 0:
            return 0
        neighbours = np.asarray(list(neighbours), dtype=np.int64)
        if neighbours.size == 0:
            raise InvalidParameterError("a node insertion needs >= 1 attachment")
        probabilities = np.asarray(list(attachment_weights), dtype=np.float64)
        if probabilities.shape != neighbours.shape or np.any(probabilities <= 0):
            raise InvalidParameterError(
                "attachment weights must be positive and match the neighbours"
            )
        probabilities = probabilities / probabilities.sum()
        picks = rng.choice(neighbours.size, size=self.size, p=probabilities)
        extended = self.size
        self._batch = self._batch.with_leaf(neighbours[picks])
        if self._path is not None:
            from repro.centrality.estimators import batched_diag_estimates

            self._path = self._path.extended(int(neighbours[0]))
            cached = np.flatnonzero(self._trace_valid)
            if cached.size:
                column = batched_diag_estimates(
                    self._batch.parent[cached], self._path,
                    columns=[self._batch.n - 1],
                )
                self._trace[cached] += column[:, 0]
        self.apply_addition(stale_probability)
        return extended

    def take_dead_drops(self) -> int:
        """Forests dropped for numerically dead weights since the last call.

        Reweights and decays drop forests whose log-weight falls below
        :data:`DEAD_LOG_WEIGHT` as a side effect; this drains that counter
        so stats consumers can account for them alongside the explicit
        removal drops.
        """
        dropped, self._dead_drops = self._dead_drops, 0
        return dropped

    def flush(self) -> int:
        """Discard every stored forest, with the path system built for
        them; returns how many forests were dropped."""
        dropped = self.size
        self._batch = None
        self._log_weights = np.zeros(0, dtype=np.float64)
        self._trace = np.zeros(0, dtype=np.float64)
        self._trace_valid = np.zeros(0, dtype=bool)
        self._path = None
        return dropped

    # --------------------------------------------------------------- refresh
    def plan_refresh(self) -> int:
        """How many fresh forests a top-up should draw *now*.

        Covers both the size deficit (dead forests) and the ESS floor: when
        ``ess < effective_floor() * capacity`` the plan replaces the stale
        mass — enough fresh draws to lift the pool back to roughly full
        effective size.  Call :meth:`admit` with the drawn forests; the
        admit evicts the lowest-weight forests to respect ``capacity``.

        With ``adaptive_floor`` on, each call first folds the churn mass
        accumulated since the last check into the pressure EWMA that
        :meth:`effective_floor` interpolates on.
        """
        self._churn_pressure += self._CHURN_SMOOTHING * (
            self._churn_accum - self._churn_pressure
        )
        self._churn_accum = 0.0
        deficit = self.capacity - self.size
        ess = self.ess()
        if self.size and ess < self.effective_floor() * self.capacity:
            return max(deficit, self.capacity - int(math.floor(ess)))
        return max(deficit, 0)

    def admit(self, fresh: ForestBatch) -> int:
        """Add freshly drawn forests (log-weight 0), evicting down to capacity.

        Eviction removes the lowest-weight forests first, so stale mass
        makes way for fresh draws.  Returns the number admitted.
        """
        if fresh.batch_size == 0:
            return 0
        if not np.array_equal(fresh.roots, self.roots):
            raise InvalidParameterError(
                f"admitted forests rooted at {fresh.roots.tolist()} do not "
                f"match the pool roots {self.roots.tolist()}"
            )
        if self._batch is not None and self.size and fresh.n != self._batch.n:
            raise InvalidParameterError(
                f"admitted forests have {fresh.n} nodes, pool has {self._batch.n}"
            )
        if self._batch is None or self.size == 0:
            self._batch = fresh
            self._log_weights = np.zeros(fresh.batch_size, dtype=np.float64)
            self._trace = np.zeros(fresh.batch_size, dtype=np.float64)
            self._trace_valid = np.zeros(fresh.batch_size, dtype=bool)
        else:
            self._batch = ForestBatch.concatenate([self._batch, fresh])
            self._log_weights = np.concatenate(
                [self._log_weights, np.zeros(fresh.batch_size)]
            )
            self._trace = np.concatenate(
                [self._trace, np.zeros(fresh.batch_size)]
            )
            self._trace_valid = np.concatenate(
                [self._trace_valid, np.zeros(fresh.batch_size, dtype=bool)]
            )
        overflow = self.size - self.capacity
        if overflow > 0:
            # Keep the `capacity` highest-weight forests (stable towards the
            # newest entries on ties, since argsort is stable and fresh rows
            # sit at the end with log-weight 0).
            order = np.argsort(self._log_weights, kind="stable")
            keep = np.ones(self.size, dtype=bool)
            keep[order[:overflow]] = False
            self._compress(keep)
        return fresh.batch_size

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Checkpoint state: JSON-ready scalars plus named arrays."""
        meta = {
            "capacity": self.capacity,
            "ess_floor": self.ess_floor,
            "adaptive_floor": self.adaptive_floor,
            "churn_accum": float(self._churn_accum),
            "churn_pressure": float(self._churn_pressure),
            "dead_drops": int(self._dead_drops),
        }
        arrays = {"roots": self.roots}
        if self.size:
            arrays.update(parent=self._batch.parent, log_weights=self._log_weights,
                          trace=self._trace, trace_valid=self._trace_valid)
        if self._path is not None:
            arrays["path_parent"] = self._path.parent
        return meta, arrays

    @classmethod
    def from_state(cls, meta: Dict[str, Any],
                   arrays: Dict[str, np.ndarray]) -> "WeightedForestPool":
        """Rebuild a pool from :meth:`state_dict` output."""
        pool = cls(arrays["roots"], capacity=meta["capacity"],
                   ess_floor=meta["ess_floor"],
                   adaptive_floor=meta["adaptive_floor"])
        pool._churn_accum = float(meta["churn_accum"])
        pool._churn_pressure = float(meta["churn_pressure"])
        pool._dead_drops = int(meta["dead_drops"])
        if "parent" in arrays:
            pool._batch = ForestBatch(
                parent=np.asarray(arrays["parent"], dtype=np.int64),
                roots=pool.roots,
            )
            pool._log_weights = np.asarray(arrays["log_weights"], dtype=np.float64)
            pool._trace = np.asarray(arrays["trace"], dtype=np.float64)
            pool._trace_valid = np.asarray(arrays["trace_valid"], dtype=bool)
        if "path_parent" in arrays:
            from repro.centrality.estimators import PathSystem

            pool._path = PathSystem(arrays["path_parent"], pool.roots)
        return pool

    # ------------------------------------------------------------- internals
    def _replace_path(self, path: Optional["PathSystem"]) -> None:
        # Every cached row belongs to the old path system.
        self._path = path
        self.invalidate_traces()

    def _compress(self, keep: np.ndarray) -> None:
        if bool(np.all(keep)):
            return
        if not np.any(keep):
            self.flush()
            return
        self._batch = self._batch.select(keep)
        self._log_weights = self._log_weights[keep]
        self._trace = self._trace[keep]
        self._trace_valid = self._trace_valid[keep]

    def _drop_dead(self) -> int:
        """Drop numerically dead forests; returns the surviving count."""
        alive = self._log_weights > DEAD_LOG_WEIGHT
        before = self.size
        self._compress(alive)
        self._dead_drops += before - self.size
        return self.size
