"""Spanning-forest estimators of grounded-Laplacian quantities.

This module implements the statistical core of SchurCFCM, and so of
ForestCFCM, which is SchurCFCM with no extra roots:

* ``Phi_{u,S}(v)`` — the unbiased estimator of ``(inv(L_{-S}))_{uv}`` built
  from edge-current counts of sampled rooted forests (Lemma 3.3).  The fixed
  path ``P_{v,S}`` required by the lemma is the BFS-tree path from ``v`` to
  the root set, so each per-sample value is bounded by the diameter τ (the
  bound used in Lemmas 3.9 / 4.5).
* JL-projected estimators ``Phi_{w_j,S}(v)`` of ``w_j^T inv(L_{-S}) e_v``
  (Section III-B), from which ``diag(inv(L_{-S})^2)`` is recovered as squared
  projected column norms.
* the rooted-probability matrix ``F`` and the sampled Schur complement
  ``S_T(L_{-S})`` of Section IV (Lemma 4.2 and Eq. 15), from which
  :func:`schur_reassembly` rebuilds the ``S``-grounded quantities (Eq. 11);
* :func:`marginal_gain_estimates`, the one ``Δ(u, S)`` formula that
  ForestDelta and SchurDelta share.

Two steps sit between the forests and a greedy decision:

* **Jacobi smoothing** (:func:`jacobi_smooth`).  Every forest-estimated
  column block ``Y ≈ W inv(L_{-S})`` takes ``SMOOTHING_STEPS`` steps of
  ``Y ← (W + Y·A)·D⁻¹`` on the columns outside ``S`` before it is read: the
  first pick's ``1ᵀ inv(L_{-s})``, ForestDelta's columns and SchurDelta's
  columns after the Eq. (11) reassembly (on the ``S``-grounded system, ``T``
  columns included).  The map's fixed point is the exact block, so the
  estimate stays unbiased while its error contracts; this is the
  Rao–Blackwellised forest estimator of Pilavci, Amblard, Barthelmé and
  Tremblay, at O(steps · w · m).  The diagonal (the gain's denominator) is
  not smoothed; where it is read it is clamped at its floor ``1/d_u``.
* **The forest budget** (:meth:`SamplingConfig.sample_cap`).  Every round
  that draws takes ``ceil(FOREST_BUDGET / eps^2)`` forests, clamped to
  ``[min_samples, max_samples]`` (200 at the default ``eps = 0.2``), so
  ``eps``, not ``max_samples``, decides how many forests a round draws,
  and a call's work is fixed by the graph, ``k``, ``eps`` and its picks.
  A SchurDelta round whose root set ``S ∪ T`` equals the previous draw's
  draws none: :class:`HeldSample` keeps that draw's sums, which estimate
  quantities of the root set alone.  With two or more extra roots the first
  pick roots its forests at ``T`` too, so a SchurCFCM run whose picks stay
  in ``T`` draws once.  No rule reads the sample to stop
  sooner.  The unsmoothed diagonal of a hub next to a root is the
  indicator that the hub's forest parent is that root, which on a
  1000-node power-law graph fires in about 2% of forests, so two halves
  of a few hundred forests disagree on near-tied hubs by chance.  A
  stopping rule built on their agreement fired at a random doubling step
  there, and a SchurCFCM call's CPU time ranged from 0.34 s to 1.55 s
  across seeds.

Implementation note (documented substitution): the paper's C++ code maintains
per-directed-edge counters ``N~^{a->b}_{u,S}`` incrementally in O(1) amortised
per node.  Here whole batches of sampled forests are processed with
vectorised NumPy passes (:class:`repro.sampling.batch.ForestBatch`'s
requested-subtree sums and DFS preorder), which compute *exactly the same
estimators* (same expectations, same per-sample values up to float
summation order) with Python-friendly constant factors.

Per-sample quantities
---------------------
For a sampled forest with parent map ``π`` and a BFS tree (parent ``b``) from
the root set:

* ``alpha_x = 1`` iff ``π_x = b_x`` — the BFS edge of ``x`` is traversed
  upward by every node in the forest subtree of ``x``;
* ``beta_x = 1`` iff ``π_{b_x} = x`` — the BFS edge of ``x`` is traversed
  downward by every node in the forest subtree of ``b_x``.

The projected estimator for node ``u`` is the sum over the BFS path of
``alpha_x * Tw(x) - beta_x * Tw(b_x)`` where ``Tw(x)`` is the forest-subtree
sum of the weight vector.  ``Tw`` is read only where a forest edge runs
along or against a BFS edge (about a quarter of the (forest, node) pairs on
a 1000-node power-law graph, half on a grid), so only those subtrees are
summed: every node's weights go to its lowest read ancestor, and the read
nodes add their totals into each other's a level at a time
(:meth:`~repro.sampling.batch.ForestBatch.subtree_sum_rows`).  The sum
along BFS paths is linear, so the batched fold first sums the terms of all
forests of a batch and then takes the BFS-level prefix once.

The diagonal estimator for ``u`` restricts the same sum to the contribution
of ``u`` itself, i.e. keeps a term only when ``x`` (resp. ``b_x``) is a
forest ancestor of ``u``.  The batched fold walks ``u``'s BFS path, at most
τ steps, and tests ancestry by preorder-interval containment.  Node-join
pricing of one new column climbs the column's forest path instead, testing
membership of the BFS path with the BFS tree's own preorder intervals, which
needs no whole-batch preorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_tree
from repro.linalg.jl import jl_dimension
from repro.obs.tracing import trace
from repro.sampling.batch import (
    ForestBatch,
    LOCKSTEP_STATE_LIMIT,
    sample_forest_batch_vectorized,
)
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_integer


#: Forests per estimation round, times ``eps^2``.  At 8 (200 forests at
#: ``eps = 0.2``) the exact gain of SchurCFCM's pick is at least 0.83 of
#: the round's exact best in nine rounds of ten, and at least 0.95 in the
#: median, on a 1000-node power-law graph, a 20x20 grid and a 400-node
#: small world (``tests/test_decision_audit.py``).  A size-dependent
#: ``ceil(eps^-2 ln n)`` gave 79 forests on a 23-node graph, where one
#: seed's k = 3 SchurCFCM group fell below 0.9 of the optimum.
FOREST_BUDGET = 8.0


@dataclass
class SamplingConfig:
    """Tunable knobs of the forest-sampling estimators.

    Parameters
    ----------
    eps:
        Target relative error of the marginal-gain estimates.  It sets the
        forests each round draws, ``ceil(FOREST_BUDGET / eps^2)``
        (:meth:`sample_cap`), and the JL dimension.
    max_samples:
        Hard cap on sampled forests per estimation call.  The theoretical
        Hoeffding-style bound of the paper (``r = O(eps^-2 τ^2 dmax^{2τ+2}
        log n)``) is astronomically conservative; rounds draw a fixed
        multiple of ``eps^-2`` instead, and this cap bounds it for small
        ``eps``.
    min_samples / initial_batch:
        Floor of the per-round budget and first batch size of the doubling
        schedule that draws it.
    max_jl_dimension:
        Cap of the JL dimension ``min(ceil(eps^-2 * log n),
        max_jl_dimension)``, Lemma 3.4's bound with its constant 24
        lowered to 1.
    """

    eps: float = 0.2
    max_samples: int = 512
    min_samples: int = 16
    initial_batch: int = 16
    max_jl_dimension: int = 96

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError(f"eps must lie in (0, 1), got {self.eps}")
        for name in ("max_samples", "min_samples", "initial_batch",
                     "max_jl_dimension"):
            setattr(self, name, check_integer(name, getattr(self, name),
                                              minimum=1))
        self.min_samples = min(self.min_samples, self.max_samples)

    def jl_rows(self, n: int) -> int:
        """Number of JL projection rows for a graph with ``n`` nodes."""
        return jl_dimension(n, self.eps, constant=1.0,
                            maximum=self.max_jl_dimension)

    def sample_cap(self, n: int) -> int:
        """Forests one estimation round draws on a graph with ``n`` nodes.

        ``ceil(FOREST_BUDGET / eps^2)``, clamped to ``[min_samples,
        max_samples]``.  Unlike the paper's bound it has no ``log n`` term,
        which only a guarantee holding for all ``n`` nodes at once needs.
        """
        scaled = int(math.ceil(FOREST_BUDGET * self.eps ** -2))
        return int(min(self.max_samples, max(self.min_samples, scaled)))


class PathSystem:
    """A fixed path system ``P_{u,S}`` from every node to the root set.

    Lemma 3.3's diagonal estimator is unbiased for *any* fixed choice of
    graph paths from each node to ``S``; this library uses the BFS-tree
    paths (so per-sample values are bounded by the diameter τ).  The path
    system is deliberately decoupled from the sampled forests: the engine's
    importance-weighted pools keep one path system alive across graph
    mutations and cache each stored forest's estimator value against it —
    cached values stay exact as long as every path edge still exists, which
    edge insertions, reweights and (leaf-extended) node insertions all
    preserve.

    Parameters
    ----------
    parent:
        ``(n,)`` path-tree parents (``-1`` on roots): ``parent[u]`` is the
        next hop of ``u``'s fixed path towards the root set.
    roots:
        The root set ``S``.
    """

    def __init__(self, parent: np.ndarray, roots: Sequence[int]):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.roots = sorted(set(int(r) for r in roots))
        n = self.parent.size
        self.root_mask = np.zeros(n, dtype=bool)
        self.root_mask[self.roots] = True
        self.nonroot = np.flatnonzero(~self.root_mask)
        # Preorder intervals of the path tree give the O(1) "x on the fixed
        # path of u" test: pre[x] <= pre[u] < pre[x] + size[x].
        pre, size = ForestBatch(parent=self.parent[None, :],
                                roots=self.roots).preorder()
        self.pre, self.size = pre[0], size[0]
        self._levels: Optional[list] = None

    @classmethod
    def from_graph(cls, graph: Graph, roots: Sequence[int]) -> "PathSystem":
        """The BFS-tree path system of ``graph`` (paths bounded by τ)."""
        tree = bfs_tree(graph, sorted(set(int(r) for r in roots)))
        if np.any(tree.depth < 0):
            raise InvalidParameterError(
                "graph must be connected for forest sampling"
            )
        return cls(tree.parent, roots)

    @property
    def n(self) -> int:
        return int(self.parent.size)

    def uses_edge(self, u: int, v: int) -> bool:
        """Whether the path tree traverses the undirected edge ``(u, v)``."""
        u, v = int(u), int(v)
        return bool(self.parent[u] == v or self.parent[v] == u)

    def levels(self) -> list:
        """Nodes grouped by path-tree depth (level 0 = roots), cached.

        The projected-estimator folds need exactly this grouping for their
        per-level prefix sums.  It is derived from the path tree itself, not
        from a BFS of the graph, so it stays right for a path system grown
        by :meth:`extended`.
        """
        if self._levels is None:
            depth = np.full(self.n, -1, dtype=np.int64)
            depth[self.root_mask] = 0
            pending = self.nonroot.copy()
            while pending.size:
                ready = depth[self.parent[pending]] >= 0
                now = pending[ready]
                depth[now] = depth[self.parent[now]] + 1
                pending = pending[~ready]
            self._levels = [
                np.flatnonzero(depth == level)
                for level in range(int(depth.max()) + 1 if depth.size else 0)
            ]
        return self._levels

    def extended(self, attachment: int) -> "PathSystem":
        """A path system for the graph grown by one node (id ``n``).

        The new node's fixed path is the edge to ``attachment`` followed by
        the attachment's path — i.e. the path tree gains one leaf, leaving
        every existing path unchanged.
        """
        attachment = int(attachment)
        if not 0 <= attachment < self.n:
            raise InvalidParameterError(
                f"attachment {attachment} outside node range [0, {self.n})"
            )
        parent = np.concatenate([self.parent, [attachment]])
        return PathSystem(parent, self.roots)


def batched_diag_estimates(forest_parent: np.ndarray, path: PathSystem,
                           columns: Optional[Sequence[int]] = None,
                           ) -> np.ndarray:
    """Per-forest Lemma 3.3 diagonal estimates over a ``(B, n)`` batch.

    Returns the ``(B, n)`` matrix whose row ``i`` is the per-node diagonal
    estimator of forest ``i`` under the fixed ``path`` system (columns on
    roots are zero) — the quantity :class:`ForestAccumulator` accumulates,
    exposed per forest so pooled consumers can cache it.  ``columns``
    restricts the estimate to the given nodes and returns ``(B, k)`` (used
    to price a newly inserted node without refolding the batch).

    The full matrix walks every node's fixed path, at most τ steps, and
    tests forest ancestry with the batch's preorder intervals
    (:func:`_path_walk_diag`).  With ``columns`` each given node climbs its
    own forest path instead, O(B · depth · k), which needs no whole-batch
    preorder.
    """
    forest_parent = np.asarray(forest_parent, dtype=np.int64)
    if forest_parent.ndim != 2 or forest_parent.shape[1] != path.n:
        raise InvalidParameterError(
            f"forest parents must have shape (B, {path.n}), "
            f"got {forest_parent.shape}"
        )
    if columns is None:
        return _path_walk_diag(ForestBatch(parent=forest_parent,
                                           roots=path.roots), path)
    starts = np.asarray([int(c) for c in columns], dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= path.n):
        raise InvalidParameterError("columns outside node range")
    size = forest_parent.shape[0]
    alpha = _path_edge_up(forest_parent, path)
    delta = _path_edge_down(forest_parent, path)

    # One lane per (sample, start) pair climbs its forest path; membership
    # of the start's fixed path is a preorder-interval test of the path tree.
    diag = np.zeros((size, starts.size))
    lane_sample = np.repeat(np.arange(size, dtype=np.int64), starts.size)
    lane_start = np.tile(np.arange(starts.size, dtype=np.int64), size)
    cursor = np.tile(starts, size)
    pre_lane = path.pre[cursor]
    # Lanes rooted at a root node are done before they start.
    live = ~path.root_mask[cursor]
    lane_sample, lane_start = lane_sample[live], lane_start[live]
    cursor, pre_lane = cursor[live], pre_lane[live]
    while lane_sample.size:
        x = cursor
        on_path_x = _contains(path.pre[x], path.size[x], pre_lane)
        pi_x = forest_parent[lane_sample, x]
        safe_pi = np.where(pi_x >= 0, pi_x, x)
        on_path_pi = _contains(path.pre[safe_pi], path.size[safe_pi], pre_lane)
        step = (
            (alpha[lane_sample, x] & on_path_x).astype(np.float64)
            - (delta[lane_sample, x] & on_path_pi & (pi_x >= 0)).astype(np.float64)
        )
        # (sample, start) pairs are unique within the lane set, so the
        # fancy-indexed accumulate cannot collide.
        diag[lane_sample, lane_start] += step
        keep = (pi_x >= 0) & ~path.root_mask[safe_pi]
        lane_sample = lane_sample[keep]
        lane_start = lane_start[keep]
        cursor = pi_x[keep]
        pre_lane = pre_lane[keep]
    return diag


def _path_edge_up(forest_parent: np.ndarray, path: PathSystem) -> np.ndarray:
    """``(B, n)`` alpha: whether each non-root node's forest edge is its
    path edge (crossed upward by every node of its forest subtree)."""
    alpha = np.zeros(forest_parent.shape, dtype=bool)
    nonroot = path.nonroot
    alpha[:, nonroot] = forest_parent[:, nonroot] == path.parent[nonroot]
    return alpha


def _path_edge_down(forest_parent: np.ndarray, path: PathSystem) -> np.ndarray:
    """``(B, n)`` delta: whether each node is the path parent of its forest
    parent ``π(y)`` (so ``π(y)``'s path edge is crossed downward by every
    node of the forest subtree of ``y``)."""
    has_parent = forest_parent >= 0
    safe_parent = np.where(has_parent, forest_parent, 0)
    return has_parent & (path.parent[safe_parent] == np.arange(path.n))


def _contains(start: np.ndarray, size: np.ndarray,
              position: np.ndarray) -> np.ndarray:
    """Elementwise ``start <= position < start + size``: with preorder
    intervals, whether the interval's node is an ancestor (or self) of the
    node at ``position``."""
    offset = position - start
    return (offset >= 0) & (offset < size)


def _path_walk_diag(batch: ForestBatch, path: PathSystem) -> np.ndarray:
    """``(B, n)`` diagonal estimates by walking each node's fixed path.

    Let ``u = y_0, y_1, ..., y_k`` be ``u``'s path to the root set.  The
    forest path from ``u`` crosses the path edge ``(y_i, y_{i+1})`` upward
    iff ``y_i`` is a forest ancestor of ``u`` whose forest parent is
    ``y_{i+1}`` (alpha), and downward iff ``y_{i+1}`` is a forest ancestor
    of ``u`` whose forest parent is ``y_i``; the estimate is the net count.
    Every node takes one step per loop pass, so the loop runs τ times, and
    ancestry is a preorder-interval test.  The values are small integers,
    so the sums are exact in any order.
    """
    parent = batch.parent
    pre, size = batch.preorder()
    alpha = _path_edge_up(parent, path)
    diag = np.zeros(parent.shape)
    columns = path.nonroot
    step = columns
    pre_u = pre[:, columns]
    while columns.size:
        after = path.parent[step]
        up = alpha[:, step] & _contains(pre[:, step], size[:, step], pre_u)
        down = ((parent[:, after] == step)
                & _contains(pre[:, after], size[:, after], pre_u))
        diag[:, columns] += up.astype(np.float64) - down
        more = ~path.root_mask[after]
        columns, step, pre_u = columns[more], after[more], pre_u[:, more]
    return diag


def _projected_terms(batch: ForestBatch, path: PathSystem, weights: np.ndarray):
    """The forest-subtree sums the projected estimators read, and where.

    Forest ``b``'s contribution at a non-root node ``x`` is
    ``alpha_x T(x) - beta_x T(p_x)``: ``T`` is the forest-subtree sum of
    the weight rows, ``p_x`` the path parent, ``beta_x`` whether the forest
    edge of ``p_x`` leads to ``x``.  Indexed by the subtree's top ``y``,
    ``T(y)`` enters at ``y`` with sign +1 when ``alpha_y``, and at
    ``x = π(y)`` with sign -1 when ``delta_y`` (``y`` is the path parent of
    ``x``).

    Returns ``(samples, targets, signs, terms, sums)``: ``sums`` holds the
    subtree sums, one ``(w,)`` row per read subtree (and a spare row), and
    term ``j`` adds ``signs[j] * sums[terms[j]]`` to node ``targets[j]`` of
    sample ``samples[j]``.
    """
    parent = batch.parent
    alpha = _path_edge_up(parent, path)
    delta = _path_edge_down(parent, path)
    samples, nodes = np.nonzero(alpha | delta)
    rows, sums = batch.subtree_sum_rows(weights, samples, nodes)
    ups = np.flatnonzero(alpha[samples, nodes])
    downs = np.flatnonzero(delta[samples, nodes])
    terms = np.concatenate([ups, downs])
    targets = np.concatenate([nodes[ups], parent[samples[downs], nodes[downs]]])
    signs = np.concatenate([np.ones(ups.size), -np.ones(downs.size)])
    return samples[terms], targets, signs, rows[terms], sums


def _path_prefix(values: np.ndarray, path: PathSystem) -> None:
    """In place along axis -2: each node's value becomes the sum over its
    fixed path (itself included, roots contributing zero)."""
    for nodes in path.levels()[1:]:
        values[..., nodes, :] += values[..., path.parent[nodes], :]


def batched_projected_estimates(batch: ForestBatch, path: PathSystem,
                                weights: np.ndarray) -> np.ndarray:
    """Per-forest projected estimators ``w_j^T inv(L_{-S}) e_u`` over a batch.

    Returns the ``(B, w, n)`` tensor whose slice ``i`` holds forest ``i``'s
    unaggregated projected estimator rows under the fixed ``path`` system.
    The subtree sums come from the same requested-subtree kernel as
    :meth:`ForestAccumulator._fold_batched`, which sums these rows over the
    batch without building the tensor; the tests check that fold forest by
    forest against this one.  No library path calls it, but
    ``perfbench/layers.py`` patches the name on :mod:`repro.dynamic.engine`.
    Columns of ``weights`` on roots are zeroed defensively.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = path.n
    if weights.ndim != 2 or weights.shape[1] != n:
        raise InvalidParameterError(f"weights must have shape (w, {n})")
    if batch.n != n:
        raise InvalidParameterError(
            f"forest batch spans {batch.n} nodes, path system {n}"
        )
    weights = weights.copy()
    weights[:, path.roots] = 0.0
    samples, targets, signs, terms, sums = _projected_terms(batch, path, weights)
    scatter = sp.csr_matrix((signs, (samples * n + targets, terms)),
                            shape=(batch.batch_size * n, sums.shape[0]))
    projected = (scatter @ sums).reshape(batch.batch_size, n, weights.shape[0])
    _path_prefix(projected, path)
    return projected.transpose(0, 2, 1)


def rademacher_weights(rows: int, n: int, excluded: Sequence[int],
                       rng: np.random.Generator) -> np.ndarray:
    """JL weight matrix of shape ``(rows, n)``, zeroed on ``excluded`` columns."""
    scale = 1.0 / math.sqrt(rows)
    weights = np.where(rng.random((rows, n)) < 0.5, -scale, scale)
    if len(excluded):
        weights[:, list(excluded)] = 0.0
    return weights


class ForestAccumulator:
    """Accumulates forest-sample estimates for a fixed root set.

    Parameters
    ----------
    graph:
        Connected graph.
    roots:
        Root set of the sampled forests (``S`` for ForestDelta, ``S ∪ T`` for
        SchurDelta, ``{s}`` or ``T`` for the first greedy pick).
    weights:
        ``(w, n)`` weight matrix; every row defines one linear functional
        ``w_j^T inv(L_{-roots}) e_u`` to estimate.  Columns on ``roots`` must
        be zero (they are zeroed defensively).
    tracked_roots:
        Optional subset of ``roots`` whose rooted probabilities
        ``Pr(ρ_u = t)`` must be estimated (the ``T`` set of SchurDelta).
    seed:
        Seed or generator driving Wilson's algorithm.
    """

    def __init__(self, graph: Graph, roots: Sequence[int],
                 weights: Optional[np.ndarray] = None,
                 tracked_roots: Optional[Sequence[int]] = None,
                 seed: RandomState = None):
        self.graph = graph
        self.roots = sorted(set(int(r) for r in roots))
        if not self.roots:
            raise InvalidParameterError("root set must be non-empty")
        self.rng = as_rng(seed)
        # The fixed path system: BFS-tree paths, so every per-sample value
        # is bounded by the depth τ of the BFS tree.
        self._path = PathSystem.from_graph(graph, self.roots)
        self._root_mask = self._path.root_mask

        n = graph.n

        if weights is None:
            weights = np.zeros((0, n))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != n:
            raise InvalidParameterError(f"weights must have shape (w, {n})")
        weights = weights.copy()
        weights[:, self.roots] = 0.0
        self.weights = weights

        self.tracked_roots = sorted(set(int(t) for t in tracked_roots or []))
        unknown = set(self.tracked_roots) - set(self.roots)
        if unknown:
            raise InvalidParameterError(
                f"tracked roots {sorted(unknown)} are not part of the root set"
            )

        rows = weights.shape[0]
        #: Forests folded in so far.
        self.count = 0
        self.projected_sum = np.zeros((rows, n))
        self.diag_sum = np.zeros(n)
        self.root_counts = np.zeros((n, len(self.tracked_roots)))

    # ----------------------------------------------------------------- sampling
    def add_samples(self, batch_size: int) -> None:
        """Sample ``batch_size`` forests and fold them into the running sums.

        Forests are drawn with the lockstep vectorised sampler, in
        memory-bounded chunks, and folded through :meth:`add_batch`.
        """
        remaining = int(batch_size)
        if remaining <= 0:
            return
        n = self.graph.n
        rows = max(self.weights.shape[0], 1)
        # Bound both the sampler's (B, n) state and the (K, w) subtree sums
        # of the batched fold (K <= B * n).  The chunks also split the
        # sampler's random stream, so this cap fixes which forests are drawn.
        chunk_cap = max(1, min(LOCKSTEP_STATE_LIMIT // max(n, 1),
                               (1 << 24) // max(n * rows, 1)))
        while remaining > 0:
            take = min(remaining, chunk_cap)
            batch = sample_forest_batch_vectorized(self.graph, self.roots,
                                                   take, seed=self.rng)
            self.add_batch(batch)
            remaining -= take

    def add_batch(self, batch: ForestBatch, method: str = "batched") -> None:
        """Fold a whole :class:`~repro.sampling.batch.ForestBatch` in at once.

        ``method="batched"`` (the default) runs the fully vectorised
        ``(B, n)`` fold of :meth:`_fold_batched`: the subtree sums the
        projected estimators read, reduced over the batch, and a diagonal
        walk on the batch's DFS preorder whose Python loop runs τ times
        (the longest fixed path) for the whole batch, and one ``bincount``
        of the tracked roots' rooted-at pairs.  ``method="scalar"``
        folds each forest through the per-forest reference :meth:`_fold`
        (the chi-square baseline), on every node's subtree sums; both paths
        produce the same running sums up to float summation order.

        The dynamic engine does not fold its importance-weighted pools
        here: it weights cached per-forest traces from
        :func:`batched_diag_estimates` itself.
        """
        if batch.n != self.graph.n:
            raise InvalidParameterError(
                f"forest batch has {batch.n} nodes, graph has {self.graph.n}"
            )
        if [int(r) for r in batch.roots] != self.roots:
            raise InvalidParameterError(
                f"batch roots {batch.roots.tolist()} do not match the "
                f"accumulator root set {self.roots}"
            )
        if batch.batch_size == 0:
            return
        method = str(method).lower()
        if method not in ("batched", "scalar"):
            raise InvalidParameterError(
                f"method must be 'batched' or 'scalar', got {method!r}"
            )
        with trace("estimator.fold", forests=batch.batch_size, method=method):
            if method == "batched":
                self._fold_batched(batch)
                return
            subtree = (batch.subtree_sums(self.weights)
                       if self.weights.shape[0] else None)
            root_of = batch.root_of() if self.tracked_roots else None
            for index in range(batch.batch_size):
                self._fold(
                    batch.parent[index],
                    None if subtree is None else subtree[index],
                    None if root_of is None else root_of[index],
                )

    def _fold(self, parent: np.ndarray, subtree: Optional[np.ndarray],
              root_of: Optional[np.ndarray]) -> None:
        """Fold one forest, given its precomputed derived arrays.

        The scalar reference path: :meth:`_fold_batched` computes the same
        sums for a whole batch at once, and the distributional (chi-square)
        suites pin this version as the baseline.  ``subtree`` is the
        ``(w, n)`` forest-subtree sum of :attr:`weights` (``None`` when
        there are no weight rows) and ``root_of`` the rooted-at map
        (``None`` when no roots are tracked); both may be rows of the
        batched kernels' outputs.
        """
        n = self.graph.n
        path = self._path
        bfs_parent = path.parent
        nonroot = path.nonroot

        alpha = np.zeros(n, dtype=bool)
        beta = np.zeros(n, dtype=bool)
        # alpha_x: the forest parent edge of x coincides with its BFS edge.
        alpha[nonroot] = parent[nonroot] == bfs_parent[nonroot]
        # beta_x: the forest parent edge of x's BFS parent points back at x,
        # i.e. the BFS edge of x is traversed downward by the forest path.
        beta[nonroot] = parent[bfs_parent[nonroot]] == nonroot

        # Projected (weight-vector) estimators: forest-subtree sums of the
        # weights, folded along the BFS tree with per-level prefix sums.
        if subtree is not None:
            contribution = np.zeros_like(subtree)
            contribution[:, nonroot] = (
                subtree[:, nonroot] * alpha[nonroot]
                - subtree[:, bfs_parent[nonroot]] * beta[nonroot]
            )
            projected = np.zeros_like(subtree)
            for nodes in path.levels()[1:]:
                projected[:, nodes] = projected[:, bfs_parent[nodes]] + contribution[:, nodes]
            self.projected_sum += projected

        # Diagonal estimators.  Rewriting the Lemma 3.3 path sum so that the
        # outer iteration runs over each node's *forest* ancestors gives
        #
        #   c_u = sum_{x in Fanc(u) \ S} ( alpha_x [x in BFSpath(u)]
        #                                  - delta_x [pi_x in BFSpath(u)] )
        #
        # with delta_x = 1 iff bfs_parent(pi_x) = x.  Membership of the fixed
        # BFS path is a preorder-interval test of the path tree, so every
        # walk step below is a handful of vectorised array ops.
        delta = np.zeros(n, dtype=bool)
        has_parent = parent >= 0
        delta[has_parent] = bfs_parent[parent[has_parent]] == np.flatnonzero(has_parent)
        diag = np.zeros(n)
        cursor = nonroot.copy()
        active = nonroot.copy()
        pre_active = path.pre[active]
        while active.size:
            x = cursor
            on_path_x = _contains(path.pre[x], path.size[x], pre_active)
            pi_x = parent[x]
            safe_pi = np.where(pi_x >= 0, pi_x, x)
            on_path_pi = _contains(path.pre[safe_pi], path.size[safe_pi],
                                   pre_active)
            diag[active] += (
                (alpha[x] & on_path_x).astype(np.float64)
                - (delta[x] & on_path_pi & (pi_x >= 0)).astype(np.float64)
            )
            keep = (pi_x >= 0) & ~path.root_mask[safe_pi]
            active = active[keep]
            cursor = pi_x[keep]
            pre_active = pre_active[keep]
        self.diag_sum += diag

        # Rooted probabilities for the tracked (Schur) roots.
        if root_of is not None:
            for idx, target in enumerate(self.tracked_roots):
                self.root_counts[:, idx] += root_of == target

        self.count += 1

    def _fold_batched(self, batch: ForestBatch) -> None:
        """Fold a whole batch with ``(B, n)`` kernels (no per-forest pass).

        Computes the sums of running :meth:`_fold` over every row of the
        batch (the diagonal sums exactly, the projected sums up to float
        summation order):

        * projected estimators: only the subtrees the estimator reads are
          summed (:meth:`~repro.sampling.batch.ForestBatch.subtree_sum_rows`,
          whose Python loop runs once per level of the forest those
          subtrees' tops form); their signed terms are summed over the
          batch into one ``(w, n)`` contribution, and the path-level prefix
          is applied once to that total.  The prefix is linear, so this
          equals prefixing every forest and summing, without ever building
          a ``(B, w, n)`` tensor;
        * diagonal estimators: every node's fixed path (at most τ steps) is
          walked, with forest ancestry tested by preorder intervals;
        * rooted-at counts from the batched pointer-doubling root map, in
          one ``bincount`` over ``(node, tracked-root column)`` pairs, where
          every untracked root falls in a spare last column.
        """
        n = self.graph.n
        if self.weights.shape[0]:
            _, targets, signs, terms, sums = _projected_terms(
                batch, self._path, self.weights)
            reduce = sp.csr_matrix((signs, (targets, terms)),
                                   shape=(n, sums.shape[0]))
            contribution = reduce @ sums
            _path_prefix(contribution, self._path)
            self.projected_sum += contribution.T

        self.diag_sum += _path_walk_diag(batch, self._path).sum(axis=0)

        if self.tracked_roots:
            width = len(self.tracked_roots) + 1
            column = np.full(n, width - 1, dtype=np.int64)
            column[self.tracked_roots] = np.arange(width - 1)
            pairs = np.arange(n) * width + column[batch.root_of()]
            counts = np.bincount(pairs.ravel(), minlength=n * width)
            self.root_counts += counts.reshape(n, width)[:, :-1]

        self.count += batch.batch_size

    # ------------------------------------------------------------------ results
    def projected_estimates(self) -> np.ndarray:
        """``(w, n)`` estimates of ``w_j^T inv(L_{-roots}) e_u``."""
        self._require_samples()
        return self.projected_sum / self.count

    def diag_estimates(self) -> np.ndarray:
        """``(n,)`` estimates of ``(inv(L_{-roots}))_uu`` (zero on roots)."""
        self._require_samples()
        return self.diag_sum / self.count

    def root_fractions(self) -> np.ndarray:
        """``(n, |tracked_roots|)`` empirical probabilities ``Pr(ρ_u = t)``.

        Rows of root-set nodes are zeroed: the Schur machinery only uses the
        interior rows ``u ∈ U``.
        """
        self._require_samples()
        fractions = self.root_counts / self.count
        fractions[self._root_mask] = 0.0
        return fractions

    def _require_samples(self) -> None:
        if self.count <= 0:
            raise InvalidParameterError("no forests sampled yet")


def run_adaptive_sampling(accumulator: ForestAccumulator, config: SamplingConfig,
                          ) -> Dict[str, float]:
    """Draw the round's forest budget in doubling batches.

    The budget is :meth:`SamplingConfig.sample_cap`,
    ``ceil(FOREST_BUDGET / eps^2)`` forests clamped to ``[min_samples,
    max_samples]``.  The batches start at ``initial_batch`` and double, so
    the sampler and the fold run on few, large batches.  The work is fixed
    by the graph and ``eps``: no statistic of the sample ends a round
    sooner (see the module docstring for why).

    Returns
    -------
    Diagnostics dictionary with the number of samples, whether the ``eps``
    budget ended the round before ``max_samples`` (``stopped_early``) and
    the budget itself (``cap``).
    """
    cap = config.sample_cap(accumulator.graph.n)
    batch = config.initial_batch
    while accumulator.count < cap:
        accumulator.add_samples(int(min(batch, cap - accumulator.count)))
        batch *= 2
    return {
        "samples": float(accumulator.count),
        "stopped_early": float(accumulator.count < config.max_samples),
        "cap": float(cap),
    }


def estimate_first_pick(graph: Graph, config: SamplingConfig,
                        seed: RandomState = None,
                        extra_roots: Sequence[int] = (),
                        held: Optional[HeldSample] = None,
                        ) -> Tuple[int, np.ndarray, Dict[str, float]]:
    """First greedy pick shared by ForestCFCM and SchurCFCM (Algorithm 3/5, lines 1-14).

    Grounds the Laplacian at a node ``s`` and estimates, for every node
    ``u`` (Lemma 3.5, which holds for any ``s``),

    ``L†_uu = Phi_{u,{s}}(u) - (2/n) Phi_{1,{s}}(u) + (1/n^2) 1^T inv(L_{-s}) 1``

    with the column sums ``Phi_{1,{s}} = 1^T inv(L_{-s})`` Jacobi-smoothed
    (:func:`jacobi_smooth`) and the diagonal ``Phi_{u,{s}}(u)`` clamped at
    its sound floor ``1/d_u`` (``(inv(L_{-s}))_uu >= 1/d_u``, the floor the
    gain denominators use), which can only bring an estimate closer to the
    truth.  The constant term does not move the argmin; it makes the scores
    estimates of ``L†_uu`` themselves.

    With fewer than two ``extra_roots``, ``s`` is the maximum-degree node
    and the forests are rooted at ``{s}``, folding one unit row.  With an
    extra root set ``T`` of two or more, ``s`` is the highest-degree node
    of ``T`` and the forests are rooted at all of ``T``, which absorbs
    walks far sooner.  They fold the unit row below the JL rows ``W`` a
    first gain round would draw, and track all of ``T``; Eq. (11) with
    ``S = {s}`` and extras ``T \\ {s}`` rebuilds ``diag(inv(L_{-s}))`` and
    ``1ᵀ inv(L_{-s})`` (the unit row's ``Q`` block is 1 on ``T \\ {s}``).
    The sample then fills ``held``, so a first gain round whose pick is in
    ``T`` (root set ``T`` again) draws nothing.  ``W`` is random on every
    column: ``s`` is in that round's ``T \\ S``.

    Returns
    -------
    (node, scores, diagnostics):
        The selected node, the estimated ``L†_uu`` vector and the sampling
        diagnostics.
    """
    rng = as_rng(seed)
    n = graph.n
    extras = sorted(set(int(t) for t in extra_roots))
    if len(extras) < 2:
        s = int(np.argmax(graph.degrees))
        weights = np.ones((1, n))
        weights[0, s] = 0.0
        accumulator = ForestAccumulator(graph, [s], weights=weights, seed=rng)
        diagnostics = run_adaptive_sampling(accumulator, config)
        columns = accumulator.projected_estimates()
        diagonal = accumulator.diag_estimates()
    else:
        s = extras[int(np.argmax(graph.degrees[extras]))]
        jl = rademacher_weights(config.jl_rows(n), n, (), rng)
        weights = np.vstack([jl, np.ones((1, n))])
        accumulator = ForestAccumulator(graph, extras, weights=weights,
                                        tracked_roots=extras, seed=rng)
        diagnostics = run_adaptive_sampling(accumulator, config)
        columns, diagonal = _reassemble(
            graph, [s], [t for t in extras if t != s], accumulator, weights)
        if held is not None:
            held.roots, held.accumulator = tuple(extras), accumulator
            held.weights, held.diagnostics = jl, diagnostics
    column_sums = jacobi_smooth(graph, [s], weights[-1:], columns[-1:])[0]
    floor = 1.0 / np.maximum(graph.degrees, 1)
    scores = np.maximum(diagonal, floor) - (2.0 / n) * column_sums
    scores[s] = 0.0
    scores += column_sums.sum() / n ** 2
    return int(np.argmin(scores)), scores, diagnostics


#: Jacobi steps :func:`jacobi_smooth` applies to every sampled column block.
SMOOTHING_STEPS = 4


def jacobi_smooth(graph: Graph, grounded: Sequence[int], weights: np.ndarray,
                  columns: np.ndarray) -> np.ndarray:
    """``SMOOTHING_STEPS`` Jacobi steps towards ``W inv(L_{-S})``.

    ``columns`` estimates the ``(w, n)`` block ``Y = W inv(L_{-S})`` (zero
    on the grounded set ``S``), which solves ``Y L_{-S} = W`` on the
    columns outside ``S``.  Each step computes ``Y ← (W + Y·A)·D⁻¹`` there,
    with the unit-weight adjacency ``A`` and degrees ``D``, and holds ``Y``
    at zero on ``S``.  The map is affine with the exact block as its fixed
    point, so an unbiased estimate stays unbiased while its error contracts
    by the spectral radius of ``D⁻¹A`` restricted to ``V \\ S`` (below 1
    on a connected graph) per step.  Applied to a forest estimate this is
    the Rao–Blackwellised forest estimator of Pilavci, Amblard, Barthelmé
    and Tremblay.  Each step is one sparse product, O(w·m).
    """
    n = graph.n
    adjacency = sp.csr_matrix(
        (np.ones(graph.adjacency.size), graph.adjacency, graph.indptr),
        shape=(n, n))
    inv_degree = (1.0 / np.maximum(graph.degrees, 1))[:, None]
    grounded = list(grounded)
    # Iterate on the (n, w) transpose: A is symmetric, so Y·A = (A·Yᵀ)ᵀ,
    # and a contiguous right-hand block is the fast sparse product.
    target = np.ascontiguousarray(np.asarray(weights, dtype=np.float64).T)
    smoothed = np.ascontiguousarray(np.asarray(columns, dtype=np.float64).T)
    for _ in range(SMOOTHING_STEPS):
        smoothed = (target + adjacency @ smoothed) * inv_degree
        smoothed[grounded] = 0.0
    return smoothed.T


def marginal_gain_estimates(graph: Graph, group: Sequence[int],
                            weights: np.ndarray, columns: np.ndarray,
                            diagonal: np.ndarray) -> Dict[int, float]:
    """``Δ(u, S) = ||column_u||² / max(diag_u, 1/d_u)`` for every ``u ∉ S``.

    ``columns`` estimates the ``(w, n)`` block ``W inv(L_{-S})`` of the JL
    matrix ``weights`` (``W``) and is Jacobi-smoothed first
    (:func:`jacobi_smooth`), so its squared column norms estimate
    ``(inv(L_{-S})^2)_uu``; ``diagonal`` estimates ``(inv(L_{-S}))_uu`` and
    is used as is.  Since ``(inv(L_{-S}))_uu >= 1/d_u`` (Neumann series),
    ``1/d_u`` is a sound floor for the denominator when the sampled
    estimate is noisy or non-positive.  Keys ascend, so ties in the greedy
    argmax go to the smallest node id.
    """
    columns = jacobi_smooth(graph, group, weights, columns)
    numerators = np.sum(columns * columns, axis=0)
    gains = numerators / np.maximum(diagonal, 1.0 / np.maximum(graph.degrees, 1))
    candidates = np.ones(gains.size, dtype=bool)
    candidates[list(group)] = False
    return {int(u): float(gains[u]) for u in np.flatnonzero(candidates)}


def estimate_forest_delta(graph: Graph, group: Sequence[int],
                          config: SamplingConfig, seed: RandomState = None,
                          ) -> Tuple[Dict[int, float], Dict[str, float]]:
    """ForestDelta (Algorithm 2): estimate ``Δ(u, S)`` for every ``u ∉ S``.

    Returns
    -------
    (gains, diagnostics):
        ``gains[u]`` approximates ``(inv(L_{-S})^2)_uu / (inv(L_{-S}))_uu``.
    """
    rng = as_rng(seed)
    group = sorted(set(int(v) for v in group))
    n = graph.n
    rows = config.jl_rows(n)
    weights = rademacher_weights(rows, n, group, rng)
    accumulator = ForestAccumulator(graph, group, weights=weights, seed=rng)
    diagnostics = run_adaptive_sampling(accumulator, config)
    gains = marginal_gain_estimates(graph, group, weights,
                                    accumulator.projected_estimates(),
                                    accumulator.diag_estimates())
    return gains, diagnostics


@dataclass
class HeldSample:
    """One forest sample of a run, held for the gain rounds after it.

    With ``U = V \\ (S ∪ T)``, the sums a round folds (``W inv(L_UU)``,
    ``diag(inv(L_UU))`` and the rooted-at fractions ``F``) estimate
    quantities of the root set ``S ∪ T`` and of the JL matrix ``W``, not of
    which roots are in ``S``.  A later round with the same root set and a
    larger ``S`` (its predecessor picked a node of ``T``) rebuilds Eq.
    (11)/(15) from them with ``F``'s columns of its own ``T \\ S``.  ``W``
    is reused as drawn: nothing reads its columns on ``S`` (``F``'s rows
    there are zero, and the smoothing holds ``S`` at zero).  Each such
    round's gains are as accurate as a fresh draw's; only the rounds'
    errors become correlated.  :func:`estimate_first_pick` fills it when it
    roots at ``T``, with a unit row below ``W`` that no gain round reads;
    :func:`estimate_schur_delta` reads and refills it.
    """

    roots: Tuple[int, ...] = ()
    accumulator: Optional[ForestAccumulator] = None
    #: The drawing round's JL matrix.
    weights: Optional[np.ndarray] = None
    diagnostics: Dict[str, float] = field(default_factory=dict)


def estimate_schur_delta(graph: Graph, group: Sequence[int], extra_roots: Sequence[int],
                         config: SamplingConfig, seed: RandomState = None,
                         held: Optional[HeldSample] = None,
                         ) -> Tuple[Dict[int, float], Dict[str, float]]:
    """SchurDelta (Algorithm 4): ``Δ(u, S)`` estimates using extra roots ``T``.

    The forests are rooted at ``S ∪ T`` — cheaper to sample and better
    conditioned — and ``inv(L_{-S})`` is reassembled through the Eq. (11)
    block representation with the sampled rooted-probability matrix ``F`` and
    the sampled Schur complement of Eq. (15).  Extra roots inside ``S`` are
    dropped; when none is left this is ForestDelta.

    With ``held``, a round rooted at the held sample's root set whose ``S``
    contains the drawing round's draws nothing and reassembles from that
    sample; its diagnostics read ``samples`` 0 and ``reused`` 1, with the
    drawing round's ``stopped_early`` and ``cap``.  Any other round draws
    as without ``held`` and stores its sample there.
    """
    rng = as_rng(seed)
    group = sorted(set(int(v) for v in group))
    extras = sorted(set(int(t) for t in extra_roots) - set(group))
    if not extras:
        return estimate_forest_delta(graph, group, config, seed=rng)

    roots = tuple(sorted(group + extras))
    # With the same root set, T among the tracked roots means that this S
    # contains the drawing round's; W is random on every other column.
    if (held is not None and held.roots == roots
            and set(extras) <= set(held.accumulator.tracked_roots)):
        accumulator, weights = held.accumulator, held.weights
        diagnostics = {**held.diagnostics, "samples": 0.0, "reused": 1.0}
    else:
        n = graph.n
        rows = config.jl_rows(n)
        # One Rademacher matrix over all non-grounded coordinates; the
        # columns on U act as the paper's W block and the columns on T as
        # its Q block.  The accumulator zeroes its own copy on S ∪ T.
        weights = rademacher_weights(rows, n, group, rng)
        accumulator = ForestAccumulator(
            graph, group + extras, weights=weights, tracked_roots=extras,
            seed=rng,
        )
        diagnostics = run_adaptive_sampling(accumulator, config)
        if held is not None:
            held.roots, held.accumulator = roots, accumulator
            held.weights, held.diagnostics = weights, diagnostics

    columns, diagonal = _reassemble(graph, group, extras, accumulator, weights)
    # The smoothing runs on the S-grounded system, T columns included.
    gains = marginal_gain_estimates(graph, group, weights, columns, diagonal)
    return gains, diagnostics


def _reassemble(graph: Graph, group: Sequence[int], extras: Sequence[int],
                accumulator: ForestAccumulator, weights: np.ndarray,
                ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`schur_reassembly` on an accumulator rooted at ``S ∪ T`` that
    tracks a superset of ``T`` and folds ``weights`` as its first rows."""
    tracked = [accumulator.tracked_roots.index(t) for t in extras]
    fractions = accumulator.root_fractions()[:, tracked]
    schur = _sampled_schur_complement(graph, group, extras, fractions)
    return schur_reassembly(
        accumulator.projected_estimates()[:len(weights)],
        accumulator.diag_estimates(), fractions, weights, extras,
        _robust_inverse(schur),
    )


def schur_reassembly(projected: np.ndarray, diagonal: np.ndarray,
                     fractions: np.ndarray, weights: np.ndarray,
                     extras: Sequence[int], inv_schur: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (11): ``W inv(L_{-S})`` and ``diag(inv(L_{-S}))`` from the blocks
    of the enlarged root set ``S ∪ T``.

    With ``U = V \\ (S ∪ T)``, ``F = -inv(L_UU) L_UT`` and the Schur
    complement ``S_T = L_TT + L_TU F``,

    ``inv(L_{-S}) = [[inv(L_UU) + F inv(S_T) Fᵀ, F inv(S_T)],
    [inv(S_T) Fᵀ, inv(S_T)]]``.

    Parameters
    ----------
    projected, diagonal:
        ``(w, n)`` ``W inv(L_UU)`` and ``(n,)`` ``diag(inv(L_UU))``, zero
        outside ``U``.
    fractions:
        ``(n, |T|)`` ``F``, zero rows outside ``U``.
    weights:
        ``(w, n)`` ``W``, zero on ``S``; its ``T`` columns are the ``Q``
        block.
    extras, inv_schur:
        ``T`` and ``inv(S_T)`` (rows and columns in the order of ``T``).

    Returns ``(w, n)`` columns and the ``(n,)`` diagonal, zero on ``S``.
    """
    extras = list(extras)
    # (w, |T|) W_U F + Q, shared by the U and the T columns.
    combined = weights @ fractions + weights[:, extras]
    corrections = inv_schur @ fractions.T  # (|T|, n): inv(S_T) f_u
    columns = projected + combined @ corrections
    diag = diagonal + np.einsum("uj,ju->u", fractions, corrections)
    columns[:, extras] = combined @ inv_schur
    diag[extras] = np.diagonal(inv_schur)
    return columns, diag


def _sampled_schur_complement(graph: Graph, group: Sequence[int],
                              extras: Sequence[int],
                              fractions: np.ndarray) -> np.ndarray:
    """Assemble the sampled ``S_T(L_{-S})`` from rooted probabilities (Eq. 15)."""
    grounded = set(int(v) for v in group)
    extras = list(extras)
    index = {t: i for i, t in enumerate(extras)}
    size = len(extras)
    schur = np.zeros((size, size))
    for t in extras:
        i = index[t]
        schur[i, i] = graph.degrees[t]
    for i, t_i in enumerate(extras):
        for t_j in graph.neighbors(t_i):
            t_j = int(t_j)
            if t_j in index and index[t_j] > i:
                schur[i, index[t_j]] -= 1.0
                schur[index[t_j], i] -= 1.0
    # Subtract, per column t_j, the rooted probabilities of the interior
    # neighbours of t_i: (L_TU F)_{ij} = -sum_{(u, t_i) in E, u in U} F[u, j].
    for t_i in extras:
        i = index[t_i]
        for u in graph.neighbors(t_i):
            u = int(u)
            if u in index or u in grounded:
                continue
            schur[i, :] -= fractions[u]
    return schur


def _robust_inverse(matrix: np.ndarray, ridge: float = 1e-10) -> np.ndarray:
    """Inverse with a tiny ridge fallback for near-singular sampled matrices."""
    matrix = np.asarray(matrix, dtype=np.float64)
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        size = matrix.shape[0]
        return np.linalg.inv(matrix + ridge * np.eye(size))
