"""Lockstep vectorised batch sampling of uniform rooted spanning forests.

Monte Carlo consumers of Wilson's algorithm (the ForestCFCM/SchurCFCM
estimators, the dynamic engine's forest pools, the async service's
resampling workers) draw *batches* of independent forests.  The scalar
sampler in :mod:`repro.sampling.wilson` pays Python-interpreter cost for
every random-walk step; this module amortises that cost across the whole
batch by running all ``B`` independent Wilson processes **in lockstep** in
NumPy.

The kernel uses the *cycle-popping* formulation of Wilson's algorithm
(Wilson 1996; Propp & Wilson 1998): every non-root site of every sample
carries a stack of i.i.d. uniform arrows to a neighbour, and repeatedly
popping the arrows of any present cycle — in **any** order — almost surely
terminates with the remaining top arrows forming a uniform spanning forest
rooted at ``S``.  The familiar random-walk formulation is just one popping
schedule; this kernel uses a vectorised one:

1. draw the initial ``B x (n - |S|)`` arrow field in one shot;
2. *cheap sweeps*: detect every 2-cycle of every sample with two fancy
   gathers (``succ[succ[i]] == i``) and redraw exactly those arrows —
   cycles of a functional graph are vertex-disjoint, so popping them all
   simultaneously is a valid popping order;
3. *classification sweeps* (when 2-cycles run dry): one batched
   pointer-doubling pass per sample computes which sites already reach the
   root set (they are **decided** and leave the working set) and lands
   every other site on its attracting cycle, which is then popped —
   catching cycles of any length;
4. *scalar finish*: once the undecided residue is small (or a sweep budget
   is exhausted on a popping-hostile graph), the remaining sites are
   finished with the scalar walk.  Pre-drawn arrows are revealed-but-
   unpopped stack tops, so the walk **follows** them on first visit and
   draws fresh on revisits — exactly the continuation of the same popping
   process, not a re-draw.

Every arrow ever drawn is an independent uniform neighbour, so by the
cycle-popping theorem the batch is ``B`` i.i.d. draws from the same uniform
rooted-forest distribution as the scalar sampler (see
``tests/test_batch_sampling.py`` for the distributional equivalence suite).
The speedup is largest in the regime the paper's algorithms actually hit —
expander-like graphs rooted at a group containing hubs (greedy roots
forests at the growing group ``S``; SchurCFCM enlarges the root set with
high-degree nodes for exactly this reason).  On slow-mixing graphs (rings,
paths) the sweep budget bails out early and most of the work falls through
to the scalar finish, so the kernel degrades to roughly scalar speed
instead of losing badly.

The result is a :class:`ForestBatch`: a ``(B, n)`` parent matrix with
*batched* post-processing kernels, so the per-forest derived quantities the
estimators need are also computed without a per-forest Python pass:

* pointer doubling gives ``root_of`` and ``depths``;
* one batched DFS preorder gives every node's preorder position and subtree
  size in every forest.  The subtree of ``x`` is then the preorder interval
  ``[pre[x], pre[x] + size[x])``, so "is ``x`` a forest ancestor of ``u``"
  is one interval test;
* forest-subtree sums of weight rows are computed for the requested
  ``(sample, node)`` pairs only: pointer jumping hands every node to its
  lowest requested ancestor, one sparse product sums what each requested
  node owns, and the requested nodes add their totals into each other's a
  level at a time (:meth:`ForestBatch.subtree_sum_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DisconnectedGraphError, GraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.sampling.forest import Forest
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_group

_LOCKSTEP_CHUNKS = REGISTRY.counter(
    "repro_sampling_lockstep_chunks_total",
    "Lockstep cycle-popping chunks drawn by the vectorised sampler",
)
_LOCKSTEP_FORESTS = REGISTRY.histogram(
    "repro_sampling_lockstep_forests",
    "Forests drawn per vectorised batch request",
    buckets=SIZE_BUCKETS,
)

# The lockstep sampler keeps O(B * n) state (arrow field + working set) and
# indexes it with int32; batches whose state would exceed this many entries
# are drawn in internal chunks, and graphs beyond it fall back to the scalar
# path.
LOCKSTEP_STATE_LIMIT = 1 << 25

# Hand the residue to the scalar finish once fewer than (B * n) >> SWITCH
# pairs remain undecided: below that width the per-sweep NumPy call
# overhead costs more than the Python walk.
_SWITCH_SHIFT = 5
# Keep popping 2-cycles while a sweep pops at least max(32, K >> DRY) of
# them; below that rate run a classification sweep instead.
_DRY_SHIFT = 6
# Total vector-phase sweep budget.  Expander-like graphs finish in well
# under this; popping-hostile graphs (rings, paths) would grind through
# hundreds of low-yield sweeps, so beyond the budget the kernel bails out
# and lets the scalar finish complete the batch at scalar speed.
_MAX_SWEEPS = 48


@dataclass
class ForestBatch:
    """``B`` rooted spanning forests over one graph, stored as a matrix.

    Attributes
    ----------
    parent:
        ``(B, n)`` int64 matrix; ``parent[b, u]`` is the forest parent of
        ``u`` in sample ``b`` (``-1`` for roots).
    roots:
        Sorted root set shared by every sample.

    The derived-quantity methods mirror :class:`repro.sampling.Forest` but
    operate on the whole batch at once; :meth:`forest` materialises one row
    as a :class:`Forest` (sharing any caches already computed batch-wide).
    """

    parent: np.ndarray
    roots: np.ndarray
    _root_of: Optional[np.ndarray] = field(default=None, repr=False)
    _depth: Optional[np.ndarray] = field(default=None, repr=False)
    _pre: Optional[np.ndarray] = field(default=None, repr=False)
    _size: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.parent = np.asarray(self.parent, dtype=np.int64)
        if self.parent.ndim != 2:
            raise GraphError(
                f"batch parent matrix must be 2-D (B, n), got shape {self.parent.shape}"
            )
        self.roots = np.asarray(sorted(int(r) for r in self.roots), dtype=np.int64)
        n = self.parent.shape[1]
        if self.roots.size == 0:
            raise GraphError("a rooted forest batch needs at least one root")
        if self.roots.min() < 0 or self.roots.max() >= n:
            raise GraphError("forest roots outside node range")
        if self.parent.size and np.any(self.parent[:, self.roots] != -1):
            raise GraphError("roots must have parent -1 in every sample")

    # -------------------------------------------------------------- properties
    @property
    def batch_size(self) -> int:
        """Number of forests in the batch."""
        return int(self.parent.shape[0])

    @property
    def n(self) -> int:
        """Number of nodes per forest."""
        return int(self.parent.shape[1])

    def __len__(self) -> int:
        return self.batch_size

    # ------------------------------------------------------------ derived data
    def root_of(self) -> np.ndarray:
        """``(B, n)`` matrix: root of the tree containing each node, per sample."""
        if self._root_of is None:
            self._compute_orders()
        return self._root_of

    def depths(self) -> np.ndarray:
        """``(B, n)`` matrix of node depths (roots have depth 0)."""
        if self._depth is None:
            self._compute_orders()
        return self._depth

    def tree_sizes(self) -> np.ndarray:
        """``(B, len(roots))`` matrix of tree sizes (roots included)."""
        batch, n = self.parent.shape
        if batch == 0:
            return np.zeros((0, self.roots.size), dtype=np.int64)
        flat = self.root_of() + (np.arange(batch, dtype=np.int64) * n)[:, None]
        counts = np.bincount(flat.ravel(), minlength=batch * n).reshape(batch, n)
        return counts[:, self.roots]

    def preorder(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pre, size)``: DFS preorder positions and subtree sizes.

        Both are ``(B, n)`` int64 matrices.  Each sample's forest is walked
        depth first, roots and children in ascending node order, so
        ``pre[b]`` is a permutation of ``0 .. n - 1`` and the subtree of
        ``x`` in sample ``b`` occupies the positions
        ``pre[b, x] <= p < pre[b, x] + size[b, x]``.  Hence ``x`` is a forest
        ancestor of ``u`` (or ``u`` itself) iff ``pre[b, u]`` lies in that
        interval.
        """
        if self._pre is None:
            self._compute_preorder()
        return self._pre, self._size

    # ------------------------------------------------------------- aggregation
    def subtree_sums(self, weights: np.ndarray,
                     samples: Optional[np.ndarray] = None,
                     nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-sample forest-subtree sums of shared per-node ``weights``.

        Parameters
        ----------
        weights:
            ``(n,)`` vector or ``(w, n)`` matrix of per-node weights, shared
            by every sample of the batch.
        samples, nodes:
            Optional equal-length index arrays of ``(sample, node)`` pairs;
            only their sums are computed.

        Returns
        -------
        Without pairs, a ``(B, n)`` (vector input) or ``(B, w, n)`` (matrix
        input) array whose entry for sample ``b`` and node ``x`` is
        ``Σ_{v ∈ subtree_b(x)} weights[..., v]``.  With pairs, a ``(K,)`` or
        ``(K, w)`` array holding the sums of the ``K`` pairs in order.

        The sums come from :meth:`subtree_sum_rows`, gathered into this
        order.
        """
        index, totals = self.subtree_sum_rows(weights, samples, nodes)
        sums = totals[index]
        single = np.ndim(weights) == 1
        if samples is None:
            sums = sums.reshape(self.batch_size, self.n, totals.shape[1])
            sums = sums.transpose(0, 2, 1)
            return sums[:, 0, :] if single else sums
        return sums[:, 0] if single else sums

    def subtree_sum_rows(self, weights: np.ndarray,
                         samples: Optional[np.ndarray] = None,
                         nodes: Optional[np.ndarray] = None,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """The sums of :meth:`subtree_sums`, left in the kernel's row order.

        Takes the same arguments.  Returns ``(index, totals)``: row
        ``index[j]`` of the ``(R, w)`` matrix ``totals`` is the subtree sum
        of pair ``j``, or without pairs of sample ``j // n`` and node
        ``j % n``.  A caller that reads the sums through an index of its own
        (the estimator fold) composes the two and skips the ``(K, w)``
        gather.

        The work follows the requested nodes, in three steps over flat
        ``sample * n + node`` ids and one sentinel id, ``B * n``, that
        stands for "no such node":

        1. pointer jumping takes every node of every sample to its lowest
           requested ancestor-or-self, its *owner*;
        2. one sparse product, with one unit entry per node and sample,
           sums the weight columns each requested node owns;
        3. the requested nodes form a forest of their own (a node's parent
           there is the owner of its forest parent); its levels are added
           into their parents from the deepest up, one sparse product each.

        So the work is ``O(B n (w + log depth))`` plus ``w`` per requested
        node, and the Python loop runs once per level of the requested
        forest.  Each sample's sums are added in an order that depends on
        that sample alone.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim == 1:
            weights = weights[None, :]
        if weights.ndim != 2 or weights.shape[1] != self.n:
            raise GraphError(
                f"weights must have {self.n} columns, got shape {weights.shape}"
            )
        batch, n = self.parent.shape
        if samples is None:
            pairs = np.arange(batch * n, dtype=np.int64)
        else:
            samples = np.asarray(samples, dtype=np.int64)
            nodes = np.asarray(nodes, dtype=np.int64)
            if samples.shape != nodes.shape or samples.ndim != 1:
                raise InvalidParameterError(
                    "samples and nodes must be 1-D arrays of equal length"
                )
            if samples.size and (min(samples.min(), nodes.min()) < 0
                                 or samples.max() >= batch or nodes.max() >= n):
                raise InvalidParameterError("(sample, node) pairs outside the batch")
            pairs = samples * n + nodes
        if not (pairs.size and weights.shape[0]):
            return (np.zeros(pairs.size, dtype=np.int64),
                    np.zeros((1, weights.shape[0])))
        self.depths()  # rejects cycles, on which the jumps below never settle
        total = batch * n
        # Flat id of each node's forest parent; roots and the sentinel point
        # at the sentinel.
        base = (np.arange(batch, dtype=np.int64) * n)[:, None]
        above = np.empty(total + 1, dtype=np.int64)
        above[:total] = np.where(self.parent >= 0, self.parent + base,
                                 total).ravel()
        above[total] = total
        wanted = np.zeros(total + 1, dtype=bool)
        wanted[pairs] = True
        owner = np.where(wanted, np.arange(total + 1), above)
        while True:
            jumped = owner[owner]
            if np.array_equal(jumped, owner):
                break
            owner = jumped
        # The forest of requested nodes: a node's parent there, `up`, is the
        # owner of its forest parent.  Depths are taken over ranks among
        # `ids`; rank k is the sentinel, which tops point to.
        ids = np.flatnonzero(wanted[:total])
        up = owner[above[ids]]
        k = ids.size
        rank = np.full(total + 1, k, dtype=np.int64)
        rank[ids] = np.arange(k)
        link = np.append(rank[up], k)
        depth = (link < k).astype(np.int64)
        while True:
            jumped = link[link]
            if np.array_equal(jumped, link):
                break
            depth += depth[link]
            link = jumped
        depth = depth[:k]
        # Rows in level order; depths are small, so a narrow dtype lets the
        # stable sort run as a radix sort.
        order = np.argsort(depth.astype(np.min_scalar_type(depth.max())),
                           kind="stable")
        level_end = np.cumsum(np.bincount(depth))
        row_of = np.full(total + 1, k, dtype=np.int64)
        row_of[ids[order]] = np.arange(k)
        # Column v of `gather` holds v's owner row in every sample; row k
        # collects the nodes no requested node owns.  Each row still adds
        # its columns in node order.
        gather = sp.csc_array(
            (np.ones(total), row_of[owner[:total]].reshape(batch, n).T.ravel(),
             np.arange(0, total + 1, batch)), shape=(k + 1, n))
        totals = gather @ np.ascontiguousarray(weights.T)
        # `below` links each parent row to its child rows.
        top = int(level_end[0])
        below = sp.csr_array(
            (np.ones(k - top), (row_of[up[order[top:]]], np.arange(top, k))),
            shape=(k, k + 1))
        starts = np.concatenate([[0], level_end])
        for level in range(level_end.size - 1, 0, -1):
            lo, hi = starts[level - 1], starts[level]
            first, last = below.indptr[lo], below.indptr[hi]
            # Rows lo:hi are level - 1; their children are level `level`.
            block = sp.csr_array(
                (below.data[first:last], below.indices[first:last],
                 below.indptr[lo:hi + 1] - first), shape=(hi - lo, k + 1))
            totals[lo:hi] += block @ totals
        return row_of[pairs], totals

    # ----------------------------------------------------------- set algebra
    def uses_edge(self, u: int, v: int) -> np.ndarray:
        """``(B,)`` mask: whether each sample's parent pointers traverse (u, v)."""
        u, v = int(u), int(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(
                f"edge ({u}, {v}) outside node range [0, {self.n})"
            )
        return (self.parent[:, u] == v) | (self.parent[:, v] == u)

    def select(self, keep) -> "ForestBatch":
        """A new batch holding only the selected rows (mask or index array).

        Cached derived matrices (root maps, depths, preorder) are sliced
        along, so selection never forces a recompute.
        """
        keep = np.asarray(keep)
        # Fancy indexing already yields fresh arrays — no defensive copies.
        selected = ForestBatch(parent=self.parent[keep], roots=self.roots.copy())
        if self._root_of is not None:
            selected._root_of = self._root_of[keep]
            selected._depth = self._depth[keep]
        if self._pre is not None:
            selected._pre = self._pre[keep]
            selected._size = self._size[keep]
        return selected

    def with_leaf(self, leaf_parents: np.ndarray) -> "ForestBatch":
        """Extend every sample with a new node ``n`` attached as a leaf.

        ``leaf_parents[b]`` is the (existing) node the new node hangs off in
        sample ``b``.  This is the pool's node-insertion primitive: a rooted
        forest of ``G + z`` in which ``z`` is a leaf is exactly a rooted
        forest of ``G`` plus an independent choice of ``z``'s parent, so the
        extension keeps every stored sample a valid spanning forest of the
        grown graph.  Cached root maps and depths extend in O(B); the
        preorder is not carried over (the leaf shifts every later position),
        and is recomputed on demand.
        """
        leaf_parents = np.asarray(leaf_parents, dtype=np.int64)
        if leaf_parents.shape != (self.batch_size,):
            raise InvalidParameterError(
                f"leaf_parents must have shape ({self.batch_size},), "
                f"got {leaf_parents.shape}"
            )
        if leaf_parents.size and (
                leaf_parents.min() < 0 or leaf_parents.max() >= self.n):
            raise InvalidParameterError("leaf parents outside node range")
        parent = np.concatenate([self.parent, leaf_parents[:, None]], axis=1)
        grown = ForestBatch(parent=parent, roots=self.roots.copy())
        if self._root_of is not None:
            rows = np.arange(self.batch_size)
            grown._root_of = np.concatenate(
                [self._root_of, self._root_of[rows, leaf_parents][:, None]],
                axis=1)
            grown._depth = np.concatenate(
                [self._depth, (self._depth[rows, leaf_parents] + 1)[:, None]],
                axis=1)
        return grown

    @classmethod
    def concatenate(cls, batches: List["ForestBatch"]) -> "ForestBatch":
        """Stack batches over the same graph and root set into one."""
        if not batches:
            raise InvalidParameterError("concatenate needs at least one batch")
        first = batches[0]
        for batch in batches[1:]:
            if batch.n != first.n or not np.array_equal(batch.roots, first.roots):
                raise InvalidParameterError(
                    "all batches must share node count and roots"
                )
        return cls(parent=np.vstack([b.parent for b in batches]),
                   roots=first.roots.copy())

    # ------------------------------------------------------------ materialise
    def forest(self, index: int) -> Forest:
        """Row ``index`` as a standalone :class:`Forest` (caches carried over)."""
        index = int(index)
        if not 0 <= index < self.batch_size:
            raise InvalidParameterError(
                f"forest index {index} outside batch of {self.batch_size}"
            )
        forest = Forest(parent=self.parent[index].copy(), roots=self.roots.copy())
        if self._root_of is not None:
            forest._root_of = self._root_of[index].copy()
            forest._depth = self._depth[index].copy()
            forest._order = np.argsort(forest._depth, kind="stable").astype(np.int64)
        return forest

    def forests(self) -> List[Forest]:
        """The whole batch as a list of :class:`Forest` objects."""
        return [self.forest(i) for i in range(self.batch_size)]

    def __iter__(self) -> Iterator[Forest]:
        return iter(self.forests())

    def __getitem__(self, index: int) -> Forest:
        return self.forest(index)

    # --------------------------------------------------------------- internals
    def _compute_orders(self) -> None:
        """Batched pointer-doubling pass for depths and tree roots."""
        batch, n = self.parent.shape
        if batch == 0:
            self._root_of = np.zeros((0, n), dtype=np.int64)
            self._depth = np.zeros((0, n), dtype=np.int64)
            return
        if self.parent.max() >= n:
            raise GraphError("forest parents outside node range")
        # Pointers over flat (sample, node) ids, so each jump is one gather.
        base = (np.arange(batch, dtype=np.int64) * n)[:, None]
        pointer = (np.where(self.parent < 0, np.arange(n), self.parent)
                   + base).ravel()
        distance = (self.parent >= 0).astype(np.int64).ravel()
        for _ in range(max(int(np.ceil(np.log2(max(n, 2)))), 1) + 1):
            next_pointer = pointer[pointer]
            if np.array_equal(next_pointer, pointer):
                break
            distance += distance[pointer]
            pointer = next_pointer
        pointer = pointer.reshape(batch, n) - base
        distance = distance.reshape(batch, n)
        root_mask = np.zeros(n, dtype=bool)
        root_mask[self.roots] = True
        if np.any(self.parent[:, ~root_mask] < 0):
            bad = int(np.flatnonzero(np.any(self.parent < 0, axis=0) & ~root_mask)[0])
            raise GraphError(f"node {bad} has no parent but is not a root")
        if not bool(root_mask[pointer].all()):
            sample, node = [int(v[0]) for v in np.nonzero(~root_mask[pointer])]
            raise GraphError(
                f"node {node} of sample {sample} unreachable from any root"
            )
        self._root_of = pointer
        self._depth = distance

    def _compute_preorder(self) -> None:
        """Batched DFS preorder: sizes bottom-up, positions top-down.

        One stable radix sort of every ``(sample, node)`` pair by (depth,
        parent) makes each depth level contiguous and, inside it, each
        parent's children adjacent in ascending node order.  The sort reads
        the parent's id within its sample: pairs that tie keep their
        sample-major order, so the children of one parent in one sample stay
        adjacent, and ids below 2^16 take one pass.  Subtree sizes
        are added onto the parents a level at a time from the deepest; a
        child's offset below its parent is the total size of the siblings
        before it (a running sum inside its sibling group); positions then
        fill in from the roots down as ``pre[child] = pre[parent] + 1 +
        offset``.  The roots of a sample form one sibling group, so their
        offsets are their positions.
        """
        batch, n = self.parent.shape
        if batch == 0:
            self._pre = np.zeros((0, n), dtype=np.int64)
            self._size = np.zeros((0, n), dtype=np.int64)
            return
        total = batch * n
        depth = self.depths().ravel()
        samples = np.arange(batch, dtype=np.int64)
        # Flat parent id of every pair; a sample's roots share the parent -1 - b.
        group = np.where(self.parent >= 0, self.parent + (samples * n)[:, None],
                         -1 - samples[:, None]).ravel()
        # Stable LSD passes over 16-bit digits of the local parent id plus
        # one (roots 0), lowest first, then over the depth: a stable argsort
        # of a 16-bit or narrower dtype runs as a radix sort.
        key = (self.parent + 1).ravel()
        order = np.argsort(key.astype(np.uint16), kind="stable")
        for shift in range(16, int(key.max()).bit_length(), 16):
            digit = (key[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        level = depth.astype(np.min_scalar_type(depth.max()))
        order = order[np.argsort(level[order], kind="stable")]
        group = group[order]
        level_end = np.cumsum(np.bincount(depth))
        size = np.ones(total, dtype=np.int64)
        for level in range(level_end.size - 1, 0, -1):
            lo, hi = level_end[level - 1], level_end[level]
            np.add.at(size, group[lo:hi], size[order[lo:hi]])
        sorted_size = size[order]
        before = np.cumsum(sorted_size) - sorted_size
        first = np.ones(total, dtype=bool)
        first[1:] = group[1:] != group[:-1]
        # `before` never decreases, so the running maximum of its values at
        # group starts is the value at the current group's start.
        offset = before - np.maximum.accumulate(np.where(first, before, 0))
        pre = np.empty(total, dtype=np.int64)
        pre[order[:level_end[0]]] = offset[:level_end[0]]
        for level in range(1, level_end.size):
            lo, hi = level_end[level - 1], level_end[level]
            pre[order[lo:hi]] = pre[group[lo:hi]] + 1 + offset[lo:hi]
        self._pre = pre.reshape(batch, n)
        self._size = size.reshape(batch, n)


def sample_forest_batch_vectorized(graph: Graph, roots, count: int,
                                   seed: RandomState = None) -> ForestBatch:
    """Sample ``count`` independent rooted forests with lockstep kernels.

    All ``count`` Wilson processes advance simultaneously through the
    vectorised cycle-popping schedule described in the module docstring:
    one bulk draw of every sample's arrow field, vectorised 2-cycle pops,
    batched pointer-doubling classification sweeps, and a scalar finish for
    the residue.  Every arrow is an i.i.d. uniform neighbour and only
    cycles are ever popped, so by Wilson's cycle-popping theorem the batch
    is ``count`` independent draws from the *same* uniform rooted-forest
    distribution as :func:`repro.sampling.sample_rooted_forest`.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    roots:
        Non-empty root set ``S`` shared by every sample.
    count:
        Number of independent forests to draw.  Batches whose ``count * n``
        state exceeds :data:`LOCKSTEP_STATE_LIMIT` are drawn in internal
        chunks.
    seed:
        Seed or generator; a given seed fully determines the batch (the
        stream differs from the scalar sampler's, which consumes randoms
        one walk at a time).

    Returns
    -------
    :class:`ForestBatch` holding the ``(count, n)`` parent matrix.
    """
    roots = check_group(roots, graph.n, allow_empty=False)
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")
    rng = as_rng(seed)
    n = graph.n
    count = int(count)
    root_arr = np.asarray(list(roots), dtype=np.int64)
    if count == 0:
        return ForestBatch(parent=np.empty((0, n), dtype=np.int64), roots=root_arr)

    _LOCKSTEP_FORESTS.observe(count)
    with trace("sampling.lockstep", forests=count, n=n) as span:
        if (n > LOCKSTEP_STATE_LIMIT
                or 2 * graph.m > np.iinfo(np.int32).max
                or (graph.degrees.size and int(graph.degrees.max()) > (1 << 24))):
            # The kernel's int32 pair/CSR indexing would overflow (huge n or
            # adjacency), or a hub's degree exceeds the float32 mantissa so
            # the cheap arrow draw could not reach all its neighbours; this
            # regime belongs to the scalar path.
            from repro.sampling.wilson import sample_rooted_forest

            span.set(path="scalar")
            rows = [sample_rooted_forest(graph, roots, seed=rng).parent
                    for _ in range(count)]
            return ForestBatch(parent=np.vstack(rows), roots=root_arr)
        chunk = max(1, LOCKSTEP_STATE_LIMIT // max(n, 1))
        if count > chunk:
            pieces = []
            remaining = count
            while remaining > 0:
                take = min(remaining, chunk)
                pieces.append(_sample_chunk(graph, root_arr, take, rng))
                _LOCKSTEP_CHUNKS.inc()
                remaining -= take
            span.set(chunks=len(pieces))
            return ForestBatch(parent=np.vstack(pieces), roots=root_arr)
        parent = _sample_chunk(graph, root_arr, count, rng)
        _LOCKSTEP_CHUNKS.inc()
        span.set(chunks=1)
        return ForestBatch(parent=parent, roots=root_arr)


def _sample_chunk(graph: Graph, root_arr: np.ndarray, batch: int,
                  rng: np.random.Generator) -> np.ndarray:
    """One lockstep cycle-popping pass; returns the ``(batch, n)`` parents."""
    n = graph.n
    index_dtype = np.int32
    indptr = graph.indptr.astype(index_dtype)
    adjacency = graph.adjacency.astype(index_dtype)
    degrees = graph.degrees.astype(index_dtype)
    degrees_f = graph.degrees.astype(np.float32)
    root_mask = np.zeros(n, dtype=bool)
    root_mask[root_arr] = True
    isolated = np.flatnonzero(~root_mask & (graph.degrees == 0))
    if isolated.size:
        raise DisconnectedGraphError(
            f"node {int(isolated[0])} has no neighbours; the graph must be connected"
        )

    def draw_arrows(nodes: np.ndarray) -> np.ndarray:
        """One uniform-neighbour arrow per node (float32 keeps draws cheap)."""
        r = rng.random(nodes.size, dtype=np.float32)
        pick = (r * degrees_f[nodes]).astype(index_dtype)
        np.minimum(pick, degrees[nodes] - 1, out=pick)  # measure-zero guard
        return adjacency[indptr[nodes] + pick]

    # Arrow field over flat (sample, node) pairs; roots self-loop so a chain
    # entering the root set saturates there.
    nonroot = np.flatnonzero(~root_mask).astype(index_dtype)
    succ = np.arange(batch * n, dtype=index_dtype)
    # Working set of undecided pairs, kept as one (3, K) int32 matrix so
    # shrinking it is a single boolean compress: rows are the flat pair id,
    # the node id, and the sample base (pair id - node id).
    state = np.empty((3, batch * nonroot.size), dtype=index_dtype)
    state[2] = np.repeat(np.arange(batch, dtype=index_dtype) * n, nonroot.size)
    state[1] = np.tile(nonroot, batch)
    state[0] = state[2] + state[1]
    if state.shape[1]:
        succ[state[0]] = state[2] + draw_arrows(state[1])

    rank_of = np.full(batch * n, -1, dtype=index_dtype)
    rank_buf = np.arange(batch * n, dtype=index_dtype)
    doubling_passes = max(int(np.ceil(np.log2(max(n, 2)))), 1) + 1
    switch = (batch * n) >> _SWITCH_SHIFT
    sweeps = 0

    while state.shape[1] > switch and sweeps < _MAX_SWEEPS:
        idx, node, sbase = state
        total = idx.size
        # Cheap sweep: pop every 2-cycle of every sample at once.
        two_cycle = succ[succ[idx]] == idx
        hits = int(np.count_nonzero(two_cycle))
        sweeps += 1
        if hits:
            succ[idx[two_cycle]] = sbase[two_cycle] + draw_arrows(node[two_cycle])
        if hits >= max(32, total >> _DRY_SHIFT):
            continue
        # Classification sweep: batched pointer doubling decides which pairs
        # reach the root set (pruned from the working set) and lands every
        # other pair on its attracting cycle, which is then popped.
        sweeps += 1
        rank_of[idx] = rank_buf[:total]
        compact = rank_of[succ[idx]]
        pointer = np.empty(total + 1, dtype=index_dtype)
        pointer[:total] = compact
        np.copyto(pointer[:total], total, where=compact < 0)
        pointer[total] = total
        scratch = np.empty_like(pointer)
        for _ in range(doubling_passes):
            np.take(pointer, pointer, out=scratch)
            pointer, scratch = scratch, pointer
        landing = pointer[:total]
        undecided = landing != total
        rank_of[idx] = -1
        if not undecided.any():
            state = state[:, :0]
            break
        on_cycle = np.zeros(total, dtype=bool)
        on_cycle[landing[undecided]] = True
        succ[idx[on_cycle]] = sbase[on_cycle] + draw_arrows(node[on_cycle])
        state = state[:, undecided]

    parent = succ.astype(np.int64)
    parent -= np.repeat(np.arange(batch, dtype=np.int64) * n, n)
    parent = parent.reshape(batch, n)
    parent[:, root_arr] = -1
    if state.shape[1]:
        _scalar_finish(graph, root_arr, parent, state[0], rng)
    return parent


def _scalar_finish(graph: Graph, root_arr: np.ndarray, parent: np.ndarray,
                   undecided: np.ndarray, rng: np.random.Generator) -> None:
    """Finish the undecided pairs of each sample with the scalar walk.

    The pre-drawn arrows of undecided nodes are revealed-but-unpopped stack
    tops of the cycle-popping process, so the walk *follows* them on a
    node's first visit and only draws fresh randomness on revisits (a
    revisit closes a cycle through the node, which pops its arrow).  This
    continues the exact same popping process the vector phase ran, so the
    joint distribution is unchanged.  Decided pairs act as the grown forest
    (walks attach to them), mirroring ``sample_rooted_forest``.
    """
    n = graph.n
    indptr, adjacency, degrees = graph.adjacency_lists()
    sample_of = (undecided.astype(np.int64)) // n
    node_of = (undecided.astype(np.int64)) % n
    order = np.argsort(sample_of, kind="stable")
    sample_of, node_of = sample_of[order], node_of[order]

    block_size = 4096
    randoms = rng.random(block_size).tolist()
    cursor = 0
    max_visits = 200 * n * max(int(math.log(max(n, 2))), 1) + 10000

    start = 0
    total = sample_of.size
    while start < total:
        b = int(sample_of[start])
        stop = start
        while stop < total and sample_of[stop] == b:
            stop += 1
        sources = node_of[start:stop]
        decided = np.ones(n, dtype=bool)
        decided[sources] = False
        in_forest = bytearray(decided.tobytes())
        parent_list = parent[b].tolist()
        fresh = bytearray(n)
        for u in sources:
            fresh[u] = 1
        visits = 0
        for source in sources:
            source = int(source)
            if in_forest[source]:
                continue
            current = source
            while not in_forest[current]:
                if fresh[current]:
                    # First visit: reveal the pre-drawn (unpopped) arrow.
                    fresh[current] = 0
                    current = parent_list[current]
                else:
                    degree = degrees[current]
                    if cursor >= block_size:
                        randoms = rng.random(block_size).tolist()
                        cursor = 0
                    pick = int(randoms[cursor] * degree)
                    cursor += 1
                    if pick == degree:  # guard against the measure-zero edge case
                        pick = degree - 1
                    nxt = adjacency[indptr[current] + pick]
                    parent_list[current] = nxt
                    current = nxt
                visits += 1
                if visits > max_visits:
                    raise DisconnectedGraphError(
                        "random walk failed to reach the root set; "
                        "is the graph connected?"
                    )
            current = source
            while not in_forest[current]:
                in_forest[current] = 1
                current = parent_list[current]
        parent[b] = parent_list
        parent[b, root_arr] = -1
        start = stop
