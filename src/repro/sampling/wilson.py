"""Wilson's algorithm for uniformly sampling rooted spanning forests.

This is Algorithm 1 (``RandomForest``) of the paper: starting from each
unvisited node, simulate a random walk until it hits the growing forest, then
erase the loops of the walk and attach the resulting path.  The distribution
of the sampled forest is uniform over spanning forests rooted at ``S`` and is
independent of the order in which source nodes are processed (Wilson 1996).

The implementation keeps the per-node loop in Python (the walk is inherently
sequential) but draws random numbers in blocks and uses the CSR adjacency
arrays directly, which keeps constant factors small enough for the graph
sizes used in this reproduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DisconnectedGraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.sampling.forest import Forest
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_group


def sample_rooted_forest(graph: Graph, roots: Sequence[int],
                         seed: RandomState = None,
                         source_order: Sequence[int] | None = None,
                         ) -> Forest:
    """Sample one uniform spanning forest of ``graph`` rooted at ``roots``.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    roots:
        Non-empty node set ``S``; every tree of the forest is rooted at one of
        these nodes and every node of ``V \\ S`` appears in exactly one tree.
    seed:
        Seed or generator controlling the random walks.
    source_order:
        Optional order in which source nodes are processed.  The forest
        distribution is invariant to this order (Wilson's theorem); exposing
        it makes the invariance testable.

    Returns
    -------
    :class:`repro.sampling.Forest` with parent pointers into the graph.
    """
    roots = check_group(roots, graph.n, allow_empty=False)
    rng = as_rng(seed)

    n = graph.n
    # Plain Python lists keep the tight random-walk loop free of per-element
    # NumPy scalar overhead; the walk is the hot path of every algorithm.
    indptr, adjacency, degrees = graph.adjacency_lists()
    in_forest = bytearray(n)
    for r in roots:
        in_forest[r] = 1
    parent = [-1] * n

    if source_order is None:
        sources: Sequence[int] = range(n)
    else:
        sources = [int(v) for v in source_order]
        if sorted(set(sources)) != list(range(n)):
            raise InvalidParameterError("source_order must be a permutation of all nodes")

    # Blocked uniform draws amortise the generator call overhead.
    block_size = max(4 * n, 1024)
    randoms = rng.random(block_size).tolist()
    cursor = 0

    visit_budget = 0
    max_visits = 200 * n * max(int(np.log(max(n, 2))), 1) + 10000

    for source in sources:
        if in_forest[source]:
            continue
        # Phase 1: random walk until the current forest is hit, recording the
        # most recent successor of every visited node (automatic loop erasure).
        current = source
        while not in_forest[current]:
            degree = degrees[current]
            if degree == 0:
                raise DisconnectedGraphError(
                    f"node {current} has no neighbours; the graph must be connected"
                )
            if cursor >= block_size:
                randoms = rng.random(block_size).tolist()
                cursor = 0
            pick = int(randoms[cursor] * degree)
            cursor += 1
            if pick == degree:  # guard against the measure-zero edge case
                pick = degree - 1
            nxt = adjacency[indptr[current] + pick]
            parent[current] = nxt
            current = nxt
            visit_budget += 1
            if visit_budget > max_visits:
                raise DisconnectedGraphError(
                    "random walk failed to reach the root set; is the graph connected?"
                )
        # Phase 2: freeze the loop-erased path from the source to the forest.
        current = source
        while not in_forest[current]:
            in_forest[current] = 1
            current = parent[current]

    parent_array = np.asarray(parent, dtype=np.int64)
    parent_array[list(roots)] = -1
    return Forest(parent=parent_array, roots=np.asarray(list(roots), dtype=np.int64))


def expected_sampling_cost(graph: Graph, roots: Sequence[int]) -> float:
    """Exact expected number of random-walk steps of Wilson's algorithm.

    Lemma 3.7: the expected number of node visits is bounded by
    ``Tr((I - P_{-S})^{-1})``, the sum over nodes of the expected number of
    visits before absorption.  Computed densely; intended for analysis and for
    validating the efficiency benefit of enlarging the root set (SchurCFCM).
    """
    from repro.linalg.laplacian import grounded_transition_matrix

    submatrix, _ = grounded_transition_matrix(graph, roots)
    dense = submatrix.toarray()
    identity = np.eye(dense.shape[0])
    fundamental = np.linalg.inv(identity - dense)
    return float(np.trace(fundamental))


def empirical_root_distribution(graph: Graph, roots: Sequence[int],
                                samples: int, seed: RandomState = None,
                                method: str = "lockstep") -> np.ndarray:
    """Fraction of samples in which each node is rooted at each root.

    Returns an ``(n, len(roots))`` matrix of empirical probabilities — the
    sampled counterpart of the absorption matrix ``F`` of Lemma 4.2, used by
    tests to check the sampler against the exact linear-algebra values.

    ``method="lockstep"`` (the default) draws the samples with the
    vectorised batch sampler in memory-bounded chunks and accumulates each
    chunk with one ``bincount``; ``method="scalar"`` draws them one at a
    time with this module's sampler (one vectorised ``np.add.at`` per
    sample), which is what the lockstep kernel's distributional-equivalence
    tests compare against.
    """
    method = str(method).lower()
    if method not in ("lockstep", "scalar"):
        raise InvalidParameterError(
            f"method must be 'lockstep' or 'scalar', got {method!r}"
        )
    roots_sorted = sorted(int(r) for r in set(roots))
    n = graph.n
    width = len(roots_sorted)
    column = np.full(n, -1, dtype=np.int64)
    column[roots_sorted] = np.arange(width, dtype=np.int64)
    counts = np.zeros((n, width), dtype=np.float64)
    rng = as_rng(seed)
    nodes = np.arange(n)
    if method == "scalar":
        for _ in range(samples):
            forest = sample_rooted_forest(graph, roots_sorted, seed=rng)
            np.add.at(counts, (nodes, column[forest.root_of()]), 1.0)
        return counts / max(samples, 1)

    from repro.sampling.batch import LOCKSTEP_STATE_LIMIT, sample_forest_batch_vectorized

    chunk_size = max(1, LOCKSTEP_STATE_LIMIT // max(n, 1))
    remaining = int(samples)
    cell = nodes * width  # flat (node, column) cell index base
    while remaining > 0:
        take = min(remaining, chunk_size)
        batch = sample_forest_batch_vectorized(graph, roots_sorted, take, seed=rng)
        flat = (cell[None, :] + column[batch.root_of()]).reshape(-1)
        counts += np.bincount(flat, minlength=n * width).reshape(n, width)
        remaining -= take
    return counts / max(samples, 1)
