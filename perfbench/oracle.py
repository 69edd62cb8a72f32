"""Oracles the served answers are checked against (outside the timed window).

* :func:`dense_cfcc` — from-scratch dense inverse of the grounded Laplacian;
* :func:`splu_cfcc` / :func:`splu_resistances` — a fresh sparse LU of the
  grounded Laplacian, for graphs too large for a dense inverse;
* :class:`ReplayOracle` — replays the journal events the service reported
  (``replay_events`` semantics) and evaluates an oracle at each requested
  version, so a response is checked against the graph it was computed on.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.dynamic.workload import apply_event
from repro.graph.graph import Graph


def _kept(graph: DynamicGraph, group: Sequence[int]) -> np.ndarray:
    grounded = set(graph.compact_nodes(group))
    return np.array([i for i in range(graph.n) if i not in grounded])


def dense_cfcc(graph: DynamicGraph, group: Sequence[int]) -> float:
    """Exact group CFCC ``n / Tr(inv(L_{-S}))`` from a dense inverse."""
    keep = _kept(graph, group)
    grounded = graph.laplacian_dense()[np.ix_(keep, keep)]
    return graph.n / float(np.trace(np.linalg.inv(grounded)))


def _grounded_lu(graph: DynamicGraph, group: Sequence[int]):
    keep = _kept(graph, group)
    lap = graph.laplacian_sparse().tocsc()
    # A symmetric fill-reducing ordering: COLAMD fills in badly on hubs.
    return keep, spla.splu(sp.csc_matrix(lap[np.ix_(keep, keep)]),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))


#: Identity columns solved at once by :func:`splu_cfcc` (bounds its memory).
SOLVE_BLOCK = 1000


def splu_cfcc(graph: DynamicGraph, group: Sequence[int]) -> float:
    """Exact group CFCC from a fresh sparse LU (identity solved in blocks)."""
    keep, lu = _grounded_lu(graph, group)
    size = keep.size
    trace = 0.0
    for first in range(0, size, SOLVE_BLOCK):
        cols = np.arange(first, min(first + SOLVE_BLOCK, size))
        rhs = np.zeros((size, cols.size))
        rhs[cols, np.arange(cols.size)] = 1.0
        trace += float(lu.solve(rhs)[cols, np.arange(cols.size)].sum())
    return graph.n / trace


def splu_resistances(graph: DynamicGraph, group: Sequence[int],
                     nodes: Iterable[int]) -> Dict[int, float]:
    """Exact grounded resistances ``R(u, S)`` from a fresh sparse LU."""
    keep, lu = _grounded_lu(graph, group)
    position = {int(c): i for i, c in enumerate(keep)}
    nodes = list(nodes)
    rows = [position[graph.compact_index(node)] for node in nodes]
    rhs = np.zeros((keep.size, len(rows)))
    rhs[rows, np.arange(len(rows))] = 1.0
    solved = lu.solve(rhs)
    return {node: float(solved[row, j]) for j, (node, row) in enumerate(zip(nodes, rows))}


def relative_error(served: float, reference: float) -> float:
    return abs(served - reference) / abs(reference)


class ReplayOracle:
    """Evaluates an oracle on the base graph replayed to requested versions."""

    def __init__(self, base: Graph, events: Iterable[GraphUpdate]):
        self.base = base
        self.events = sorted(events, key=lambda e: e.version)

    def final(self) -> DynamicGraph:
        """The base graph with every event applied."""
        graph = DynamicGraph(self.base)
        for event in self.events:
            apply_event(graph, event)
        return graph

    def evaluate(self, requests: Sequence[Tuple[int, Tuple[int, ...]]],
                 oracle: Callable[[DynamicGraph, Sequence[int]], float]
                 ) -> List[float]:
        """Oracle value for each ``(version, group)``, replaying forward once."""
        order = sorted(range(len(requests)), key=lambda i: requests[i][0])
        graph = DynamicGraph(self.base)
        cursor = 0
        cache: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        values: List[float] = [0.0] * len(requests)
        for index in order:
            version, group = requests[index]
            while cursor < len(self.events) and self.events[cursor].version <= version:
                apply_event(graph, self.events[cursor])
                cursor += 1
            key = (version, tuple(group))
            if key not in cache:
                cache[key] = oracle(graph, group)
            values[index] = cache[key]
        return values
