"""Structural graph statistics used by the experiment harness.

Table II of the paper reports, for every dataset, the node count, edge count,
diameter τ and the chosen additional-root-set size ``|T*|``.  This module
computes those summary statistics plus the degree moments beside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import diameter as graph_diameter


@dataclass(frozen=True)
class GraphSummary:
    """Summary statistics of a graph (one Table II row's metadata)."""

    nodes: int
    edges: int
    diameter: int
    max_degree: int
    mean_degree: float
    extra_root_size: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "diameter": self.diameter,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "extra_root_size": self.extra_root_size,
        }


def mean_degree(graph: Graph) -> float:
    """Average degree ``2m / n``."""
    return 2.0 * graph.m / graph.n if graph.n else 0.0


#: Largest ``|T*|`` scanned by :func:`extra_root_size`: SchurCFCM inverts a
#: dense ``|T| x |T|`` Schur complement every round.
EXTRA_ROOT_CAP = 64


def extra_root_size(graph: Graph, max_size: int | None = EXTRA_ROOT_CAP) -> int:
    """Size ``|T*|`` of the additional root set used by SchurCFCM.

    The paper sets ``|T*| = argmin_{|T|} { |T| - dmax(T) }`` where ``T`` always
    consists of the highest-degree nodes and ``dmax(T)`` is the maximum degree
    of the graph after removing ``T``.  The function scans the degree-sorted
    prefix sizes up to ``max_size`` (``None``: all of them) and returns the
    minimiser.
    """
    if graph.n <= 2:
        return 1
    order = np.argsort(-graph.degrees, kind="stable")
    limit = graph.n - 2 if max_size is None else min(max_size, graph.n - 2)
    limit = max(limit, 1)
    best_size = 1
    best_value = None
    removed: list[int] = []
    for size in range(1, limit + 1):
        removed.append(int(order[size - 1]))
        dmax_after = graph.max_degree(excluded=removed)
        value = size - dmax_after
        if best_value is None or value < best_value:
            best_value = value
            best_size = size
    return best_size


def summarize(graph: Graph, exact_diameter: bool | None = None,
              max_extra_roots: int | None = EXTRA_ROOT_CAP) -> GraphSummary:
    """Compute the Table II metadata columns for ``graph``."""
    if exact_diameter is None:
        exact_diameter = graph.n <= 400
    return GraphSummary(
        nodes=graph.n,
        edges=graph.m,
        diameter=graph_diameter(graph, exact=exact_diameter),
        max_degree=graph.max_degree(),
        mean_degree=mean_degree(graph),
        extra_root_size=extra_root_size(graph, max_size=max_extra_roots),
    )
