"""The size of SchurCFCM's additional root set.

Table II of the paper reports, for every dataset, the chosen
additional-root-set size ``|T*|`` beside the node count, edge count and
diameter τ; :func:`extra_root_size` computes it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph


def extra_root_size(graph: Graph) -> int:
    """Size ``|T*|`` of the additional root set used by SchurCFCM.

    ``T`` is always a prefix of the nodes sorted by degree, and
    ``dmax(V \\ T)`` is the largest degree left after deleting ``T`` and
    its edges.  Taken literally, the paper's rule
    ``argmin_{|T|} { |T| - dmax(V \\ T) }`` is degenerate: each added hub
    raises ``|T|`` by 1 and cannot raise ``dmax``, so the objective rises at
    every step and its minimiser is always ``|T| = 1`` (it was on every
    graph it was tried on, from a grid to a 16,000-node power-law graph).
    This function minimises ``|T| + dmax(V \\ T)`` instead, which trades
    the ``|T|``-sized Schur complement against the degree bound of the
    sampling cost: it gives 17 on a 1000-node power-law graph and 5 on
    Karate, and 1 on graphs without hubs (grids, small worlds).  Ties go to
    the smaller ``|T|``.

    The scan removes one hub at a time from a degree array.  The objective
    is at least ``|T|``, so it stops once ``|T|`` reaches the best value
    found: no larger ``T`` can do better.
    """
    if graph.n <= 2:
        return 1
    order = np.argsort(-graph.degrees, kind="stable")
    remaining = graph.degrees.copy()
    # Every value is at most 1 + (n - 2), so the first size sets the best.
    best_size, best_value = 1, graph.n
    for size in range(1, graph.n - 1):
        if size >= best_value:
            break
        hub = order[size - 1]
        remaining[graph.neighbors(hub)] -= 1
        remaining[hub] = 0
        value = size + int(remaining.max())
        if value < best_value:
            best_size, best_value = size, value
    return best_size
