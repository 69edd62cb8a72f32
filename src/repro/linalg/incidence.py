"""Incidence factorisation ``L_{-S} = C^T C`` of a grounded Laplacian.

The ApproxGreedy baseline estimates ``diag(inv(L_{-S}))`` through the identity

``(inv(L_{-S}))_uu = || C inv(L_{-S}) e_u ||^2``    where  ``L_{-S} = C^T C``.

For a grounded Laplacian the factor ``C`` has one row per edge with both
endpoints outside ``S`` (entries +1/-1) plus one row per edge crossing into
``S`` (a single +1 entry), so the JL lemma can compress the row dimension and
each estimate reduces to solving a handful of Laplacian systems.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.linalg.laplacian import complement_indices
from repro.utils.validation import check_group


def grounded_incidence_factor(graph: Graph, group: Sequence[int]
                              ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Factor ``C`` with ``C^T C = L_{-S}`` plus the kept-node index array.

    Rows:

    * one per edge with both endpoints outside ``S``: ``+1 / -1`` entries;
    * one per (edge, endpoint-outside-``S``) pair where the other endpoint is
      in ``S``: a single ``+1`` entry, contributing the grounded degree.
    """
    group = check_group(group, graph.n)
    kept = complement_indices(graph.n, group)
    relabel = -np.ones(graph.n, dtype=np.int64)
    relabel[kept] = np.arange(kept.size)

    grounded_mask = np.zeros(graph.n, dtype=bool)
    grounded_mask[group] = True

    rows = []
    cols = []
    data = []
    row_count = 0
    for u, v in zip(graph.edge_u, graph.edge_v):
        u, v = int(u), int(v)
        u_in, v_in = grounded_mask[u], grounded_mask[v]
        if u_in and v_in:
            continue
        if not u_in and not v_in:
            rows += [row_count, row_count]
            cols += [relabel[u], relabel[v]]
            data += [1.0, -1.0]
        elif u_in:
            rows.append(row_count)
            cols.append(relabel[v])
            data.append(1.0)
        else:
            rows.append(row_count)
            cols.append(relabel[u])
            data.append(1.0)
        row_count += 1
    factor = sp.csr_matrix(
        (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
        shape=(max(row_count, 1), kept.size),
    )
    return factor, kept
