"""Per-shard state: a mirrored dynamic subgraph plus its own CFCM engine.

Each shard owns the *interior* of one partition part and replicates the
whole separator ``T`` read-only.  The mirror is a
:class:`repro.dynamic.DynamicGraph` over ``interior ∪ T`` holding

* every real edge with at least one interior endpoint (by the partition
  invariant both endpoints of such an edge live in ``interior ∪ T``), and
* a *virtual chain* of unit edges linking consecutive separator nodes.

The chain exists purely to satisfy the connectivity guard: separator
nodes are grounded in every per-shard tracker, and grounded-row edges
never enter the kept block ``A_i = L[U_i, U_i]`` nor the non-root arrow
distribution of rooted forests, so the virtual edges are invisible to all
per-shard answers.  Separator–separator *real* edges are deliberately not
mirrored — they belong to the global Schur complement, and keeping them
out means a separator edge event touches exactly zero mirrors.

The shard's query/maintenance machinery is a full
:class:`repro.dynamic.DynamicCFCM` over the mirror (with adaptive ESS
floors on — shard pools see concentrated churn), so per-shard trackers,
forest pools, journal compaction and health reporting are all inherited
rather than reimplemented.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.centrality.estimators import SamplingConfig
from repro.dynamic.engine import DynamicCFCM
from repro.dynamic.graph import ADD, REMOVE, REWEIGHT, DynamicGraph, GraphUpdate
from repro.graph.graph import Graph


class ShardState:
    """One shard: interior ownership, separator mirror, dynamic engine.

    Parameters
    ----------
    graph:
        The *global* dynamic graph (read at construction time only; later
        changes arrive through :meth:`forward`).
    index:
        This shard's part index.
    interior:
        Stable global ids of the interior nodes owned by this shard.
    separator:
        Stable global ids of the full separator ``T`` (replicated).
    seed, config, pool_size, cache_capacity, ess_floor, backend:
        Forwarded to the shard's :class:`DynamicCFCM`.
    """

    def __init__(self, graph: DynamicGraph, index: int,
                 interior: Sequence[int], separator: Sequence[int],
                 seed: int = 0, config: Optional[SamplingConfig] = None,
                 pool_size: int = 24, cache_capacity: int = 64,
                 ess_floor: float = 0.5,
                 backend: str = "dense"):
        self.index = int(index)
        self.interior = tuple(sorted(map(int, interior)))
        self.separator = tuple(sorted(map(int, separator)))
        self.interior_set = frozenset(self.interior)

        # Mirror node universe: interiors first is NOT required — local ids
        # follow the sorted global id order so lookups stay branch-free.
        members = sorted(self.interior + self.separator)
        self.g2l: Dict[int, int] = dict(zip(members, range(len(members))))
        self.l2g: Tuple[int, ...] = tuple(members)

        # Every real edge with an interior endpoint, relabelled to local ids.
        u, v, w = graph.edge_arrays()
        bound = int(graph.node_ids()[-1]) + 1
        local = np.full(bound, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        inside = np.zeros(bound, dtype=bool)
        inside[list(self.interior)] = True
        mask = inside[u] | inside[v]
        lu, lv = local[u[mask]], local[v[mask]]
        # Virtual connectivity chain over the separator replica.  Its links
        # join two separator nodes and mirrored edges have an interior end,
        # so no link collides with a mirrored edge, and real T-T edges are
        # never mirrored, so no event ever collides with a link.
        chain = local[list(self.separator)]
        lo = np.concatenate([np.minimum(lu, lv), chain[:-1]])
        hi = np.concatenate([np.maximum(lu, lv), chain[1:]])
        weights = np.concatenate([w[mask], np.ones(max(chain.size - 1, 0))])
        # Graph sorts its edges by (lo, hi); sorting first aligns the weights.
        order = np.lexsort((hi, lo))
        topology = Graph(len(members), np.column_stack([lo[order], hi[order]]))
        mirror = DynamicGraph(topology, weights=weights[order])
        self.mirror = mirror
        self.engine = DynamicCFCM(
            mirror, seed=seed, config=config, pool_size=pool_size,
            cache_capacity=cache_capacity, ess_floor=ess_floor,
            adaptive_ess_floor=True,
            backend=backend,
        )

    def forward(self, event: GraphUpdate) -> None:
        """Replay one global *edge* event onto the mirror.

        Only called for events with at least one interior endpoint; by the
        partition invariant both endpoints are then mirror members.  The
        mirror's own journal records the translated event, which is how
        the shard engine's trackers and pools pick it up lazily.
        """
        u = self.g2l[event.u]
        v = self.g2l[event.v]
        if event.kind == ADD:
            self.mirror.add_edge(u, v, event.weight)
        elif event.kind == REMOVE:
            self.mirror.remove_edge(u, v)
        elif event.kind == REWEIGHT:
            self.mirror.update_weight(u, v, event.weight)
        else:  # pragma: no cover - engine classifies node events as structural
            raise ValueError(f"cannot forward node event {event.kind!r}")

    def grounded_group(self, group: Sequence[int]) -> Tuple[int, ...]:
        """Mirror-local grounded set for global group ``group``.

        Every separator replica is grounded (its rows belong to the global
        Schur complement), plus any group member interior to this shard.
        """
        grounded = [self.g2l[t] for t in self.separator]
        grounded.extend(self.g2l[s] for s in group if s in self.interior_set)
        return tuple(sorted(grounded))
