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

from typing import Dict, List, Optional, Sequence, Tuple

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
        self.interior = tuple(sorted(int(x) for x in interior))
        self.separator = tuple(sorted(int(x) for x in separator))
        self.interior_set = frozenset(self.interior)

        # Mirror node universe: interiors first is NOT required — local ids
        # follow the sorted global id order so lookups stay branch-free.
        members = sorted(self.interior + self.separator)
        self.g2l: Dict[int, int] = {g: i for i, g in enumerate(members)}
        self.l2g: Tuple[int, ...] = tuple(members)

        edges: List[Tuple[int, int]] = []
        weights: Dict[Tuple[int, int], float] = {}
        for u in self.interior:
            lu = self.g2l[u]
            for v in graph.neighbors(u):
                lv = self.g2l[v]
                if v in self.interior_set and v < u:
                    continue  # interior-interior edges once
                key = (lu, lv) if lu < lv else (lv, lu)
                edges.append(key)
                weights[key] = graph.weight(u, v)
        # Virtual connectivity chain over the separator replica.  A chain
        # link may shadow a real separator-separator edge; that is fine —
        # real T-T edges are never mirrored, so no event ever collides
        # with a chain link.
        sep_local = [self.g2l[t] for t in self.separator]
        for a, b in zip(sep_local, sep_local[1:]):
            key = (a, b) if a < b else (b, a)
            if key not in weights:
                edges.append(key)
                weights[key] = 1.0

        mirror = DynamicGraph(Graph(len(members), edges), weights=weights)
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
