"""Churn drivers: the mutation side of a world, layered on the workload module.

Each driver turns a :class:`repro.worlds.spec.ChurnSpec` regime into a stream
of valid journal events against a :class:`repro.dynamic.DynamicGraph`.  The
single-event :meth:`ChurnDriver.step` API exists so the same driver can feed
both front ends: the synchronous sweep applies steps directly, while the
service-mode sweep submits each step as a writer-side mutation callable to
:class:`repro.service.AsyncCFCMService` (the mutation is drawn at apply
time, exactly like :func:`repro.dynamic.poisson_traffic` does).

The regimes are the three documented stress patterns plus a baseline:

* ``bursty_joins`` — node insertions only: every stored forest is extended
  by a leaf attachment, insertions never flush, so pools should survive
  with high ESS.  This is the friendly regime.
* ``adversarial_deletions`` — hub-targeted edge deletions: the driver ranks
  nodes by degree and deletes edges incident to the hottest hubs (retrying
  bridges), which is close to a worst case for forest pools because hub
  edges carry a large fraction of the forest distribution's mass — each
  deletion kills many stored forests at once and drives ESS to the floor.
* ``reweight_storm`` — log-uniform weight perturbations on random edges
  (via :func:`repro.dynamic.apply_random_reweight`), followed by a restore
  phase (:meth:`ChurnDriver.finish`) that puts every perturbed edge back to
  weight 1.  Mid-storm the graph is weighted (exact evaluations only);
  after the storm passes the pools' exact density-ratio round trips must
  have cancelled, which the sweep's forest-accuracy gate checks.
* ``mixed`` — the bursty mixed edge/node stream of
  :func:`repro.dynamic.random_churn_journal` (the historical benchmark
  regime).
* ``none`` — no mutations (static-world baseline).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.dynamic.workload import (
    apply_random_node_event,
    apply_random_reweight,
    apply_random_update,
)
from repro.exceptions import DisconnectedGraphError, InvalidParameterError
from repro.utils.rng import RandomState, as_rng


class ChurnDriver:
    """Base driver: one valid journal event per :meth:`step` call.

    ``protected`` nodes (the sweep's monitored group) are never removed by
    any regime, so monitoring evaluations stay well-defined for the whole
    world.  :meth:`finish` runs once after the mutation budget is spent;
    only the reweight storm uses it (to restore perturbed weights).
    """

    regime = "none"

    def __init__(self, protected: Sequence[int] = (),
                 intensity: float = 1.0):
        self.protected = tuple(int(v) for v in protected)
        if intensity <= 0.0:
            raise InvalidParameterError(
                f"churn intensity must be positive, got {intensity}"
            )
        self.intensity = float(intensity)

    def step(self, graph: DynamicGraph,
             rng: RandomState = None) -> Optional[GraphUpdate]:
        """Apply one event; ``None`` when no valid mutation exists."""
        return None

    def finish(self, graph: DynamicGraph) -> List[GraphUpdate]:
        """Post-budget cleanup events (default: none)."""
        return []


class BurstyJoins(ChurnDriver):
    """Node insertions only: each new node attaches to 1..ceil(3*intensity)
    random existing nodes with unit weights."""

    regime = "bursty_joins"

    def step(self, graph: DynamicGraph,
             rng: RandomState = None) -> Optional[GraphUpdate]:
        rng = as_rng(rng)
        attachments = max(1, int(round(3 * self.intensity)))
        return apply_random_node_event(graph, rng, add_probability=1.0,
                                       max_attachments=attachments,
                                       protected=self.protected)


class AdversarialDeletions(ChurnDriver):
    """Hub-targeted edge deletions (the pool-hostile regime).

    Each step samples a node from the top-degree band (band width shrinks
    as ``intensity`` grows, i.e. higher intensity is more sharply
    hub-focused), then tries to delete one of its incident edges, preferring
    the neighbour with the highest degree; deletions that would disconnect
    the graph fall through to the next neighbour, then to the next hub, and
    finally to a uniform random deletion.
    """

    regime = "adversarial_deletions"

    def step(self, graph: DynamicGraph,
             rng: RandomState = None) -> Optional[GraphUpdate]:
        rng = as_rng(rng)
        adjacency: Dict[int, List[int]] = {}
        for u, v in graph.edges():
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        if not adjacency:
            return None
        by_degree = sorted(adjacency, key=lambda node: -len(adjacency[node]))
        band = max(1, int(round(len(by_degree) / (4.0 * self.intensity))))
        hubs = list(by_degree[:band])
        rng.shuffle(hubs)
        for hub in hubs[:4]:
            neighbours = sorted(adjacency[hub],
                                key=lambda node: -len(adjacency[node]))
            for neighbour in neighbours:
                try:
                    return graph.remove_edge(hub, neighbour)
                except DisconnectedGraphError:
                    continue
        # Every hub edge is a bridge (ring-like neighbourhoods): fall back
        # to a random update that tries deletions first.  It draws node
        # pairs, so on a sparse graph it usually inserts an edge instead.
        return apply_random_update(graph, rng, add_probability=0.0)


class ReweightStorm(ChurnDriver):
    """Log-uniform weight perturbations, restored when the storm passes.

    ``intensity`` scales the log-range: factors are drawn from
    ``exp(U(-intensity*log 4, +intensity*log 4))``.  :meth:`finish` walks
    every perturbed edge that still exists and resets it to weight 1, so a
    completed storm leaves the graph unit-weighted and each surviving
    forest's importance weight must have cancelled back to its pre-storm
    value (an exact property of the density-ratio reweighting law).
    """

    regime = "reweight_storm"

    def __init__(self, protected: Sequence[int] = (), intensity: float = 1.0):
        super().__init__(protected, intensity)
        self._perturbed: Set[Tuple[int, int]] = set()

    def step(self, graph: DynamicGraph,
             rng: RandomState = None) -> Optional[GraphUpdate]:
        rng = as_rng(rng)
        spread = 4.0 ** self.intensity
        event = apply_random_reweight(graph, rng, low=1.0 / spread, high=spread)
        if event is not None:
            key = (min(event.u, event.v), max(event.u, event.v))
            self._perturbed.add(key)
        return event

    def finish(self, graph: DynamicGraph) -> List[GraphUpdate]:
        events: List[GraphUpdate] = []
        for u, v in sorted(self._perturbed):
            if not (graph.has_node(u) and graph.has_node(v)
                    and graph.has_edge(u, v)):
                continue
            event = graph.update_weight(u, v, 1.0)
            if event is not None:
                events.append(event)
        self._perturbed.clear()
        return events


class MixedChurn(ChurnDriver):
    """The historical bursty mixed regime: edges mostly, some node churn."""

    regime = "mixed"

    def step(self, graph: DynamicGraph,
             rng: RandomState = None) -> Optional[GraphUpdate]:
        rng = as_rng(rng)
        node_probability = min(0.2 * self.intensity, 0.9)
        if float(rng.random()) < node_probability:
            return apply_random_node_event(graph, rng,
                                           protected=self.protected)
        return apply_random_update(graph, rng)


_DRIVERS = {
    driver.regime: driver
    for driver in (ChurnDriver, BurstyJoins, AdversarialDeletions,
                   ReweightStorm, MixedChurn)
}


def make_churn_driver(regime: str, protected: Sequence[int] = (),
                      intensity: float = 1.0) -> ChurnDriver:
    """Instantiate the driver for a :class:`ChurnSpec` regime name."""
    try:
        cls = _DRIVERS[str(regime)]
    except KeyError:
        raise InvalidParameterError(
            f"unknown churn regime {regime!r} (expected one of "
            f"{sorted(_DRIVERS)})"
        ) from None
    return cls(protected=protected, intensity=intensity)


def run_burst(driver: ChurnDriver, graph: DynamicGraph, count: int,
              rng: RandomState = None) -> List[GraphUpdate]:
    """Apply one burst of up to ``count`` events; returns those applied."""
    rng = as_rng(rng)
    events: List[GraphUpdate] = []
    for _ in range(int(count)):
        event = driver.step(graph, rng)
        if event is not None:
            events.append(event)
    return events


def churn_summary(events: Sequence[GraphUpdate]) -> Dict[str, int]:
    """Event-kind histogram of an applied journal (for sweep rows)."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return dict(sorted(counts.items()))


__all__ = [
    "AdversarialDeletions",
    "BurstyJoins",
    "ChurnDriver",
    "MixedChurn",
    "ReweightStorm",
    "churn_summary",
    "make_churn_driver",
    "run_burst",
]
