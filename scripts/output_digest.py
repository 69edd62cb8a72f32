"""One SHA-256 digest per engine path over its exact float outputs.

Runs five fixed-seed paths through the library and hashes every value they
return, floats as ``float.hex`` so that a digest changes with any bit.  It
prints eight lines:

* ``select``: SchurCFCM (k = 4, eps = 0.2, seeds 1-5) on the ``select``
  workload's graph, powerlaw_cluster(1000, 4, 0.3, seed 7): groups and
  iteration logs;
* ``select-groups``: the same five calls' groups alone.  A change that
  reorders float sums in the estimators moves the logged gains in their
  last bits and so the ``select`` line; this line shows whether the
  decisions moved;
* ``schur-small-T``: SchurCFCM (k = 4, eps = 0.2, seeds 1-2) on the 20x20
  grid and on WS(400, 4, 0.05, seed 13), graphs without hubs, where the
  extra root set ``T`` is the single top hub: groups and iteration logs,
  and ``schur-small-T-groups``, their groups alone;
* ``forest``: ForestCFCM (k = 4, eps = 0.2, seeds 1-2) on the ``select``
  graph, a hub graph run with ``T`` empty: groups and iteration logs, and
  ``forest-groups``, their groups alone;
* ``dynamic``: ``DynamicCFCM(backend="auto")`` on BA(2000, 3), which picks
  the sparse backend: 240 edge and node events in 6 bursts, each followed by
  exact reads and per-node resistances;
* ``sharded``: ``ShardedCFCM`` with 4 shards on a 40x40 lattice: 6 bursts
  of edge-weight toggles, each followed by exact reads and resistances.

Point ``PYTHONPATH`` at two commits' ``src`` directories to check that a
change keeps every output bit-identical::

    PYTHONPATH=src python scripts/output_digest.py
    PYTHONPATH=/path/to/parent/src python scripts/output_digest.py

The ``select``, ``dynamic`` and ``sharded`` lines change with the BLAS
thread count, so the script pins BLAS to one thread before NumPy loads, as
the benchmark does for its runs; the lines then compare across hosts.

Uses the standard library and the library under test only; about 10 s on
a 2-vCPU VM.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import hashlib  # noqa: E402
import numbers  # noqa: E402

import repro  # noqa: E402
from repro.distributed import ShardedCFCM  # noqa: E402
from repro.dynamic import DynamicCFCM, random_churn_journal  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.utils.rng import as_rng  # noqa: E402


class Digest:
    """SHA-256 over a stream of numbers, strings and nested sequences."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value, key=str):
                self.add(str(key))
                self.add(value[key])
        elif isinstance(value, (list, tuple)):
            self._hash.update(b"[")
            for item in value:
                self.add(item)
            self._hash.update(b"]")
        elif isinstance(value, (bool, str)) or value is None:
            self._hash.update(repr(value).encode())
        elif isinstance(value, numbers.Integral):  # NumPy integers too
            self._hash.update(str(int(value)).encode())
        else:
            self._hash.update(float(value).hex().encode())
        self._hash.update(b";")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def select_graph():
    return generators.powerlaw_cluster(1000, 4, 0.3, seed=7)


def greedy_paths(name: str, runs) -> dict:
    """The ``name`` line over every call's group and iteration log, and the
    ``name-groups`` line over the groups alone."""
    outputs, groups = Digest(), Digest()
    for graph, method, seed in runs:
        result = repro.maximize_cfcc(graph, 4, method=method, eps=0.2,
                                     seed=seed)
        outputs.add(list(result.group))
        outputs.add(result.iteration_log)
        groups.add(list(result.group))
    return {name: outputs.hexdigest(), f"{name}-groups": groups.hexdigest()}


def select_paths() -> dict:
    graph = select_graph()
    return greedy_paths("select", [(graph, "schur", seed)
                                   for seed in range(1, 6)])


def small_t_paths() -> dict:
    return greedy_paths("schur-small-T", [
        (graph, "schur", seed)
        for graph in (generators.grid_graph(20, 20),
                      generators.watts_strogatz(400, 4, 0.05, seed=13))
        for seed in (1, 2)])


def forest_paths() -> dict:
    graph = select_graph()
    return greedy_paths("forest", [(graph, "forest", seed) for seed in (1, 2)])


def _probe_nodes(graph, group, count):
    """``count`` live non-group nodes, spread over the id range."""
    nodes = [int(v) for v in graph.node_ids() if int(v) not in group]
    step = max(1, len(nodes) // count)
    return nodes[::step][:count]


def dynamic_path() -> str:
    engine = DynamicCFCM(generators.barabasi_albert(2000, 3, seed=0), seed=3,
                         backend="auto")
    graph = engine.graph
    degrees = {int(v): graph.degree(int(v)) for v in graph.node_ids()}
    hubs = sorted(degrees, key=lambda v: (-degrees[v], v))[:2]
    groups = [tuple(sorted(hubs)), (5, 600, 1400)]
    rng = as_rng(11)
    digest = Digest()
    for _ in range(6):
        events = random_churn_journal(graph, 40, rng, node_probability=0.2,
                                      protected=[v for g in groups for v in g])
        digest.add(len(events))
        for group in groups:
            digest.add(engine.evaluate_exact(group))
            tracker = engine.tracker(group)
            digest.add([tracker.resistance_to_group(v)
                        for v in _probe_nodes(graph, group, 8)])
    return digest.hexdigest()


def sharded_path() -> str:
    engine = ShardedCFCM(generators.grid_graph(40, 40), shards=4, seed=0)
    graph = engine.graph
    edges = sorted(graph.edges())[::37]
    groups = [(0, 820), (41, 777, 1558)]
    digest = Digest()
    for burst in range(6):
        for u, v in edges[burst % 3::3]:
            graph.update_weight(u, v, 2.0 if graph.weight(u, v) == 1.0 else 1.0)
        for group in groups:
            digest.add(engine.evaluate_exact(group))
            digest.add([engine.resistance_to_group(v, group)
                        for v in _probe_nodes(graph, group, 8)])
    return digest.hexdigest()


def main() -> None:
    for paths in (select_paths, small_t_paths, forest_paths):
        for name, digest in paths().items():
            print(f"{name:20s} {digest}")
    for name, path in (("dynamic", dynamic_path), ("sharded", sharded_path)):
        print(f"{name:20s} {path()}")


if __name__ == "__main__":
    main()
