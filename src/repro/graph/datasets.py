"""Benchmark datasets: embedded tiny graphs and synthetic stand-ins.

The paper evaluates on real networks from KONECT / SNAP / Network Repository
(Table II) plus four tiny graphs for the optimality study (Fig. 1).  Those
datasets are not redistributable inside this repository and most are far too
large for a pure-Python reproduction, so this module provides:

* :func:`karate` — Zachary's karate club (34 nodes), embedded exactly; it is
  one of the Fig. 1 graphs.
* :func:`zebra_substitute`, :func:`contiguous_usa_substitute`,
  :func:`dolphins_substitute` — deterministic connected graphs of the same
  size class (23, 49 and 62 nodes) standing in for the remaining Fig. 1
  graphs.  Fig. 1 only requires graphs small enough for brute-force optimum
  search, so any small connected graph exercises the same comparison.
* :func:`paper_network` / :data:`PAPER_NETWORKS` — a registry mapping every
  Table II dataset name to a synthetic generator call of the same *tier*
  (scale-free or small-world, similar average degree) scaled to laptop size.
  The registry keeps the relative ordering of sizes and densities so the
  efficiency experiments preserve the paper's qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph import generators

# Zachary's karate club, the standard 34-node social network (0-indexed).
_KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2),
    (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30), (2, 3),
    (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32), (3, 7),
    (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16), (6, 16),
    (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]


def karate() -> Graph:
    """Zachary's karate club graph (34 nodes, 78 edges)."""
    return Graph(34, _KARATE_EDGES)


def zebra_substitute() -> Graph:
    """23-node stand-in for the Zebra contact network (Fig. 1a).

    A deterministic Watts–Strogatz small-world graph of matching size; the
    original animal-contact network is dense and clustered, which the ring
    lattice with rewiring mimics.
    """
    return generators.watts_strogatz(23, 4, 0.2, seed=7)


def contiguous_usa_substitute() -> Graph:
    """49-node stand-in for the contiguous-USA adjacency graph (Fig. 1c).

    The original is a sparse planar adjacency graph; a 7x7 grid has the same
    node count and planar, low-degree structure.
    """
    return generators.grid_graph(7, 7)


def dolphins_substitute() -> Graph:
    """62-node stand-in for the Dolphins social network (Fig. 1d).

    A deterministic power-law-cluster graph of matching size; the original is
    a small social network with hubs and clustering.
    """
    return generators.powerlaw_cluster(62, 2, 0.3, seed=11)


def tiny_suite() -> Dict[str, Graph]:
    """The four Fig. 1 graphs (one exact, three substitutes)."""
    return {
        "Zebra*": zebra_substitute(),
        "Karate": karate(),
        "Cont. USA*": contiguous_usa_substitute(),
        "Dolphins*": dolphins_substitute(),
    }


@dataclass(frozen=True)
class NetworkSpec:
    """A synthetic stand-in for one of the paper's real-world datasets."""

    name: str
    paper_nodes: int
    paper_edges: int
    tier: str
    builder: Callable[[], Graph]
    description: str

    def build(self) -> Graph:
        """Construct the stand-in graph."""
        return self.builder()


def _spec(name: str, paper_nodes: int, paper_edges: int, tier: str,
          builder: Callable[[], Graph], description: str) -> NetworkSpec:
    return NetworkSpec(name, paper_nodes, paper_edges, tier, builder, description)


# Synthetic stand-ins mirror the *relative* size/density ladder of Table II
# but scaled down roughly 10-100x so that the exact baselines stay feasible in
# pure Python.  Scale-free datasets map to Barabási–Albert / power-law-cluster
# graphs, infrastructure networks map to small-world / geometric graphs.
PAPER_NETWORKS: Dict[str, NetworkSpec] = {
    spec.name: spec
    for spec in [
        _spec("Euroroads", 1039, 1305, "tiny",
              lambda: generators.watts_strogatz(512, 4, 0.05, seed=1),
              "sparse road network -> small-world ring with light rewiring"),
        _spec("Hamsterster", 2000, 16097, "small",
              lambda: generators.powerlaw_cluster(600, 8, 0.3, seed=2),
              "dense social network -> power-law cluster graph"),
        _spec("Facebook", 4039, 88234, "small",
              lambda: generators.powerlaw_cluster(800, 16, 0.4, seed=3),
              "very dense ego network -> dense power-law cluster graph"),
        _spec("GR-QC", 4158, 13428, "small",
              lambda: generators.powerlaw_cluster(900, 3, 0.4, seed=4),
              "collaboration network -> sparse clustered scale-free graph"),
        _spec("web-EPA", 4253, 8897, "small",
              lambda: generators.barabasi_albert(1000, 2, seed=5),
              "hyperlink network -> sparse scale-free graph"),
        _spec("Routeviews", 6474, 13895, "small",
              lambda: generators.barabasi_albert(1200, 2, seed=6),
              "autonomous-systems graph -> sparse scale-free graph"),
        _spec("soc-PagesGov", 7057, 89429, "medium",
              lambda: generators.powerlaw_cluster(1400, 12, 0.3, seed=7),
              "dense social pages graph -> dense power-law cluster graph"),
        _spec("HEP-Th", 8638, 24827, "medium",
              lambda: generators.powerlaw_cluster(1600, 3, 0.4, seed=8),
              "collaboration network -> clustered scale-free graph"),
        _spec("Astro-Ph", 17903, 197031, "medium",
              lambda: generators.powerlaw_cluster(2000, 10, 0.3, seed=9),
              "dense collaboration network -> dense power-law cluster graph"),
        _spec("CAIDA", 26475, 53381, "medium",
              lambda: generators.barabasi_albert(2500, 2, seed=10),
              "internet topology -> sparse scale-free graph"),
        _spec("EmailEnron", 33696, 180811, "large",
              lambda: generators.powerlaw_cluster(3000, 6, 0.3, seed=11),
              "email network -> power-law cluster graph"),
        _spec("Brightkite", 56739, 212945, "large",
              lambda: generators.barabasi_albert(4000, 4, seed=12),
              "location-based social network -> scale-free graph"),
        _spec("buzznet", 101163, 2763066, "large",
              lambda: generators.powerlaw_cluster(3000, 27, 0.2, seed=13),
              "very dense social network -> very dense power-law cluster graph"),
        _spec("Livemocha", 104103, 2193083, "large",
              lambda: generators.powerlaw_cluster(3500, 21, 0.2, seed=14),
              "dense social network -> dense power-law cluster graph"),
        _spec("WordNet", 145145, 656230, "large",
              lambda: generators.barabasi_albert(5000, 4, seed=15),
              "lexical network -> scale-free graph"),
        _spec("Gowalla", 196591, 950327, "large",
              lambda: generators.barabasi_albert(6000, 5, seed=16),
              "location-based social network -> scale-free graph"),
        _spec("com-DBLP", 317080, 1049866, "large",
              lambda: generators.powerlaw_cluster(7000, 3, 0.5, seed=17),
              "collaboration network -> clustered scale-free graph"),
        _spec("Amazon", 334863, 925872, "large",
              lambda: generators.watts_strogatz(8000, 6, 0.1, seed=18),
              "co-purchase network (large diameter) -> small-world lattice"),
        _spec("Actor", 374511, 15014839, "xlarge",
              lambda: generators.powerlaw_cluster(4000, 40, 0.2, seed=19),
              "extremely dense collaboration network -> dense power-law cluster"),
        _spec("Dogster", 426485, 8543321, "xlarge",
              lambda: generators.powerlaw_cluster(5000, 20, 0.2, seed=20),
              "dense social network -> dense power-law cluster graph"),
        _spec("FourSquare", 639014, 3214986, "xlarge",
              lambda: generators.barabasi_albert(9000, 5, seed=21),
              "social network with tiny diameter -> scale-free graph"),
        _spec("Skitter", 1694616, 11094209, "xlarge",
              lambda: generators.barabasi_albert(10000, 6, seed=22),
              "internet topology -> scale-free graph"),
        _spec("Flixster", 2523386, 7918801, "xlarge",
              lambda: generators.barabasi_albert(12000, 3, seed=23),
              "social network -> scale-free graph"),
        _spec("Orkut", 2997166, 106349209, "xlarge",
              lambda: generators.powerlaw_cluster(6000, 35, 0.1, seed=24),
              "extremely dense social network -> dense power-law cluster"),
        _spec("Youtube", 3216075, 9369874, "xlarge",
              lambda: generators.barabasi_albert(14000, 3, seed=25),
              "social network -> scale-free graph"),
        _spec("soc-LiveJournal", 5189808, 48687945, "xlarge",
              lambda: generators.barabasi_albert(16000, 6, seed=26),
              "social network -> scale-free graph"),
        _spec("sc-rel9", 5921786, 23667162, "xlarge",
              lambda: generators.random_regular(12000, 4, seed=27),
              "scientific-computing mesh -> random regular graph"),
    ]
}


def paper_network(name: str) -> Graph:
    """Build the synthetic stand-in for the Table II dataset ``name``."""
    if name not in PAPER_NETWORKS:
        raise InvalidParameterError(
            f"unknown paper network {name!r}; available: {sorted(PAPER_NETWORKS)}"
        )
    return PAPER_NETWORKS[name].build()
