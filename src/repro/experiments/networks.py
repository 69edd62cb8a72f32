"""Workload graphs for the experiment harness.

Every graph is a synthetic stand-in for one of the paper's real datasets
(Table II / Fig. 1-5), scaled so that the whole harness runs on a laptop in
pure Python.  Two scales are provided:

* ``"small"`` (default) — hundreds to ~1500 nodes; every experiment,
  including the exact baselines, completes in minutes.
* ``"full"`` — the larger stand-ins registered in
  :mod:`repro.graph.datasets` (thousands to ~16k nodes); exact baselines are
  skipped automatically where infeasible.

The mapping of stand-in → paper dataset is part of the reproduction
contract: at ``"small"`` scale each suite below names every generator call
after the dataset it stands in for, and at ``"full"`` scale the suites read
:data:`repro.graph.datasets.PAPER_NETWORKS`.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import InvalidParameterError
from repro.graph import datasets, generators
from repro.graph.graph import Graph

SCALES = ("small", "full")


def tiny_suite() -> Dict[str, Graph]:
    """The four Fig. 1 graphs (23-62 nodes)."""
    return datasets.tiny_suite()


def small_suite(scale: str = "small") -> Dict[str, Graph]:
    """Six small graphs mirroring the paper's Fig. 2 / Fig. 5 datasets."""
    if scale == "small":
        return {
            "Hamsterster": generators.powerlaw_cluster(450, 8, 0.3, seed=102),
            "web-EPA": generators.barabasi_albert(500, 2, seed=103),
            "Routeviews": generators.barabasi_albert(600, 2, seed=104),
            "soc-PagesGov": generators.powerlaw_cluster(650, 10, 0.3, seed=105),
            "Astro-Ph": generators.powerlaw_cluster(700, 8, 0.3, seed=106),
            "EmailEnron": generators.powerlaw_cluster(800, 5, 0.3, seed=107),
        }
    if scale == "full":
        names = ["Hamsterster", "web-EPA", "Routeviews", "soc-PagesGov",
                 "Astro-Ph", "EmailEnron"]
        return {name: datasets.paper_network(name) for name in names}
    raise InvalidParameterError(f"unknown scale {scale!r}; valid scales: {SCALES}")


def medium_suite(scale: str = "small") -> Dict[str, Graph]:
    """Four larger graphs mirroring the paper's Fig. 3 datasets."""
    if scale == "small":
        return {
            "Livemocha": generators.powerlaw_cluster(900, 14, 0.2, seed=201),
            "WordNet": generators.barabasi_albert(1100, 4, seed=202),
            "Gowalla": generators.barabasi_albert(1300, 5, seed=203),
            "com-DBLP": generators.powerlaw_cluster(1500, 3, 0.5, seed=204),
        }
    if scale == "full":
        names = ["Livemocha", "WordNet", "Gowalla", "com-DBLP"]
        return {name: datasets.paper_network(name) for name in names}
    raise InvalidParameterError(f"unknown scale {scale!r}; valid scales: {SCALES}")


def sparse_suite(scale: str = "small") -> Dict[str, Graph]:
    """Sparse / infrastructure-style graphs used by Table II and Fig. 4."""
    if scale == "small":
        return {
            "Euroroads": generators.watts_strogatz(400, 4, 0.05, seed=301),
            "GR-QC": generators.powerlaw_cluster(550, 3, 0.4, seed=302),
            "CAIDA": generators.barabasi_albert(900, 2, seed=303),
        }
    if scale == "full":
        names = ["Euroroads", "GR-QC", "CAIDA"]
        return {name: datasets.paper_network(name) for name in names}
    raise InvalidParameterError(f"unknown scale {scale!r}; valid scales: {SCALES}")


def table2_suite(scale: str = "small") -> Dict[str, Graph]:
    """Graphs for the Table II timing study (sparse + small + medium tiers)."""
    combined: Dict[str, Graph] = {}
    combined.update(sparse_suite(scale))
    combined.update(small_suite(scale))
    combined.update(medium_suite(scale))
    return combined


def eps_sweep_suite(scale: str = "small") -> Dict[str, Graph]:
    """Graphs for the eps-sweep studies (Fig. 4 / Fig. 5)."""
    small = small_suite(scale)
    sparse = sparse_suite(scale)
    picked: Dict[str, Graph] = {}
    for name in ("Euroroads", "GR-QC", "CAIDA"):
        if name in sparse:
            picked[name] = sparse[name]
    for name in ("soc-PagesGov", "EmailEnron", "Routeviews"):
        if name in small:
            picked[name] = small[name]
    return picked
