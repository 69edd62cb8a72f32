"""Fig. 4 — running time of ForestCFCM and SchurCFCM as a function of eps.

For each graph the two sampling algorithms are run with eps swept over
[0.4, 0.15].  The shape to reproduce: cost grows roughly like ``eps^-2``
(smaller eps means more JL directions and a larger per-round forest budget,
``ceil(8 / eps^2)`` up to ``max_samples``) and SchurCFCM stays at or below
ForestCFCM, with its advantage growing as eps shrinks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.networks import eps_sweep_suite
from repro.experiments.report import format_series, save_json
from repro.experiments.runner import RunSpec, run_method
from repro.graph.graph import Graph


def run_figure4(graphs: Optional[Dict[str, Graph]] = None,
                eps_values: Sequence[float] = (0.4, 0.35, 0.3, 0.25, 0.2, 0.15),
                k: int = 10, max_samples: int = 128, seed: int = 0,
                scale: str = "small", verbose: bool = True,
                output_json: Optional[str] = None) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Run the Fig. 4 study; returns ``{graph: {method: {eps: seconds}}}``."""
    graphs = graphs if graphs is not None else eps_sweep_suite(scale)
    results: Dict[str, Dict[str, Dict[float, float]]] = {}
    for name, graph in graphs.items():
        per_method: Dict[str, Dict[float, float]] = {"ForestCFCM": {}, "SchurCFCM": {}}
        for eps in eps_values:
            forest = run_method(
                graph, k, RunSpec("forest", eps=eps, max_samples=max_samples), seed=seed
            )
            schur = run_method(
                graph, k, RunSpec("schur", eps=eps, max_samples=max_samples), seed=seed
            )
            if forest is not None:
                per_method["ForestCFCM"][eps] = forest.runtime_seconds
            if schur is not None:
                per_method["SchurCFCM"][eps] = schur.runtime_seconds
        results[name] = per_method
        if verbose:
            print(format_series(f"Fig.4 {name} (n={graph.n}) [seconds]", per_method,
                                x_label="eps"))
            print()
    save_json(results, output_json)
    return results
