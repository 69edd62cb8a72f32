"""Table II — running-time comparison of all CFCM algorithms.

For every workload graph the harness reports the Table II metadata columns
(nodes, edges, diameter τ, auxiliary root-set size ``|T*|``) and the running
time of Exact, ApproxGreedy, ForestCFCM and SchurCFCM, the latter two for
each requested error parameter eps.  Exact (and, at full scale, ApproxGreedy)
are skipped on graphs where they are infeasible, mirroring the "-" entries of
the paper's table.

Expected qualitative shape: Exact drops out first; SchurCFCM is never slower
than ForestCFCM; the sampling methods' cost grows roughly like ``eps^-2``
while ApproxGreedy's grows with the edge count.  README.md's "Experiments and
benchmarks" section shows how to run it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.networks import table2_suite
from repro.experiments.report import format_table, save_json
from repro.experiments.runner import RunSpec, run_method
from repro.graph.graph import Graph
from repro.graph.properties import extra_root_size
from repro.graph.traversal import diameter


def run_table2(graphs: Optional[Dict[str, Graph]] = None, k: int = 10,
               eps_values: Sequence[float] = (0.3, 0.2, 0.15),
               max_samples: int = 96, seed: int = 0,
               scale: str = "small", verbose: bool = True,
               output_json: Optional[str] = None) -> List[Dict[str, object]]:
    """Execute the Table II study and return one row dictionary per graph."""
    graphs = graphs if graphs is not None else table2_suite(scale)
    rows: List[Dict[str, object]] = []
    for name, graph in graphs.items():
        row: Dict[str, object] = {
            "network": name,
            "nodes": graph.n,
            "edges": graph.m,
            "tau": diameter(graph),
            "extra_roots": extra_root_size(graph),
        }
        exact = run_method(graph, k, RunSpec("exact"), seed=seed)
        row["exact_seconds"] = exact.runtime_seconds if exact else None
        approx = run_method(graph, k, RunSpec("approx", eps=0.2), seed=seed)
        row["approx_seconds"] = approx.runtime_seconds if approx else None
        for eps in eps_values:
            forest = run_method(
                graph, k, RunSpec("forest", eps=eps, max_samples=max_samples), seed=seed
            )
            schur = run_method(
                graph, k, RunSpec("schur", eps=eps, max_samples=max_samples), seed=seed
            )
            row[f"forest_{eps}_seconds"] = forest.runtime_seconds if forest else None
            row[f"schur_{eps}_seconds"] = schur.runtime_seconds if schur else None
        rows.append(row)
        if verbose:
            print(f"[table2] finished {name} (n={graph.n}, m={graph.m})")

    if verbose:
        print()
        print(render_table2(rows, eps_values))
    save_json(rows, output_json)
    return rows


def render_table2(rows: List[Dict[str, object]],
                  eps_values: Sequence[float] = (0.3, 0.2, 0.15)) -> str:
    """Format Table II rows as plain text."""
    headers = ["Network", "n", "m", "tau", "|T*|", "Exact", "Approx"]
    for eps in eps_values:
        headers.append(f"Forest({eps})")
    for eps in eps_values:
        headers.append(f"Schur({eps})")
    table_rows = []
    for row in rows:
        line: List[object] = [
            row["network"], row["nodes"], row["edges"], row["tau"],
            row["extra_roots"], row["exact_seconds"], row["approx_seconds"],
        ]
        for eps in eps_values:
            line.append(row.get(f"forest_{eps}_seconds"))
        for eps in eps_values:
            line.append(row.get(f"schur_{eps}_seconds"))
        table_rows.append(line)
    return format_table(headers, table_rows)
