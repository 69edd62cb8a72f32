"""Command-line interface of the experiment harness.

Usage::

    python -m repro.experiments table2 [--scale small|full] [--k 10]
    python -m repro.experiments fig1
    python -m repro.experiments fig2 --eps 0.2
    python -m repro.experiments dynamic --quick
    python -m repro.experiments serve --smoke
    python -m repro.experiments worlds --smoke [--faults]
    python -m repro.experiments all --quick

``all`` regenerates the paper artefacts (table2 and the five figures), and
with ``--output-json`` writes one JSON object keyed by experiment; the
``dynamic`` workload study characterises the incremental engine, the
``serve`` study drives the async query service (``--smoke`` additionally
gates on async/sync equivalence and exits non-zero on a mismatch) and the
``worlds`` study sweeps sampled serving scenarios (``--smoke`` runs the
canonical CI cross and gates on accuracy tolerance and pool-ESS floors);
all three are run explicitly.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.experiments.dynamic import run_dynamic
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.report import save_json
from repro.experiments.service import run_service
from repro.experiments.table2 import run_table2
from repro.experiments.worlds import run_worlds

EXPERIMENTS = ("table2", "fig1", "fig2", "fig3", "fig4", "fig5", "dynamic",
               "serve", "worlds", "all")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures on synthetic stand-ins.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which artefact to regenerate")
    parser.add_argument("--scale", choices=("small", "full"), default="small",
                        help="workload scale (default: small)")
    parser.add_argument("--k", type=int, default=10,
                        help="group size for table2/fig4/fig5 (default: 10)")
    parser.add_argument("--eps", type=float, default=0.2,
                        help="error parameter for the effectiveness studies")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--max-samples", type=int, default=96,
                        help="per-call cap on sampled spanning forests")
    parser.add_argument("--batch", type=int, default=1,
                        help="events per update burst for the dynamic study "
                             "(each burst syncs as one rank-t Woodbury update)")
    parser.add_argument("--node-churn", type=float, default=0.0,
                        help="fraction of dynamic-study events that add/remove "
                             "a node instead of an edge")
    parser.add_argument("--ops", type=int, default=200,
                        help="total Poisson arrivals for the serve study")
    parser.add_argument("--rate", type=float, default=500.0,
                        help="arrival rate (events/s) for the serve study")
    parser.add_argument("--query-fraction", type=float, default=0.5,
                        help="fraction of serve-study arrivals that are queries")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads of the async service")
    parser.add_argument("--backend", choices=("dense", "sparse", "auto"),
                        default="dense",
                        help="resistance backend of the dynamic/serve "
                             "studies: dense explicit-inverse Woodbury, "
                             "sparse solver-backed, or auto by graph size")
    parser.add_argument("--shards", type=int, default=1,
                        help="dynamic: with N > 1 the engine pass runs the "
                             "sharded distributed backend (per-shard trackers "
                             "stitched by a global Schur complement)")
    parser.add_argument("--smoke", action="store_true",
                        help="serve: shrink the workload and gate on async/sync "
                             "equivalence; worlds: run the canonical CI cross "
                             "and gate on accuracy + ESS (non-zero exit)")
    parser.add_argument("--count", type=int, default=8,
                        help="worlds: how many worlds to sample (default: 8)")
    parser.add_argument("--events", type=int, default=24,
                        help="worlds: churn-event budget per sampled world")
    parser.add_argument("--worlds", default=None, metavar="JSON",
                        help="worlds: run explicit specs from this JSON file "
                             "instead of sampling (a list of WorldSpec dicts)")
    parser.add_argument("--faults", action="store_true",
                        help="worlds: inject deterministic fault regimes "
                             "(with --smoke: the chaos smoke cross; "
                             "otherwise overlay chaos faults on the specs)")
    parser.add_argument("--output-csv", default=None,
                        help="worlds: also write the sweep table as CSV")
    parser.add_argument("--quick", action="store_true",
                        help="shrink sweeps for a fast smoke run")
    parser.add_argument("--output-json", default=None,
                        help="optional path for a JSON dump of the results")
    parser.add_argument("--metrics-prefix", default=None,
                        help="dynamic/serve: write the metrics registry as "
                             "<prefix>.prom and <prefix>.json after the run")
    parser.add_argument("--trace-out", default=None,
                        help="serve: stream the span trace to this JSON-lines file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    eps_sweep = (0.3, 0.2) if args.quick else (0.4, 0.35, 0.3, 0.25, 0.2, 0.15)
    table_eps = (0.3, 0.2) if args.quick else (0.3, 0.2, 0.15)
    k_values = (2, 4) if args.quick else (4, 8, 12, 16, 20)
    fig1_k = (1, 2, 3) if args.quick else (1, 2, 3, 4, 5)
    k = min(args.k, 4) if args.quick else args.k

    name = args.experiment
    # ``all`` writes one JSON object keyed by experiment once every artefact
    # is done; a single experiment writes its own payload.
    own_json = None if name == "all" else args.output_json
    artefacts = {}
    if name in ("table2", "all"):
        artefacts["table2"] = run_table2(
            k=k, eps_values=table_eps, max_samples=args.max_samples,
            seed=args.seed, scale=args.scale, output_json=own_json)
    if name in ("fig1", "all"):
        artefacts["fig1"] = run_figure1(
            k_values=fig1_k, eps=args.eps, seed=args.seed, output_json=own_json)
    if name in ("fig2", "all"):
        artefacts["fig2"] = run_figure2(
            k_values=k_values, eps=args.eps, max_samples=args.max_samples,
            seed=args.seed, scale=args.scale, output_json=own_json)
    if name in ("fig3", "all"):
        artefacts["fig3"] = run_figure3(
            k_values=k_values, eps=args.eps, max_samples=args.max_samples,
            seed=args.seed, scale=args.scale, output_json=own_json)
    if name in ("fig4", "all"):
        artefacts["fig4"] = run_figure4(
            eps_values=eps_sweep, k=k, max_samples=args.max_samples,
            seed=args.seed, scale=args.scale, output_json=own_json)
    if name in ("fig5", "all"):
        artefacts["fig5"] = run_figure5(
            eps_values=eps_sweep, k=k, max_samples=args.max_samples,
            seed=args.seed, scale=args.scale, output_json=own_json)
    if name == "all":
        save_json(artefacts, args.output_json)
    if name == "dynamic":
        run_dynamic(k=k, eps=args.eps, max_samples=args.max_samples,
                    seed=args.seed, scale=args.scale, quick=args.quick,
                    batch=args.batch, node_churn=args.node_churn,
                    backend=args.backend, shards=args.shards,
                    output_json=args.output_json,
                    metrics_prefix=args.metrics_prefix)
    if name == "serve":
        row = run_service(ops=args.ops, rate=args.rate,
                          query_fraction=args.query_fraction, k=k,
                          eps=args.eps, node_churn=args.node_churn,
                          workers=args.workers, seed=args.seed,
                          backend=args.backend,
                          smoke=args.smoke, quick=args.quick,
                          output_json=args.output_json,
                          metrics_prefix=args.metrics_prefix,
                          trace_output=args.trace_out)
        return 1 if row["failures"] else 0
    if name == "worlds":
        result = run_worlds(count=args.count, events=args.events,
                            seed=args.seed, smoke=args.smoke,
                            quick=args.quick, faults=args.faults,
                            worlds_file=args.worlds,
                            output_json=args.output_json,
                            output_csv=args.output_csv,
                            metrics_prefix=args.metrics_prefix)
        return 1 if result["failures"] else 0
    return 0
