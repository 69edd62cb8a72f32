"""Shared plumbing for running CFCM methods inside the experiment harness."""

from __future__ import annotations

from repro.utils.timer import clock
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.centrality.api import maximize_cfcc
from repro.centrality.cfcc import group_cfcc, group_cfcc_estimate
from repro.centrality.estimators import SamplingConfig
from repro.centrality.result import CFCMResult
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph

# Practical feasibility limits for the dense / solver-based baselines,
# mirroring the "-" entries of Table II where Exact and ApproxGreedy become
# infeasible on larger graphs.
EXACT_NODE_LIMIT = 2500
APPROX_NODE_LIMIT = 20000


@dataclass
class RunSpec:
    """One (method, eps) configuration to execute."""

    method: str
    eps: float = 0.2
    label: Optional[str] = None
    max_samples: int = 96

    @property
    def name(self) -> str:
        return self.label or self.method


def run_method(graph: Graph, k: int, spec: RunSpec, seed: int = 0
               ) -> Optional[CFCMResult]:
    """Run one method, returning ``None`` when it is infeasible for the graph.

    Mirrors the "-" entries of Table II: the dense Exact baseline and the
    exhaustive Optimum are skipped on graphs beyond their practical limits
    (including the ``n choose k`` cap of the brute force).
    """
    if spec.method in ("exact", "optimum") and graph.n > EXACT_NODE_LIMIT:
        return None
    if spec.method == "approx" and graph.n > APPROX_NODE_LIMIT:
        return None
    config = None
    if spec.method in ("forest", "schur"):
        config = SamplingConfig(eps=spec.eps, max_samples=spec.max_samples)
    start = clock()
    try:
        result = maximize_cfcc(graph, k, method=spec.method, eps=spec.eps,
                               seed=seed, config=config)
    except InvalidParameterError:
        # e.g. brute-force optimum beyond its candidate cap.
        return None
    result.runtime_seconds = clock() - start
    return result


def evaluate_cfcc(graph: Graph, group: Sequence[int], exact_limit: int = 2500,
                  probes: int = 32, seed: int = 0) -> float:
    """Exact CFCC for small graphs, Hutchinson/CG estimate for larger ones."""
    if graph.n <= exact_limit:
        return group_cfcc(graph, group)
    return group_cfcc_estimate(graph, group, probes=probes, seed=seed)


def methods_for_effectiveness(include_exact: bool, eps: float = 0.2,
                              max_samples: int = 96) -> Dict[str, RunSpec]:
    """Standard method line-up of the effectiveness figures."""
    specs = {
        "Top-CFCC": RunSpec("top-cfcc", label="Top-CFCC"),
        "Degree": RunSpec("degree", label="Degree"),
        "Approx": RunSpec("approx", eps=eps, label="Approx"),
        "Forest": RunSpec("forest", eps=eps, label="Forest", max_samples=max_samples),
        "Schur": RunSpec("schur", eps=eps, label="Schur", max_samples=max_samples),
    }
    if include_exact:
        specs = {"Exact": RunSpec("exact", label="Exact"), **specs}
    return specs
