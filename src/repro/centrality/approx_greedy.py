"""ApproxGreedy — the state-of-the-art baseline of Li et al. (WWW 2019).

ApproxGreedy runs the greedy loop it shares with SchurCFCM and ForestCFCM
(:class:`repro.centrality.result.GreedyCFCM`), but estimates the required
diagonals with Johnson–Lindenstrauss projections whose image is computed by
solving Laplacian linear systems:

* ``(inv(L_{-S})^2)_uu = ||inv(L_{-S}) e_u||^2 ≈ ||Q inv(L_{-S}) e_u||^2``
  where each row of ``Q inv(L_{-S})`` is one linear solve;
* ``(inv(L_{-S}))_uu = ||C inv(L_{-S}) e_u||^2`` with the incidence-style
  factor ``C^T C = L_{-S}``, again JL-compressed into a handful of solves;
* the first pick uses the Lemma 3.5 grounded reformulation of ``L†_uu`` so
  that only grounded (non-singular) systems are ever solved.

The Julia approximate-Cholesky solver of the original implementation is
substituted by :class:`repro.linalg.solvers.LaplacianSolver`, one factor of
each round's grounded Laplacian (a dense-Cholesky hub core on hub-heavy
graphs, SuperLU otherwise, Jacobi-preconditioned CG only when neither
factors) shared by all of the round's solves.  The baseline keeps its
defining characteristic — per-iteration cost proportional to solving
``O(eps^-2 log n)`` Laplacian systems of size ``m`` — which is exactly the
behaviour the paper's efficiency comparison exercises.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import require_connected
from repro.centrality.estimators import SamplingConfig
from repro.centrality.result import GreedyCFCM
from repro.linalg.incidence import grounded_incidence_factor
from repro.linalg.laplacian import grounded_laplacian
from repro.linalg.solvers import LaplacianSolver
from repro.utils.rng import RandomState, as_rng


class ApproxGreedy(GreedyCFCM):
    """JL + Laplacian-solver greedy baseline.

    Parameters
    ----------
    graph:
        Connected undirected graph.
    eps:
        Error parameter controlling the number of JL rows (and hence
        solves): the sampling methods' :meth:`SamplingConfig.jl_rows`.
    seed:
        Seed or generator for the random projections.
    """

    method_name = "approx"

    def __init__(self, graph: Graph, eps: float = 0.2, seed: RandomState = None):
        require_connected(graph)
        self.graph = graph
        self.eps = float(eps)
        self.rng = as_rng(seed)
        self.jl_rows = SamplingConfig(eps=self.eps).jl_rows(graph.n)

    # ------------------------------------------------------------ greedy hooks
    def _first_pick(self) -> Tuple[int, np.ndarray, Dict[str, object]]:
        """First pick via Lemma 3.5 with the max-degree node grounded."""
        graph = self.graph
        n = graph.n
        anchor = int(np.argmax(graph.degrees))
        matrix, kept = grounded_laplacian(graph, [anchor])
        solver = LaplacianSolver(matrix)

        # Column sums 1^T inv(L_{-s}) via a single solve.
        column_sums = solver.solve(np.ones(n - 1))
        # diag(inv(L_{-s})) via the incidence factor and JL compression.
        factor, _ = grounded_incidence_factor(graph, [anchor])
        projection = self._signs(self.jl_rows, factor.shape[0])
        projected_rows = (projection @ factor).T  # (n-1, w)
        solved = solver.solve_many(projected_rows)  # (n-1, w)
        diag_estimate = np.sum(solved * solved, axis=1)

        scores = np.zeros(n)
        scores[kept] = diag_estimate - (2.0 / n) * column_sums
        scores[anchor] = 0.0
        return int(np.argmin(scores)), scores, {"solves": self.jl_rows + 1}

    def _gains(self, group: List[int]
               ) -> Tuple[Dict[int, float], Dict[str, object]]:
        graph = self.graph
        matrix, kept = grounded_laplacian(graph, group)
        solver = LaplacianSolver(matrix)
        size = kept.size

        # Numerator: ||inv(L_{-S}) e_u||^2 ~ ||Q inv(L_{-S}) e_u||^2.
        q_rows = self._signs(self.jl_rows, size)
        numerator_image = solver.solve_many(q_rows.T)  # (size, w)
        numerators = np.sum(numerator_image * numerator_image, axis=1)

        # Denominator: ||C inv(L_{-S}) e_u||^2 with C^T C = L_{-S}.
        factor, _ = grounded_incidence_factor(graph, group)
        projection = self._signs(self.jl_rows, factor.shape[0])
        denominator_image = solver.solve_many((projection @ factor).T)
        denominators = np.sum(denominator_image * denominator_image, axis=1)

        degrees = graph.degrees[kept]
        floors = 1.0 / np.maximum(degrees, 1)
        denominators = np.maximum(denominators, floors)
        gains = numerators / denominators
        return ({int(kept[i]): float(gains[i]) for i in range(size)},
                {"solves": 2 * self.jl_rows})

    def _parameters(self) -> Dict[str, object]:
        return {"eps": self.eps, "jl_rows": self.jl_rows}

    # -------------------------------------------------------------- internals
    def _signs(self, rows: int, cols: int) -> np.ndarray:
        scale = 1.0 / np.sqrt(rows)
        return np.where(self.rng.random((rows, cols)) < 0.5, -scale, scale)
