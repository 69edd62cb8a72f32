"""Johnson–Lindenstrauss random projections (Lemma 3.4 of the paper).

The squared column norms of ``inv(L_{-S})`` (i.e. the diagonal of
``inv(L_{-S})^2``) are approximated by projecting onto ``w = O(eps^-2 log n)``
random ±1/sqrt(w) directions.  Both the sampling algorithms and the
ApproxGreedy baseline share this machinery.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.rng import RandomState, as_rng


def jl_dimension(n: int, eps: float, constant: float = 24.0,
                 minimum: int = 1, maximum: Optional[int] = None) -> int:
    """Projection dimension ``w >= constant * eps^-2 * log(n)``.

    Parameters
    ----------
    n:
        Number of vectors whose pairwise norms must be preserved.
    eps:
        Relative error parameter in ``(0, 1)``.
    constant:
        The paper uses 24 (Lemma 3.4); practical runs may lower it.
    minimum, maximum:
        Clamp bounds; ``maximum=None`` leaves the theoretical value unclamped.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError(f"eps must lie in (0, 1), got {eps}")
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    dimension = int(math.ceil(constant * (eps ** -2) * math.log(max(n, 2))))
    dimension = max(dimension, minimum)
    if maximum is not None:
        dimension = min(dimension, maximum)
    return dimension


class JLProjection:
    """A random ±1/sqrt(w) projection matrix ``Q`` of shape ``(w, d)``.

    ``Q`` preserves squared Euclidean norms up to a ``(1 ± eps)`` factor with
    probability at least ``1 - 1/n`` when ``w >= 24 eps^-2 log n``.
    """

    def __init__(self, dimension: int, original_dimension: int,
                 seed: RandomState = None):
        if dimension < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {dimension}")
        if original_dimension < 1:
            raise InvalidParameterError(
                f"original_dimension must be >= 1, got {original_dimension}"
            )
        rng = as_rng(seed)
        scale = 1.0 / math.sqrt(dimension)
        self.matrix = np.where(
            rng.random((dimension, original_dimension)) < 0.5, -scale, scale
        )

    @property
    def dimension(self) -> int:
        """Projection (row) dimension ``w``."""
        return self.matrix.shape[0]

    @property
    def original_dimension(self) -> int:
        """Ambient (column) dimension ``d``."""
        return self.matrix.shape[1]

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """Project column vectors: ``Q @ vectors``; accepts 1-D or 2-D input."""
        vectors = np.asarray(vectors, dtype=np.float64)
        return self.matrix @ vectors

    def squared_norm(self, vector: np.ndarray) -> float:
        """Estimate ``||vector||^2`` as ``||Q vector||^2``."""
        projected = self.project(np.asarray(vector, dtype=np.float64))
        return float(projected @ projected)


def approx_column_norms(matrix: np.ndarray, eps: float,
                        seed: RandomState = None,
                        constant: float = 24.0,
                        max_dimension: Optional[int] = None) -> np.ndarray:
    """JL estimates of the squared column norms of a dense matrix.

    Convenience helper used in tests to check the quality of the projection;
    algorithm code projects implicitly by solving linear systems instead.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidParameterError("matrix must be two-dimensional")
    rows, cols = matrix.shape
    dimension = jl_dimension(cols, eps, constant=constant, maximum=max_dimension)
    projection = JLProjection(dimension, rows, seed=seed)
    projected = projection.project(matrix)
    return np.sum(projected * projected, axis=0)
