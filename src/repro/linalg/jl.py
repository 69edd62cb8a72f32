"""Johnson–Lindenstrauss projection dimension (Lemma 3.4 of the paper).

The squared column norms of ``inv(L_{-S})`` (i.e. the diagonal of
``inv(L_{-S})^2``) are approximated by projecting onto ``w = O(eps^-2 log n)``
random ±1/sqrt(w) directions.  The sampling algorithms and the ApproxGreedy
baseline draw those directions themselves and share :func:`jl_dimension`.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.exceptions import InvalidParameterError


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
