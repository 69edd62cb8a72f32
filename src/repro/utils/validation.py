"""Input-validation helpers shared across the package.

These helpers raise :class:`repro.exceptions.InvalidParameterError` or
:class:`repro.exceptions.InvalidNodeError` with informative messages so that
algorithm code can stay focused on the mathematics.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidNodeError, InvalidParameterError


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is finite and positive (strictly by default)."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: float, inclusive: bool = False) -> float:
    """Validate that ``value`` lies in ``(0, 1)`` (or ``[0, 1]`` when inclusive)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise InvalidParameterError(f"{name} must be in (0, 1), got {value}")
    return value


def check_integer(name: str, value: int, minimum: int | None = None,
                  maximum: int | None = None) -> int:
    """Validate that ``value`` is an integer inside ``[minimum, maximum]``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_node(node: int, n: int) -> int:
    """Validate a node identifier against a graph of ``n`` nodes."""
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
        raise InvalidNodeError(f"node must be an integer, got {node!r}")
    node = int(node)
    if not 0 <= node < n:
        raise InvalidNodeError(f"node {node} outside valid range [0, {n - 1}]")
    return node


def check_group(group: Iterable[int], n: int, allow_empty: bool = False) -> Sequence[int]:
    """Validate a node group (iterable of distinct node ids) and return it sorted."""
    nodes = [check_node(v, n) for v in group]
    if not allow_empty and not nodes:
        raise InvalidParameterError("node group must be non-empty")
    if len(set(nodes)) != len(nodes):
        raise InvalidParameterError(f"node group contains duplicates: {sorted(nodes)}")
    if len(nodes) >= n:
        raise InvalidParameterError(
            f"node group of size {len(nodes)} must be a strict subset of {n} nodes"
        )
    return sorted(nodes)
