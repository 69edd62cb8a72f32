"""Shared utilities: RNG handling, validation helpers and the clock."""

from repro.utils.rng import as_rng
from repro.utils.timer import clock
from repro.utils.validation import (
    check_group,
    check_integer,
    check_node,
    check_positive,
    check_probability,
)

__all__ = [
    "as_rng",
    "clock",
    "check_group",
    "check_integer",
    "check_node",
    "check_positive",
    "check_probability",
]
