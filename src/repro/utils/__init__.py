"""Shared utilities: RNG handling, validation helpers, timers and logging."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timer import Timer, clock
from repro.utils.validation import (
    check_group,
    check_integer,
    check_node,
    check_positive,
    check_probability,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "Timer",
    "clock",
    "check_group",
    "check_integer",
    "check_node",
    "check_positive",
    "check_probability",
]
