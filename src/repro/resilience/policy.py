"""Service-level degradation policy: retries, deadlines, failover records.

The :class:`RetryPolicy` decides whether a failed read is worth re-running
(typed, transient errors only, bounded by attempt count and a wall-clock
deadline).  The counters and the degraded-state gauge here record retries
and backend failovers on the :mod:`repro.obs` registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.exceptions import (
    ConvergenceError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.obs.metrics import REGISTRY

_RETRIES = REGISTRY.counter(
    "repro_fault_retries_total",
    "Service read retries under the retry/deadline policy",
    labels=("kind",),
)
_DEGRADED = REGISTRY.gauge(
    "repro_degraded_state",
    "1 while a component is in a degraded mode (backend failover)",
    labels=("component",),
)
_FAILOVERS = REGISTRY.counter(
    "repro_fault_backend_failovers_total",
    "Resistance-backend failovers to the dense backend, by failed backend",
    labels=("backend",),
)


def set_degraded(component: str, value: float) -> None:
    """Publish the degraded-state gauge for ``component`` (1 = degraded)."""
    if REGISTRY.enabled:
        _DEGRADED.set(float(value), component=component)


def record_failover(backend: str) -> None:
    """Count one backend failover and mark the backend degraded."""
    if REGISTRY.enabled:
        _FAILOVERS.inc(backend=backend)
    set_degraded("backend", 1.0)


def record_retry(kind: str) -> None:
    """Count one policy-driven retry of a ``kind`` read."""
    if REGISTRY.enabled:
        _RETRIES.inc(kind=kind)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries for transient, typed read failures.

    ``attempts`` is the total tries (first call included), ``deadline`` an
    optional wall-clock budget in seconds across all tries, and ``retry_on``
    the exception types considered transient.
    """

    attempts: int = 3
    deadline: Optional[float] = None
    retry_on: Tuple[Type[BaseException], ...] = (
        ConvergenceError,
        InjectedFaultError,
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise InvalidParameterError(
                f"retry attempts must be at least 1, got {self.attempts}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise InvalidParameterError(
                f"retry deadline must be positive, got {self.deadline}"
            )

    def should_retry(self, exc: BaseException, attempt: int,
                     elapsed: float) -> bool:
        """Whether try ``attempt`` (1-based) failing with ``exc`` may re-run."""
        if attempt >= self.attempts:
            return False
        if self.deadline is not None and elapsed >= self.deadline:
            return False
        return isinstance(exc, self.retry_on)
