"""Fault injection, graceful degradation and checkpoint/recovery.

Three cooperating pieces:

* :mod:`repro.resilience.faults` — a deterministic, seedable fault-injection
  framework (:class:`FaultPlan`/:class:`FaultInjector`) that fires typed
  failures at the ``fault_point`` seams woven through the solver, backend,
  engine and service layers.
* :mod:`repro.resilience.watchdog` / :mod:`repro.resilience.policy` — the
  degradation ladder: a numerical-health watchdog probing
  ``max|L_{-S}(B^{-1}e) - e|``, backend failover bookkeeping and a service
  retry/deadline policy.
* :mod:`repro.resilience.checkpoint` — engine checkpoint/restore with a
  bit-equal journal-replay recovery contract.

See ``docs/resilience.md`` for the fault taxonomy and checkpoint format.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_engine,
    restore_engine,
)
from repro.resilience.faults import (
    FAULT_REGIMES,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.resilience.policy import RetryPolicy, set_degraded
from repro.resilience.watchdog import ResidualWatchdog

__all__ = [
    "CHECKPOINT_VERSION",
    "FAULT_REGIMES",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "ResidualWatchdog",
    "RetryPolicy",
    "checkpoint_engine",
    "restore_engine",
    "set_degraded",
]
