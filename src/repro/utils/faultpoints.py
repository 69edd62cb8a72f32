"""Fault-point seams for deterministic fault injection.

Library code marks its failure-relevant seams with a single call::

    fault_point("backend.solve", subject=self, backend=self.name)

With no gate installed (the default, and the production configuration) the
call is one module-global check and returns immediately.  The resilience
layer (:mod:`repro.resilience.faults`) installs a *gate* — any object with
``check(site, subject=None, **labels)`` — for the duration of a chaos run;
the gate may raise a typed error or mutate ``subject`` in place to simulate
numerical drift.

This module deliberately imports nothing from :mod:`repro` so every layer
(solvers, backends, engine, service) can mark seams without import cycles.
"""

from __future__ import annotations

from typing import Any, Optional

_GATE: Optional[Any] = None


def install_gate(gate: Any) -> None:
    """Install ``gate`` as the process-wide fault gate (replacing any prior)."""
    global _GATE
    _GATE = gate


def clear_gate(gate: Optional[Any] = None) -> None:
    """Remove the installed gate.

    When ``gate`` is given, only clears if it is still the installed one —
    so a nested/stale injector exiting cannot tear down its successor.
    """
    global _GATE
    if gate is None or _GATE is gate:
        _GATE = None


def fault_point(site: str, subject: Any = None, **labels: Any) -> None:
    """Give the installed gate (if any) a chance to inject a fault at ``site``."""
    if _GATE is not None:
        _GATE.check(site, subject=subject, **labels)
