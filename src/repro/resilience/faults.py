"""Deterministic, seedable fault injection for the serving stack.

A :class:`FaultPlan` is a declarative set of :class:`FaultRule`\\ s — one per
instrumented seam (*site*) — plus a seed.  A :class:`FaultInjector` compiles
the plan into a gate installed on :mod:`repro.utils.faultpoints` for the
duration of a ``with`` block; every ``fault_point(site, ...)`` call in the
library then rolls a per-site deterministic RNG and, when a rule fires,
raises the typed error that real failures at that seam produce (or, for the
drift site, corrupts the tracked inverse in place).

Determinism contract: the same plan (rules + seed) against the same
workload injects the same faults at the same call sites in the same order,
because each site draws from its own ``default_rng((seed, crc32(site)))``
stream and rules cap total injections with ``limit``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConvergenceError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.obs.metrics import REGISTRY
from repro.utils import faultpoints

_INJECTED = REGISTRY.counter(
    "repro_fault_injected_total",
    "Faults injected by the resilience framework, by seam",
    labels=("site",),
)

#: Every instrumented seam and the failure it simulates.
FAULT_SITES: Dict[str, str] = {
    "backend.factorize": "factorization failure (splu/Cholesky breakdown)",
    "backend.solve": "solver failure during a diagonal/column evaluation",
    "backend.apply": "singular capacitance matrix in a Woodbury batch",
    "backend.drift": "numerical drift corrupting the tracked inverse",
    "solver.cg": "conjugate-gradient non-convergence",
    "service.worker": "unhandled exception in a service read worker",
    "service.stall": "update-queue stall (writer pauses before a batch)",
}


@dataclass(frozen=True)
class FaultRule:
    """One seam's injection rule.

    ``probability`` is the per-call firing chance, ``limit`` caps total
    injections at this site (``None`` = unbounded), and ``magnitude`` scales
    the effect for sites with one (drift perturbation size, stall seconds).
    """

    site: str
    probability: float = 1.0
    limit: Optional[int] = None
    magnitude: float = 1e-4

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise InvalidParameterError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.limit is not None and self.limit < 0:
            raise InvalidParameterError(
                f"fault limit must be non-negative, got {self.limit}"
            )
        if self.magnitude < 0:
            raise InvalidParameterError(
                f"fault magnitude must be non-negative, got {self.magnitude}"
            )


#: Named fault regimes for the worlds sweep's ``faults`` axis.  Each maps a
#: regime name to the rule set ``FaultPlan.for_regime`` builds from a rate
#: and a per-site limit.
FAULT_REGIMES: Tuple[str, ...] = (
    "none",
    "solver_flaky",
    "numerical_drift",
    "worker_crash",
    "queue_stall",
    "chaos",
)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos scenario: rules + the seed of the site streams."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        sites = [rule.site for rule in self.rules]
        if len(sites) != len(set(sites)):
            raise InvalidParameterError(
                f"fault plan has duplicate sites: {sorted(sites)}"
            )

    @classmethod
    def for_regime(cls, regime: str, rate: float = 0.25,
                   limit: Optional[int] = 4, magnitude: float = 1e-4,
                   seed: int = 0) -> "FaultPlan":
        """The canonical rule set of a named regime."""
        if regime not in FAULT_REGIMES:
            raise InvalidParameterError(
                f"unknown fault regime {regime!r}; known: {FAULT_REGIMES}"
            )
        def rule(site: str, **overrides: Any) -> FaultRule:
            base = {"probability": rate, "limit": limit,
                    "magnitude": magnitude}
            base.update(overrides)
            return FaultRule(site, **base)

        if regime == "none":
            rules: Tuple[FaultRule, ...] = ()
        elif regime == "solver_flaky":
            rules = (rule("backend.factorize"), rule("backend.solve"),
                     rule("solver.cg"), rule("backend.apply"))
        elif regime == "numerical_drift":
            rules = (rule("backend.drift", magnitude=max(magnitude, 1e-4)),)
        elif regime == "worker_crash":
            rules = (rule("service.worker"),)
        elif regime == "queue_stall":
            rules = (rule("service.stall", magnitude=min(magnitude, 0.05)
                          if magnitude else 0.02),)
        else:  # chaos: a bit of everything, each site bounded
            rules = (rule("backend.factorize"), rule("backend.solve"),
                     rule("backend.apply"),
                     rule("backend.drift", magnitude=max(magnitude, 1e-4)),
                     rule("service.worker"))
        return cls(rules=rules, seed=seed)


class FaultInjector:
    """Context manager installing a :class:`FaultPlan` as the process gate.

    While entered, every ``fault_point`` call consults this injector; the
    ``injected`` dict records how many faults each site actually fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rules: Dict[str, FaultRule] = {r.site: r for r in plan.rules}
        self._rngs: Dict[str, np.random.Generator] = {}
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "FaultInjector":
        faultpoints.install_gate(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        faultpoints.clear_gate(self)

    # ------------------------------------------------------------------ gate
    @property
    def total_injected(self) -> int:
        """Total faults fired across every site."""
        return sum(self.injected.values())

    def _stream(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(
                (int(self.plan.seed), zlib.crc32(site.encode("utf-8")))
            )
            self._rngs[site] = rng
        return rng

    def check(self, site: str, subject: Any = None, **labels: Any) -> None:
        """Roll the site's stream; inject the seam's typed failure if it fires."""
        rule = self._rules.get(site)
        if rule is None:
            return
        if rule.limit is not None and self.injected.get(site, 0) >= rule.limit:
            return
        rng = self._stream(site)
        if rng.random() >= rule.probability:
            return
        if site == "backend.drift" and not self._can_drift(subject):
            return  # nothing materialised to corrupt (e.g. sparse backend)
        self.injected[site] = self.injected.get(site, 0) + 1
        if REGISTRY.enabled:
            _INJECTED.inc(site=site)
        self._fire(site, rule, subject, rng)

    @staticmethod
    def _can_drift(subject: Any) -> bool:
        inverse = getattr(subject, "inverse", None)
        return isinstance(inverse, np.ndarray) and inverse.ndim == 2

    def _fire(self, site: str, rule: FaultRule, subject: Any,
              rng: np.random.Generator) -> None:
        if site in ("backend.solve", "solver.cg"):
            raise ConvergenceError(
                f"injected non-convergence at {site}",
                iterations=0, residual=rule.magnitude, rtol=None,
            )
        if site == "backend.factorize":
            raise RuntimeError(f"injected factorization failure at {site}")
        if site == "backend.apply":
            raise InvalidParameterError(
                f"injected singular capacitance update at {site}"
            )
        if site == "backend.drift":
            inverse = subject.inverse
            direction = rng.standard_normal(inverse.shape[0])
            scale = rule.magnitude / max(1.0, float(inverse.shape[0]))
            inverse += scale * np.outer(direction, direction)
            return
        if site == "service.stall":
            time.sleep(min(float(rule.magnitude), 0.25))
            return
        raise InjectedFaultError(f"injected fault at {site}")
