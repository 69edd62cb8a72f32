"""Exception hierarchy for the :mod:`repro` package.

Every error intentionally raised by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for malformed or unsupported graph inputs."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph but the input is not."""


class InvalidNodeError(GraphError):
    """Raised when a node identifier is outside ``0 .. n - 1`` or otherwise invalid."""


class InvalidParameterError(ReproError):
    """Raised when an algorithm parameter is out of its valid range."""


class ConvergenceError(ReproError):
    """Raised when an iterative solver or sampler fails to reach its target accuracy.

    Carries structured fields so failover policy can branch on *how* the
    solve failed instead of parsing the message:

    ``iterations``
        Iteration count reported by the solver (``None`` if unknown).
    ``residual``
        Final residual norm at the point of failure (``None`` if unknown).
    ``rtol``
        The relative tolerance the solve was asked for.
    """

    def __init__(self, message: str, *, iterations=None, residual=None,
                 rtol=None):
        super().__init__(message)
        self.iterations = None if iterations is None else int(iterations)
        self.residual = None if residual is None else float(residual)
        self.rtol = None if rtol is None else float(rtol)


class NumericalDriftError(ReproError):
    """Raised when a tracked factorization has drifted past its residual threshold.

    ``residual`` is the observed probe residual ``max|L_{-S}(B^{-1}e) - e|``
    and ``threshold`` the configured limit it exceeded.
    """

    def __init__(self, message: str, *, residual=None, threshold=None):
        super().__init__(message)
        self.residual = None if residual is None else float(residual)
        self.threshold = None if threshold is None else float(threshold)


class BackendUnavailableError(ReproError):
    """Raised when every resistance backend (including failover) has failed."""


class InjectedFaultError(ReproError):
    """Raised by the fault-injection framework at an instrumented seam."""


class NotComputedError(ReproError):
    """Raised when a result attribute is accessed before the algorithm has been run."""


class ServiceError(ReproError):
    """Raised for lifecycle misuse of the asynchronous query service."""


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that has been stopped."""


class ServiceOverloadedError(ServiceError):
    """Raised when the service's bounded update queue is full (backpressure)."""

