"""Host-speed calibration of CPU-timed measurements.

On a shared host the CPU time of the same work changes with the load of the
other tenants: sibling hyperthreads and memory bandwidth are shared, so a
busy neighbour makes every instruction slower.  The swings last seconds and
reach half the fast time, so a run's medians depend on how much of it fell
in a slow spell.

A fixed kernel that uses no library code, with the same mix of work as the
workloads (numpy scatter/scan/sort over a few hundred KiB, a sparse LU solve,
an interpreter loop), is timed before and after each measured stretch.  The
stretch's CPU time is scaled by ``REFERENCE_S`` over the mean of those two
kernel times, which reports it in seconds of a host on which the kernel
takes ``REFERENCE_S``.  A change to the library moves the scaled figure as
much as the raw one; a slow spell of the host moves both the stretch and the
kernel, and cancels.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import thread_time
from typing import List

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.obs.tracing import trace

#: The kernel's CPU time on the reference host (a 2-vCPU VM when no other
#: tenant was busy); scaled figures are seconds of that host.
REFERENCE_S = 0.017


class Calibrator:
    """Times the fixed kernel and scales CPU times by what it measured."""

    ROWS, COLS, GRID, LOOP = 256, 1000, 60, 15000

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random((self.ROWS, self.COLS))
        self._index = (np.arange(self.ROWS)[:, None],
                       rng.integers(0, self.COLS, size=(self.ROWS, self.COLS)))
        path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(self.GRID, self.GRID))
        eye = sp.identity(self.GRID)
        self._matrix = (sp.kron(path, eye) + sp.kron(eye, path)
                        + sp.identity(self.GRID ** 2)).tocsc()
        self._rhs = rng.random(self.GRID ** 2)
        #: Every kernel time taken, for the artifact.
        self.samples: List[float] = []

    def _kernel(self) -> float:
        out = np.zeros_like(self._values)
        np.add.at(out, self._index, self._values)
        total = float(np.cumsum(out, axis=1)[:, -1].sum())
        total += float(np.argsort(self._values, axis=1)[:, 0].sum())
        total += float(splu(self._matrix).solve(self._rhs).sum())
        for i in range(self.LOOP):
            total += i & 7
        return total

    def sample(self) -> float:
        """Run the kernel once; returns (and keeps) its CPU time.

        In a traced run the span keeps the kernel out of the layer it
        interrupts (a greedy round, for ``select``)."""
        with trace("bench.calibrate"):
            began = thread_time()
            self._kernel()
            elapsed = thread_time() - began
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor for a stretch timed between kernel times ``before`` and ``after``."""
        return 2.0 * REFERENCE_S / (before + after)


class ScaledClock:
    """This thread's CPU time, scaled stretch by stretch.

    Each :meth:`tick` closes the stretch since the previous one, times the
    kernel and adds the stretch's CPU time, scaled by the kernel times on
    either side, to :attr:`scaled`.  The kernel's own time is left out.
    """

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.scaled = 0.0
        self._kernel = calibrator.sample()
        self._mark = thread_time()

    def tick(self) -> float:
        """Close the current stretch; returns the factor it was scaled by."""
        work = thread_time() - self._mark
        kernel = self.calibrator.sample()
        factor = Calibrator.scale(self._kernel, kernel)
        self.scaled += work * factor
        self._kernel = kernel
        self._mark = thread_time()
        return factor


@contextmanager
def ticking_after(clock: ScaledClock, module: str, attribute: str):
    """Make each call of ``module.attribute`` end with ``clock.tick()``.

    Calibrates inside a long library call at its natural steps; ``attribute``
    may name a method as ``Class.method``.
    """
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name]

    @functools.wraps(original)
    def ticked(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            clock.tick()

    setattr(owner, name, ticked)
    try:
        yield clock
    finally:
        setattr(owner, name, original)
