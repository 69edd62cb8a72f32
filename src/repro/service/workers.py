"""Bounded worker layer running blocking engine work off the event loop.

The engine's heavy kernels are dense linear algebra (NumPy releases the GIL
inside BLAS) plus batch forest sampling, NumPy-vectorised as well by the
lockstep kernel of :mod:`repro.sampling.batch`.  The pool runs engine calls
on a bounded :class:`ThreadPoolExecutor` — threads share the engine state
that the service guards with its own lock.

Cancellation semantics: a thread cannot be interrupted, so cancelling a task
that awaits :meth:`run` abandons the future — the work finishes (or is
skipped if it never started) in the background and its result or error is
consumed silently.  The service keeps state consistent regardless, because
every engine touch happens under its state lock *inside* the worker
function.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.exceptions import ServiceClosedError
from repro.utils.validation import check_integer


def _consume(future: concurrent.futures.Future) -> None:
    """Swallow the outcome of an abandoned future (done-callback)."""
    if future.cancelled():
        return
    future.exception()


class WorkerPool:
    """Bounded executor front end with graceful shutdown.

    Parameters
    ----------
    workers:
        Thread count for engine work (evaluation, selection, maintenance).
    """

    def __init__(self, workers: int = 2):
        self.workers = check_integer("workers", workers, minimum=1)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="cfcm-worker"
        )
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the thread pool and await its result.

        On cancellation the future is cancelled if it never started;
        otherwise the thread finishes in the background and its outcome is
        consumed, so no "exception was never retrieved" noise escapes.
        """
        if self._closed:
            raise ServiceClosedError("worker pool is closed")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, functools.partial(fn, *args))
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            if not future.cancel():
                future.add_done_callback(_consume)
            raise

    async def close(self) -> None:
        """Reject new work and wait for in-flight work to finish."""
        if self._closed:
            return
        self._closed = True
        await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(self._executor.shutdown, wait=True)
        )
