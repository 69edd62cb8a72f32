"""Worker-pool abstraction for per-shard maintenance tasks.

The sharded engine fans three kinds of work out over shards: journal
synchronisation of the per-shard trackers (Woodbury folds), forest-pool
top-ups and estimator folds.  All of them are *per-shard independent*, so
they go through one tiny interface — :meth:`ShardExecutor.map` over a list
of thunks — with two implementations:

* :class:`SerialExecutor` — runs the thunks in order, in process.  The
  deterministic default: identical float results on every run, no thread
  scheduling in the way of tests, and on single-core hosts (CI, this
  container) also the fastest option.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor``.  The per-shard hot
  loops spend their time inside NumPy/SciPy kernels that release the GIL
  (sparse LU solves, BLAS folds), so threads overlap genuinely on
  multi-core hosts while sharing the shard state in memory.

The thunks close over live shard state, so they never cross a process
boundary.  ``make_executor`` resolves the user-facing spec (``"serial" |
"thread"``) and is what the engine, CLI and worlds harness construct from.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.exceptions import InvalidParameterError

T = TypeVar("T")

_Thunk = Callable[[], T]


class ShardExecutor:
    """Protocol: run independent per-shard thunks, return results in order."""

    name = "abstract"

    def map(self, thunks: Sequence[_Thunk]) -> List[T]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (idempotent; serial is a no-op)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(ShardExecutor):
    """In-process, in-order execution — the deterministic default."""

    name = "serial"

    def map(self, thunks: Sequence[_Thunk]) -> List[T]:
        return [thunk() for thunk in thunks]


class ThreadExecutor(ShardExecutor):
    """Thread-pool execution for GIL-releasing NumPy/SciPy shard work."""

    name = "thread"

    def __init__(self, workers: int = 4):
        if int(workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _require_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def map(self, thunks: Sequence[_Thunk]) -> List[T]:
        if len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        pool = self._require_pool()
        futures = [pool.submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(spec: str | ShardExecutor = "serial",
                  workers: int = 4) -> ShardExecutor:
    """Resolve an executor spec (``"serial" | "thread"``)."""
    if isinstance(spec, ShardExecutor):
        return spec
    name = str(spec).lower()
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers=workers)
    raise InvalidParameterError(
        f"unknown executor {spec!r} (expected 'serial' or 'thread')"
    )
