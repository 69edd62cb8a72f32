"""The repo's sanctioned monotonic clock.

``clock`` re-exports ``time.perf_counter``: instrumented modules import it
from here so ``scripts/check_no_adhoc_timing.py`` can forbid raw
``perf_counter`` use everywhere else in ``src/repro``.  Latency
distributions live in :class:`repro.obs.metrics.Histogram`.
"""

import time

#: The repo's sanctioned monotonic clock (see module docstring).
clock = time.perf_counter
