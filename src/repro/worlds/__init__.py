"""GraphWorld-style scenario harness for the dynamic CFCM serving stack.

A *world* is one fully parameterised serving scenario — topology family x
size x churn regime x traffic mix x resistance backend x estimator config —
and the harness maps the engine's behaviour across many of them instead of
benchmarking a handful of hand-picked graphs:

* :mod:`repro.worlds.spec` — declarative :class:`WorldSpec` records
  (seeded, buildable into concrete graphs);
* :mod:`repro.worlds.churn` — :class:`ChurnDriver` regimes layered on
  :mod:`repro.dynamic.workload`: bursty node joins, hub-targeted
  adversarial deletions, log-uniform reweight storms with restore, and the
  historical mixed stream;
* :mod:`repro.worlds.sweep` — the :func:`run_world` / :func:`sweep`
  executor recording accuracy-vs-exact, registry-sourced latency
  percentiles and pool-ESS health per world, plus gates
  (:func:`gate_rows`) and ``WORLDS_*.json`` / CSV artifact writers.

Entry points: ``python -m repro.experiments worlds [--faults]``,
``benchmarks/bench_worlds.py`` and ``examples/worlds_envelope.py``; the
docs live in ``docs/worlds.md``.
"""

from repro.worlds.spec import (
    BACKENDS,
    CHURN_REGIMES,
    MODES,
    TOPOLOGIES,
    TRAFFIC_MIXES,
    ChurnSpec,
    EstimatorSpec,
    FaultSpec,
    TrafficSpec,
    WorldSpec,
)
from repro.worlds.churn import (
    AdversarialDeletions,
    BurstyJoins,
    ChurnDriver,
    MixedChurn,
    ReweightStorm,
    churn_summary,
    make_churn_driver,
    run_burst,
)
from repro.worlds.sweep import (
    ESS_SOURCE,
    LATENCY_SOURCE,
    SERVICE_LATENCY_SOURCE,
    faulted_smoke_specs,
    gate_rows,
    run_world,
    smoke_specs,
    sweep,
    write_worlds_artifacts,
)

__all__ = [
    "BACKENDS",
    "CHURN_REGIMES",
    "MODES",
    "TOPOLOGIES",
    "TRAFFIC_MIXES",
    "ChurnSpec",
    "EstimatorSpec",
    "FaultSpec",
    "TrafficSpec",
    "WorldSpec",
    "AdversarialDeletions",
    "BurstyJoins",
    "ChurnDriver",
    "MixedChurn",
    "ReweightStorm",
    "churn_summary",
    "make_churn_driver",
    "run_burst",
    "ESS_SOURCE",
    "LATENCY_SOURCE",
    "SERVICE_LATENCY_SOURCE",
    "faulted_smoke_specs",
    "gate_rows",
    "run_world",
    "smoke_specs",
    "sweep",
    "write_worlds_artifacts",
]
