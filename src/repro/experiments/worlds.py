"""Scenario-sweep study: map the serving envelope across the smoke worlds.

``python -m repro.experiments worlds`` runs :func:`repro.worlds.sweep` over
the canonical smoke cross (:func:`repro.worlds.smoke_specs`), or with
``--faults`` over the chaos cross (:func:`repro.worlds.faulted_smoke_specs`),
then prints the accuracy/latency/ESS table and applies the sweep gates: a
world that misses its accuracy tolerance or ESS floor fails the run with a
non-zero exit, which is what CI's bench-smoke job relies on.

Latency percentiles and pool health in the table come from the
:data:`repro.obs.REGISTRY` histograms and health gauges the engine already
populates (``repro_engine_op_seconds``, ``repro_pool_ess``) — the sweep
layer adds no timing of its own.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.report import format_table, write_obs_artifacts
from repro.worlds import (
    faulted_smoke_specs,
    gate_rows,
    smoke_specs,
    sweep,
    write_worlds_artifacts,
)

TABLE_COLUMNS = (
    "world", "n", "events_applied", "forest_rel_error", "exact_rel_error",
    "p95_exact_ms", "p95_forest_ms", "min_pool_ess", "accuracy_ok", "ess_ok",
)

FAULTS_TABLE_COLUMNS = (
    "world", "n", "faults", "faults_injected", "typed_failures",
    "events_applied", "forest_rel_error", "exact_rel_error",
    "min_pool_ess", "accuracy_ok", "ess_ok",
)


def run_worlds(
    faults: bool = False,
    output_json: Optional[str] = None,
    output_csv: Optional[str] = None,
    metrics_prefix: Optional[str] = None,
) -> Dict[str, object]:
    """Run the sweep and print the envelope table; returns rows + failures.

    ``faults=True`` runs the chaos smoke cross, which overlays fault
    regimes on the smoke worlds: every read under injection must either
    meet the world's accuracy gate or fail with a typed error, and the
    table grows injection/typed-failure columns.
    """
    if faults:
        specs, source = faulted_smoke_specs(), "chaos smoke cross"
    else:
        specs, source = smoke_specs(), "smoke cross"

    print(f"== worlds sweep: {len(specs)} worlds from {source} ==")
    rows = sweep(specs, verbose=True)
    failures = gate_rows(rows)

    columns = FAULTS_TABLE_COLUMNS if faults else TABLE_COLUMNS
    print()
    print(format_table(
        columns,
        [[row.get(column) for column in columns] for row in rows],
        float_format="{:.4g}",
    ))
    print()
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}")
    else:
        print(f"all {len(rows)} worlds within accuracy tolerance and "
              "ESS floor")

    write_worlds_artifacts(rows, json_path=output_json, csv_path=output_csv)
    if metrics_prefix is not None:
        # The registry still holds the last world's distributions (run_world
        # resets it per world), so the obs artifacts snapshot that world.
        write_obs_artifacts(metrics_prefix, label="worlds")
    return {"rows": rows, "failures": failures}
