"""Scenario-sweep benchmark — the worlds harness as a gated CI smoke.

Runs the canonical smoke cross of :func:`repro.worlds.smoke_specs` (seven
worlds crossing topology x churn regime x backend x execution mode) through
:func:`repro.worlds.sweep` and applies the sweep gates: every world must
stay within its forest/exact accuracy tolerance against a from-scratch
reference and keep its worst pool ESS above half the configured floor.

Besides the pytest-benchmark suite this module is runnable standalone::

    PYTHONPATH=src python benchmarks/bench_worlds.py --smoke

It exits non-zero when a gate fails; ``--smoke`` writes the
``WORLDS_smoke.json`` artifact (uploaded per-commit by CI next to the
``BENCH_*.json`` family) unless ``--output-json`` names another path.
Latency percentiles inside the rows come from the
``repro_engine_op_seconds`` registry histogram, not from any timing done
here.
"""

from __future__ import annotations

import argparse

import pytest

from repro.worlds import (
    gate_rows,
    run_world,
    smoke_specs,
    sweep,
    write_worlds_artifacts,
)

#: the smoke cross must keep covering at least this many worlds and these
#: axes; the assertions below keep the gate honest against future edits.
MIN_SMOKE_WORLDS = 6


def run_smoke(verbose: bool = True):
    """Run the canonical cross; returns (rows, failure strings)."""
    specs = smoke_specs()
    assert len(specs) >= MIN_SMOKE_WORLDS, "smoke cross shrank below the floor"
    assert len({spec.topology for spec in specs}) >= 4
    assert len({spec.churn.regime for spec in specs}) >= 4
    assert len({spec.backend for spec in specs}) >= 2
    rows = sweep(specs, verbose=verbose)
    return rows, gate_rows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Scenario sweep over topology x churn x backend worlds")
    parser.add_argument("--smoke", action="store_true",
                        help="write the WORLDS_smoke.json artifact by default")
    parser.add_argument("--output-json", default=None,
                        help="path of the JSON artifact (default in --smoke "
                             "mode: WORLDS_smoke.json)")
    parser.add_argument("--output-csv", default=None,
                        help="also write the sweep table as CSV")
    args = parser.parse_args(argv)

    output = args.output_json
    if args.smoke:
        output = output or "WORLDS_smoke.json"
    rows, failures = run_smoke()
    write_worlds_artifacts(rows, json_path=output, csv_path=args.output_csv,
                           label="worlds_smoke")
    if failures:
        for failure in failures:
            print(f"[bench_worlds] GATE FAILURE: {failure}")
        return 1
    print(f"[bench_worlds] all {len(rows)} worlds within accuracy tolerance "
          "and ESS floor")
    return 0


# --------------------------------------------------------------------------
# pytest-benchmark suite
# --------------------------------------------------------------------------

@pytest.mark.benchmark(group="worlds")
class TestWorldsSweep:
    """End-to-end world runs, one per stress regime."""

    def test_bursty_joins_world(self, benchmark):
        spec = smoke_specs()[0]
        benchmark(lambda: run_world(spec, verbose=False))

    def test_adversarial_deletions_world(self, benchmark):
        spec = smoke_specs()[1]
        benchmark(lambda: run_world(spec, verbose=False))

    def test_reweight_storm_world(self, benchmark):
        spec = smoke_specs()[3]
        benchmark(lambda: run_world(spec, verbose=False))


if __name__ == "__main__":
    raise SystemExit(main())
