"""Tests of the benchmark's own code (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.dynamic.workload import random_update_journal
from repro.graph import generators
from repro.obs import tracing

from perfbench import layers, oracle
from perfbench.child import end_to_end, layer_metrics
from perfbench.oracle import dense_cfcc, splu_cfcc, splu_resistances
from perfbench.stats import latency_summary, percentile
from perfbench.workloads import (EXACT_TOLERANCE, WORKLOADS, Measurement,
                                 Select, ServeChurn, ServeMixed, ShardLattice,
                                 Verdict, union_length)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------ percentile rule
def test_p90_needs_ten_samples_beyond_it():
    short = latency_summary([i / 1000.0 for i in range(91)])
    enough = latency_summary([i / 1000.0 for i in range(100)])
    assert not short["p90_qualified"] and short["p90_beyond"] == 9
    assert enough["p90_qualified"] and enough["p90_beyond"] >= 10


def test_percentile_interpolates_like_numpy():
    data = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(data, q) == pytest.approx(np.percentile(data, q))


# ---------------------------------------------------------- metric alphabet
def test_benchmark_names_and_units_follow_the_alphabet():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert not NAME.fullmatch("_leading") and not NAME.fullmatch("a b")
    assert not NAME.fullmatch("x" * 65) and not UNIT.fullmatch("m s")
    from perfbench.run import WORKLOAD_NAMES

    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


# ------------------------------------------------------------- calibration
def test_scaled_clock_scales_by_the_kernel_and_unpatches():
    from perfbench.calibrate import REFERENCE_S, Calibrator, ScaledClock, ticking_after
    from repro.centrality.estimators import ForestAccumulator

    assert Calibrator.scale(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    assert Calibrator.scale(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    original = ForestAccumulator.add_samples
    clock = ScaledClock(Calibrator())
    with ticking_after(clock, "repro.centrality.estimators",
                       "ForestAccumulator.add_samples"):
        assert ForestAccumulator.add_samples is not original
        repro.maximize_cfcc(generators.barabasi_albert(40, 2, seed=1), 2,
                            method="schur", eps=0.5, seed=0)
    assert ForestAccumulator.add_samples is original
    # one kernel at start-up, one after every sampling step
    assert len(clock.calibrator.samples) > 2 and clock.scaled > 0.0


def _measurement(**overrides) -> Measurement:
    fields = dict(time_s=2.0, busy_s=1.0, attempted=4, completed=4, refused=0,
                  primary="exact", latencies={"exact": [0.01, 0.02, 0.03]})
    fields.update(overrides)
    return Measurement(**fields)


def test_reported_metrics_match_benchmark_json():
    m = _measurement()
    e2e = end_to_end(m, Verdict(checked=1, mismatches=0, quality=1.0), [0.5])
    assert set(e2e) == {spec["name"] for spec in SPEC["end_to_end"]}
    per_layer = layer_metrics(m, [], m, layers.profile([]))
    assert {spec["name"] for spec in SPEC["per_layer"]} <= set(per_layer)


# ------------------------------------------------- identical input streams
def test_same_seed_gives_the_same_inputs():
    assert ServeMixed(5).arrivals(3.0) == ServeMixed(5).arrivals(3.0)
    assert ServeMixed(5).arrivals(3.0) != ServeMixed(6).arrivals(3.0)
    assert ServeChurn(5).arrival_kinds(200) == ServeChurn(5).arrival_kinds(200)
    assert list(ShardLattice(5).cycles(3)) == list(ShardLattice(5).cycles(3))
    assert list(ShardLattice(5).cycles(3)) != list(ShardLattice(6).cycles(3))
    one, two = Select(5).build(), Select(5).build()
    assert sorted(one.edges()) == sorted(two.edges())


def test_arrivals_form_an_absolute_exponential_schedule():
    arrivals = ServeMixed(3).arrivals(20.0)
    due = [a[0] for a in arrivals]
    assert due == sorted(due) and due[-1] < 20.0
    gaps = np.diff(due)
    assert np.mean(gaps) == pytest.approx(1.0 / ServeMixed.RATE, rel=0.25)


def test_same_mutation_seed_gives_the_same_events():
    base = generators.barabasi_albert(80, 3, seed=1)
    streams = []
    for _ in range(2):
        graph = DynamicGraph(base)
        rng = np.random.default_rng(ServeMixed(9).seeds.mutation)
        streams.append([(e.kind, e.u, e.v) for e in
                        random_update_journal(graph, 30, rng)])
    assert streams[0] == streams[1]


# ------------------------------------------------------------------- oracles
def _replayed(seed: int = 2):
    base = generators.barabasi_albert(60, 3, seed=seed)
    graph = DynamicGraph(base)
    events = random_update_journal(graph, 12, np.random.default_rng(seed))
    return base, graph, events


def test_oracle_flags_a_perturbed_exact_read():
    base, graph, events = _replayed()
    group = (0, 1)
    exact = dense_cfcc(graph, group)
    workload = ServeMixed(1)
    state = {"base": base}
    for served, expected in ((exact, 0), (exact * (1.0 + 1e-6), 1)):
        m = _measurement(kept=[("exact", graph.version, group, served)],
                         extra={"events": events})
        assert workload.verify(state, m).mismatches == expected


def test_oracles_agree_with_the_library(monkeypatch):
    monkeypatch.setattr(oracle, "SOLVE_BLOCK", 7)
    _, graph, _ = _replayed(3)
    group = (2, 5)
    reference = repro.group_cfcc(graph.snapshot(), graph.compact_nodes(group))
    assert dense_cfcc(graph, group) == pytest.approx(reference, rel=1e-10)
    assert splu_cfcc(graph, group) == pytest.approx(reference, rel=1e-10)
    node = next(x for x in graph.node_ids() if int(x) not in group)
    resistance = splu_resistances(graph, group, [int(node)])[int(node)]
    lap = graph.laplacian_dense()
    keep = [i for i in range(graph.n) if i not in graph.compact_nodes(group)]
    inverse = np.linalg.inv(lap[np.ix_(keep, keep)])
    row = keep.index(graph.compact_index(int(node)))
    assert resistance == pytest.approx(inverse[row, row], rel=1e-10)


def test_lattice_verify_replays_the_toggles_and_flags_a_perturbed_resistance():
    workload = ShardLattice(1)
    (toggles, probes), = workload.cycles(1)
    graph = DynamicGraph(generators.grid_graph(workload.ROWS, workload.COLS))
    for u, v in toggles:
        graph.update_weight(u, v, 3.0 - graph.weight(u, v))
    served = splu_resistances(graph, workload.group, probes)
    m = _measurement(kept=[(0, served)], extra={"cycles": 1})
    assert workload.verify({}, m).mismatches == 0
    served[probes[0]] *= 1.0 + 10 * EXACT_TOLERANCE
    assert workload.verify({}, m).mismatches == 1


def test_churn_verify_checks_the_final_tracker_exactly():
    base = generators.barabasi_albert(120, 3, seed=3)
    workload = ServeChurn(2)
    group = (0, 1)
    engine = DynamicCFCM(base, seed=1)
    engine.evaluate_exact(group)
    events = random_update_journal(engine.graph, 20, np.random.default_rng(4))
    state = {"base": base, "group": group, "service": SimpleNamespace(engine=engine)}
    m = _measurement(kept=[(engine.graph.version, engine.evaluate_exact(group))],
                     extra={"events": events})
    verdict = workload.verify(state, m)
    assert verdict.checked == ServeChurn.PROBES and verdict.mismatches == 0
    assert verdict.quality == pytest.approx(1.0)
    # One journal event the engine never saw: the replayed graph differs.
    broken = _measurement(kept=m.kept, extra={"events": events[:-1]})
    assert workload.verify(state, broken).mismatches > 0


# ------------------------------------------------------------------ tracing
def test_profile_splits_self_time_by_layer():
    spans = [
        {"name": "bench.select", "span_id": 1, "parent_id": None, "start": 0.0, "elapsed": 1.0},
        {"name": "centrality.round", "span_id": 2, "parent_id": 1, "start": 0.1, "elapsed": 0.8},
        {"name": "sampling.draw", "span_id": 3, "parent_id": 2, "start": 0.2, "elapsed": 0.3},
        {"name": "sampling.lockstep", "span_id": 4, "parent_id": 3, "start": 0.2, "elapsed": 0.25},
    ]
    result = layers.profile(spans)
    assert result["layers"]["bench"]["self_s"] == pytest.approx(0.2)
    assert result["layers"]["centrality"]["self_s"] == pytest.approx(0.5)
    assert result["layers"]["sampling"]["self_s"] == pytest.approx(0.3)
    assert result["layers"]["sampling"]["inclusive_s"] == pytest.approx(0.3)
    assert result["stages"]["sampling.draw"]["self_s"] == pytest.approx(0.05)
    assert layers.inclusive(spans, "sampling.draw") == pytest.approx(0.3)


def test_sharded_engine_spans_count_as_distributed():
    spans = [
        {"name": "distributed.evaluate_exact", "span_id": 1, "parent_id": None,
         "start": 0.0, "elapsed": 1.0},
        {"name": "engine.evaluate_exact", "span_id": 2, "parent_id": 1,
         "start": 0.0, "elapsed": 0.9},
        {"name": "engine.evaluate_exact", "span_id": 3, "parent_id": 2,
         "start": 0.1, "elapsed": 0.4},
    ]
    result = layers.profile(spans)
    assert result["layers"]["distributed"]["self_s"] == pytest.approx(0.6)
    assert result["layers"]["dynamic"]["self_s"] == pytest.approx(0.4)


def test_layer_tracing_patches_callers_and_restores_them():
    from repro.centrality import schur_cfcm

    original = schur_cfcm.estimate_schur_delta
    graph = generators.barabasi_albert(60, 3, seed=4)
    with layers.LayerTracing() as traced:
        assert schur_cfcm.estimate_schur_delta is not original
        repro.maximize_cfcc(graph, 2, method="schur", eps=0.5, seed=1)
        names = {span["name"] for span in traced.spans()}
    assert schur_cfcm.estimate_schur_delta is original
    assert tracing.get_tracer() is None
    assert {"centrality.round", "centrality.fold", "sampling.draw"} <= names


def test_union_length_merges_overlaps():
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.2, 3.5)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


# ----------------------------------------------------------- entry point
def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
