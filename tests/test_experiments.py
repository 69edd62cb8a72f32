"""Tests for the experiment harness (run on miniature workloads)."""

import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.experiments import networks
from repro.experiments.cli import build_parser, main
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.report import format_series, format_table, save_json
from repro.experiments.runner import (
    RunSpec,
    evaluate_cfcc,
    methods_for_effectiveness,
    run_method,
)
from repro.experiments.table2 import render_table2, run_table2


@pytest.fixture
def mini_graphs():
    """Very small workload so harness tests stay fast."""
    return {
        "mini-ba": generators.barabasi_albert(60, 2, seed=0),
        "mini-ws": generators.watts_strogatz(50, 4, 0.1, seed=1),
    }


class TestNetworks:
    def test_tiny_suite(self):
        suite = networks.tiny_suite()
        assert len(suite) == 4

    def test_small_suite_sizes(self):
        suite = networks.small_suite("small")
        assert len(suite) == 6
        assert all(graph.n <= 1000 for graph in suite.values())

    def test_medium_suite(self):
        suite = networks.medium_suite("small")
        assert len(suite) == 4

    def test_table2_suite_union(self):
        suite = networks.table2_suite("small")
        assert len(suite) >= 10

    def test_eps_suite(self):
        suite = networks.eps_sweep_suite("small")
        assert 3 <= len(suite) <= 6

    def test_invalid_scale(self):
        with pytest.raises(InvalidParameterError):
            networks.small_suite("galactic")


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text
        assert "-" in lines[3]

    def test_format_series(self):
        text = format_series("demo", {"m1": {1: 0.5, 2: 0.6}, "m2": {1: 0.4}})
        assert "demo" in text
        assert "m1" in text and "m2" in text

    def test_save_json(self, tmp_path):
        path = tmp_path / "out.json"
        save_json({"a": 1}, str(path))
        assert json.loads(path.read_text()) == {"a": 1}

    def test_save_json_none_is_noop(self):
        save_json({"a": 1}, None)


class TestRunner:
    def test_run_method_exact(self, mini_graphs):
        result = run_method(mini_graphs["mini-ba"], 2, RunSpec("exact"))
        assert result is not None and len(result.group) == 2

    def test_run_method_skips_exact_on_large_graph(self):
        graph = generators.barabasi_albert(60, 2, seed=3)
        # Simulate the infeasibility cut-off by monkey-level: use a spec on a
        # graph larger than the limit via the module constant.
        from repro.experiments import runner

        original = runner.EXACT_NODE_LIMIT
        runner.EXACT_NODE_LIMIT = 10
        try:
            assert run_method(graph, 2, RunSpec("exact")) is None
        finally:
            runner.EXACT_NODE_LIMIT = original

    def test_sampling_config_respects_caps(self, mini_graphs):
        # The spec's cap reaches the sampler: eps = 0.3 alone asks for 89.
        result = run_method(mini_graphs["mini-ba"], 3,
                            RunSpec("schur", eps=0.3, max_samples=24))
        assert result.parameters["max_samples"] == 24
        assert max(entry["samples"] for entry in result.iteration_log) == 24

    def test_methods_for_effectiveness(self):
        with_exact = methods_for_effectiveness(include_exact=True)
        without = methods_for_effectiveness(include_exact=False)
        assert "Exact" in with_exact and "Exact" not in without
        assert "Schur" in without

    def test_evaluate_cfcc_small_graph_exact(self, mini_graphs):
        graph = mini_graphs["mini-ba"]
        from repro.centrality.cfcc import group_cfcc

        assert evaluate_cfcc(graph, [0, 1]) == pytest.approx(group_cfcc(graph, [0, 1]))


class TestHarnessRuns:
    def test_table2_miniature(self, mini_graphs):
        rows = run_table2(graphs=mini_graphs, k=2, eps_values=(0.3,),
                          max_samples=24, verbose=False)
        assert len(rows) == 2
        for row in rows:
            assert row["exact_seconds"] is not None
            assert row["schur_0.3_seconds"] is not None
        text = render_table2(rows, eps_values=(0.3,))
        assert "mini-ba" in text

    def test_figure1_miniature(self):
        graphs = {"mini": generators.barabasi_albert(25, 2, seed=5)}
        results = run_figure1(graphs=graphs, k_values=(1, 2), eps=0.3,
                              max_samples=32, verbose=False)
        curves = results["mini"]
        assert set(curves) == {"Optimum", "Exact", "Approx", "Forest", "Schur"}
        for k in (1, 2):
            assert curves["Optimum"][k] >= curves["Exact"][k] - 1e-9

    def test_figure2_miniature(self, mini_graphs):
        results = run_figure2(graphs={"mini-ba": mini_graphs["mini-ba"]},
                              k_values=(2, 4), eps=0.3, max_samples=24,
                              verbose=False)
        curves = results["mini-ba"]
        assert curves["Exact"][4] > curves["Exact"][2]

    def test_figure4_miniature(self, mini_graphs):
        results = run_figure4(graphs={"mini-ws": mini_graphs["mini-ws"]},
                              eps_values=(0.4, 0.3), k=2, max_samples=24,
                              verbose=False)
        sweep = results["mini-ws"]
        assert set(sweep) == {"ForestCFCM", "SchurCFCM"}
        assert len(sweep["SchurCFCM"]) == 2

    def test_figure5_miniature(self, mini_graphs):
        results = run_figure5(graphs={"mini-ba": mini_graphs["mini-ba"]},
                              eps_values=(0.3,), k=2, max_samples=32,
                              verbose=False)
        values = results["mini-ba"]
        assert 0.0 <= values["SchurCFCM"][0.3] <= 1.0


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.scale == "small"

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure42"])

    def test_parser_options(self):
        args = build_parser().parse_args(
            ["fig4", "--k", "5", "--eps", "0.3", "--quick", "--max-samples", "16"]
        )
        assert args.k == 5 and args.quick and args.max_samples == 16

    def test_all_writes_every_artefact_to_one_json(self, tmp_path,
                                                    monkeypatch):
        import repro.experiments.cli as cli

        def stub(name):
            def run(output_json=None, **kwargs):
                payload = {"artefact": name}
                save_json(payload, output_json)
                return payload
            return run

        names = {"table2": "run_table2", "fig1": "run_figure1",
                 "fig2": "run_figure2", "fig3": "run_figure3",
                 "fig4": "run_figure4", "fig5": "run_figure5"}
        for key, function in names.items():
            monkeypatch.setattr(cli, function, stub(key))
        path = tmp_path / "all.json"
        assert main(["all", "--quick", "--output-json", str(path)]) == 0
        saved = json.loads(path.read_text())
        assert saved == {key: {"artefact": key} for key in names}
        # A single experiment keeps writing its own payload.
        assert main(["fig2", "--quick", "--output-json", str(path)]) == 0
        assert json.loads(path.read_text()) == {"artefact": "fig2"}

    def test_parser_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--smoke", "--ops", "40", "--rate", "250",
             "--query-fraction", "0.4", "--workers", "3"]
        )
        assert args.experiment == "serve"
        assert args.smoke and args.ops == 40 and args.workers == 3
        assert args.rate == 250.0 and args.query_fraction == 0.4


class TestServeStudy:
    def test_run_service_smoke_gate(self, tmp_path):
        from repro.experiments.service import run_service

        path = tmp_path / "serve.json"
        row = run_service(ops=30, rate=400.0, query_fraction=0.5, workers=2,
                          seed=1, n=60, smoke=True, verbose=False,
                          output_json=str(path))
        assert row["failures"] == []
        assert row["updates_applied"] + row["queries"] + row["evaluations"] > 0
        saved = json.loads(path.read_text())
        assert saved["final_version"] == row["final_version"]

    def test_serve_via_main_exits_zero(self, capsys):
        code = main(["serve", "--smoke", "--ops", "24", "--seed", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Async CFCM service" in output
        assert "smoke equivalence OK" in output
