"""Tests for edge-list IO and graph summary statistics."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import datasets, generators, io, properties
from repro.graph.graph import Graph


def select_graph():
    """The ``select`` benchmark's graph."""
    return generators.powerlaw_cluster(1000, 4, 0.3, seed=7)


def brute_force_extra_root_size(graph):
    """``argmin |T| + dmax(V \\ T)`` over every degree-sorted prefix."""
    order = np.argsort(-graph.degrees, kind="stable")
    values = [size + graph.max_degree(excluded=[int(v) for v in order[:size]])
              for size in range(1, graph.n - 1)]
    return int(np.argmin(values)) + 1


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path, karate):
        path = tmp_path / "karate.txt"
        io.write_edge_list(karate, path)
        reread, _ = io.read_edge_list(path)
        assert reread.n == karate.n
        assert reread.m == karate.m

    def test_comments_and_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n% konect header\n0 1 5.0\n1 2 1.0 17\n\n")
        graph, labels = io.read_edge_list(path)
        assert graph.n == 3
        assert graph.m == 2
        assert set(labels.values()) == {"0", "1", "2"}

    def test_string_labels(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n")
        graph, labels = io.read_edge_list(path)
        assert graph.n == 3
        assert sorted(labels.values()) == ["alice", "bob", "carol"]

    def test_lcc_only(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n5 6\n")
        graph, labels = io.read_edge_list(path, lcc_only=True)
        assert graph.n == 3
        assert set(labels.values()) == {"0", "1", "2"}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            io.read_edge_list(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(GraphError):
            io.read_edge_list(path)

    def test_header_written(self, tmp_path, path4):
        path = tmp_path / "out.txt"
        io.write_edge_list(path4, path, header=["generated for tests"])
        content = path.read_text()
        assert content.startswith("# generated for tests")
        assert "0 1" in content


class TestProperties:
    def test_extra_root_size_star(self):
        star = generators.star_graph(20)
        # Removing the hub drops the max degree to 0, so |T*| = 1.
        assert properties.extra_root_size(star) == 1

    def test_extra_root_size_bounded(self, medium_ba):
        size = properties.extra_root_size(medium_ba)
        assert 1 <= size <= 1 + medium_ba.max_degree()

    @pytest.mark.parametrize("name", ["star", "Karate", "Dolphins*", "grid",
                                      "select"])
    def test_extra_root_size_scan_matches_brute_force(self, name):
        graphs = {"star": lambda: generators.star_graph(20),
                  "grid": lambda: generators.grid_graph(20, 20),
                  "select": select_graph}
        graph = (graphs[name]() if name in graphs
                 else datasets.tiny_suite()[name])
        assert (properties.extra_root_size(graph)
                == brute_force_extra_root_size(graph))

    @pytest.mark.parametrize("build, size", [
        (select_graph, 17),
        (lambda: generators.grid_graph(20, 20), 1),
        (lambda: generators.watts_strogatz(400, 4, 0.05, seed=13), 1),
        (lambda: datasets.tiny_suite()["Zebra*"], 1),
    ], ids=["select", "grid", "watts_strogatz", "Zebra*"])
    def test_extra_root_size_grows_with_hubs(self, build, size):
        # Hubs give T many roots; graphs without hubs keep the single top hub.
        assert properties.extra_root_size(build()) == size


class TestDatasets:
    def test_karate_matches_networkx(self, karate):
        reference = nx.karate_club_graph()
        assert karate.n == reference.number_of_nodes()
        assert karate.m == reference.number_of_edges()
        for node in range(karate.n):
            assert karate.degrees[node] == reference.degree(node)

    def test_tiny_suite_sizes(self):
        from repro.graph.datasets import tiny_suite

        suite = tiny_suite()
        assert len(suite) == 4
        sizes = sorted(graph.n for graph in suite.values())
        assert sizes == [23, 34, 49, 62]

    def test_paper_network_registry(self):
        from repro.graph.datasets import PAPER_NETWORKS, paper_network

        assert "Euroroads" in PAPER_NETWORKS
        graph = paper_network("Euroroads")
        assert isinstance(graph, Graph)
        assert graph.n > 100

    def test_paper_network_unknown(self):
        from repro.exceptions import InvalidParameterError
        from repro.graph.datasets import paper_network

        with pytest.raises(InvalidParameterError):
            paper_network("NotADataset")
