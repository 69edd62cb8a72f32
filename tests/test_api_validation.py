"""Parameter and graph validation of the maximize_cfcc entry point."""

import pytest

import repro
from repro.dynamic import DynamicGraph
from repro.exceptions import InvalidParameterError


class TestKBounds:
    def test_k_at_least_one(self, karate):
        with pytest.raises(InvalidParameterError, match="k must be >= 1"):
            repro.maximize_cfcc(karate, 0, method="degree")

    def test_k_strictly_below_n(self, karate):
        with pytest.raises(InvalidParameterError, match="strict subset"):
            repro.maximize_cfcc(karate, karate.n, method="degree")
        with pytest.raises(InvalidParameterError, match="strict subset"):
            repro.maximize_cfcc(karate, karate.n + 5, method="exact")

    def test_k_must_be_integer(self, karate):
        with pytest.raises(InvalidParameterError, match="integer"):
            repro.maximize_cfcc(karate, 2.5, method="degree")

    def test_valid_boundary_k_accepted(self, path4):
        result = repro.maximize_cfcc(path4, path4.n - 1, method="degree")
        assert result.k == path4.n - 1


class TestEpsBounds:
    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.0, 1.5])
    @pytest.mark.parametrize("method", ["schur", "forest", "approx"])
    def test_invalid_eps_rejected_for_sampling_methods(self, karate, method, eps):
        with pytest.raises(InvalidParameterError, match="eps must lie in"):
            repro.maximize_cfcc(karate, 2, method=method, eps=eps)

    def test_eps_ignored_for_deterministic_methods(self, karate):
        result = repro.maximize_cfcc(karate, 2, method="degree", eps=-1.0)
        assert result.k == 2

    def test_config_overrides_eps_validation(self, karate):
        config = repro.SamplingConfig(eps=0.3, max_samples=16)
        result = repro.maximize_cfcc(karate, 2, method="forest", eps=-1.0,
                                     seed=0, config=config)
        assert result.k == 2


class TestEngineRouting:
    """What the graph argument accepts: a unit-weighted dynamic graph, not None."""

    def test_graph_none_without_engine_rejected(self):
        with pytest.raises(InvalidParameterError, match="graph is required"):
            repro.maximize_cfcc(None, 3, method="degree")

    def test_weighted_dynamic_graph_rejected_directly(self, karate):
        graph = DynamicGraph(karate)
        graph.update_weight(0, 1, 2.0)
        with pytest.raises(InvalidParameterError, match="unit edge weights"):
            repro.maximize_cfcc(graph, 2, method="exact")

    def test_dynamic_graph_accepted_directly(self, small_ba):
        graph = DynamicGraph(small_ba)
        if not graph.has_edge(0, small_ba.n - 1):
            graph.add_edge(0, small_ba.n - 1)
        result = repro.maximize_cfcc(graph, 2, method="degree")
        assert result.k == 2
