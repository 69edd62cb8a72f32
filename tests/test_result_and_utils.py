"""Tests for the result container and the shared utilities."""

import numpy as np
import pytest

from repro.exceptions import (
    InvalidNodeError,
    InvalidParameterError,
    NotComputedError,
    ReproError,
)
from repro.centrality.result import CFCMResult
from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_group,
    check_integer,
    check_node,
    check_positive,
    check_probability,
)


class TestCFCMResult:
    def make(self):
        return CFCMResult(
            method="schur",
            group=[3, 7, 1],
            runtime_seconds=1.5,
            iteration_log=[{"samples": 10}, {"samples": 20}, {"samples": 30}],
        )

    def test_basic_fields(self):
        result = self.make()
        assert len(result.group) == 3
        assert result.runtime_seconds == 1.5

    def test_prefix(self):
        result = self.make()
        assert result.prefix(2) == [3, 7]
        assert result.prefix(0) == []

    def test_prefix_out_of_range(self):
        with pytest.raises(NotComputedError):
            self.make().prefix(5)


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(InvalidParameterError, ReproError)
        assert issubclass(InvalidNodeError, ReproError)
        assert issubclass(NotComputedError, ReproError)


class TestRng:
    def test_as_rng_from_int(self):
        a = as_rng(5).integers(0, 1000, size=10)
        b = as_rng(5).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_as_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(InvalidParameterError):
            check_positive("x", 0.0)
        with pytest.raises(InvalidParameterError):
            check_positive("x", -1.0, strict=False)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        assert check_probability("p", 0.0, inclusive=True) == 0.0
        with pytest.raises(InvalidParameterError):
            check_probability("p", 0.0)
        with pytest.raises(InvalidParameterError):
            check_probability("p", 1.2, inclusive=True)

    def test_check_integer(self):
        assert check_integer("k", 3, minimum=1, maximum=5) == 3
        with pytest.raises(InvalidParameterError):
            check_integer("k", 0, minimum=1)
        with pytest.raises(InvalidParameterError):
            check_integer("k", 9, maximum=5)
        with pytest.raises(InvalidParameterError):
            check_integer("k", 2.5)
        with pytest.raises(InvalidParameterError):
            check_integer("k", True)

    def test_check_node(self):
        assert check_node(3, 5) == 3
        assert check_node(np.int64(2), 5) == 2
        with pytest.raises(InvalidNodeError):
            check_node(5, 5)
        with pytest.raises(InvalidNodeError):
            check_node("a", 5)

    def test_check_group(self):
        assert check_group([3, 1], 5) == [1, 3]
        assert check_group([], 5, allow_empty=True) == []
        with pytest.raises(InvalidParameterError):
            check_group([], 5)
        with pytest.raises(InvalidParameterError):
            check_group([1, 1], 5)
        with pytest.raises(InvalidParameterError):
            check_group(list(range(5)), 5)
