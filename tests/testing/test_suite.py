"""Tests for TestSuite."""

import numpy as np
import pytest

from repro.demand import DemandSpace
from repro.errors import IncompatibleSpaceError, ModelError
from repro.testing import TestSuite


class TestConstruction:
    def test_of(self, space):
        suite = TestSuite.of(space, [3, 1, 3])
        np.testing.assert_array_equal(suite.demands, [3, 1, 3])

    def test_empty(self, space):
        suite = TestSuite.empty(space)
        assert len(suite) == 0
        assert suite.unique_demands.size == 0

    def test_out_of_range_rejected(self, space):
        with pytest.raises(ModelError):
            TestSuite.of(space, [10])

    def test_order_preserved(self, space):
        suite = TestSuite.of(space, [5, 2, 9])
        assert list(suite) == [5, 2, 9]


class TestSetView:
    def test_unique_demands_sorted_dedup(self, space):
        suite = TestSuite.of(space, [4, 2, 4, 2, 7])
        np.testing.assert_array_equal(suite.unique_demands, [2, 4, 7])
        assert suite.unique_demands.size == 3
        assert len(suite) == 5

    def test_contains(self, space):
        suite = TestSuite.of(space, [1, 5])
        assert suite.contains(5)
        assert not suite.contains(2)

    def test_mask(self, space):
        suite = TestSuite.of(space, [0, 9])
        mask = suite.mask()
        assert mask[0] and mask[9]
        assert mask.sum() == 2


class TestEqualityHash:
    def test_equal_same_order(self, space):
        assert TestSuite.of(space, [1, 2]) == TestSuite.of(space, [1, 2])

    def test_order_matters(self, space):
        assert TestSuite.of(space, [1, 2]) != TestSuite.of(space, [2, 1])

    def test_hashable(self, space):
        suites = {TestSuite.of(space, [1]), TestSuite.of(space, [1])}
        assert len(suites) == 1


class TestOperations:
    def test_concatenate(self, space):
        merged = TestSuite.of(space, [1, 2]).concatenate(TestSuite.of(space, [2, 3]))
        assert list(merged) == [1, 2, 2, 3]
        np.testing.assert_array_equal(merged.unique_demands, [1, 2, 3])

    def test_concatenate_space_mismatch(self, space):
        other = TestSuite.of(DemandSpace(5), [1])
        with pytest.raises(IncompatibleSpaceError):
            TestSuite.of(space, [1]).concatenate(other)

    def test_prefix(self, space):
        suite = TestSuite.of(space, [4, 5, 6])
        assert list(suite.prefix(2)) == [4, 5]
        assert list(suite.prefix(0)) == []
        assert list(suite.prefix(99)) == [4, 5, 6]

    def test_prefix_negative_rejected(self, space):
        with pytest.raises(ModelError):
            TestSuite.of(space, [1]).prefix(-1)
