"""Tests for the component-structured program model."""

import numpy as np
import pytest

from repro.coverage import ComponentModel
from repro.demand import DemandSpace, uniform_profile
from repro.errors import ModelError
from repro.faults import clustered_universe


@pytest.fixture
def universe():
    return clustered_universe(DemandSpace(40), n_faults=9, region_size=4, rng=7)


def test_round_robin_assignment(universe):
    model = ComponentModel.round_robin(universe, 4)
    assert model.n_components == 4
    np.testing.assert_array_equal(
        model.assignment, np.arange(9, dtype=np.int64) % 4
    )


def test_blocked_assignment_is_contiguous_and_balanced(universe):
    model = ComponentModel.blocked(universe, 3)
    np.testing.assert_array_equal(model.assignment, np.repeat([0, 1, 2], 3))
    assert np.bincount(model.assignment, minlength=3).tolist() == [3, 3, 3]


def test_from_lines_buckets_nearby_lines_together(universe):
    lines = [10, 11, 12, 50, 51, 52, 90, 91, 92]
    model = ComponentModel.from_lines(universe, lines, 3)
    np.testing.assert_array_equal(model.assignment, np.repeat([0, 1, 2], 3))
    # repeated lines always share a component
    model = ComponentModel.from_lines(universe, [5] * 9, 3)
    assert len(set(model.assignment.tolist())) == 1


def test_explicit_n_components_allows_trailing_empty(universe):
    model = ComponentModel(universe, np.zeros(9, dtype=np.int64), 5)
    assert model.n_components == 5
    assert np.bincount(model.assignment, minlength=5).tolist() == [9, 0, 0, 0, 0]


def test_validation_rejects_bad_assignments(universe):
    with pytest.raises(ModelError):
        ComponentModel(universe, np.zeros(4, dtype=np.int64))
    with pytest.raises(ModelError):
        ComponentModel(universe, np.full(9, -1, dtype=np.int64))
    with pytest.raises(ModelError):
        ComponentModel(universe, np.full(9, 3, dtype=np.int64), 3)
    with pytest.raises(ModelError):
        ComponentModel.round_robin(universe, 0)
    with pytest.raises(ModelError):
        ComponentModel.from_lines(universe, [1, 2], 3)


def test_assignment_is_read_only(universe):
    model = ComponentModel.round_robin(universe, 4)
    with pytest.raises(ValueError):
        model.assignment[0] = 3
