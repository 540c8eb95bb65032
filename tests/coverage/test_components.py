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
    assert model.component_sizes().tolist() == [3, 3, 3]


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
    assert model.component_sizes().tolist() == [9, 0, 0, 0, 0]
    assert model.faults_in(4).size == 0


def test_faults_in_partitions_the_universe(universe):
    model = ComponentModel.round_robin(universe, 4)
    seen = np.concatenate([model.faults_in(k) for k in range(4)])
    assert sorted(seen.tolist()) == list(range(9))
    with pytest.raises(ModelError):
        model.faults_in(4)
    with pytest.raises(ModelError):
        model.faults_in(-1)


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


def test_component_masses_sum_to_total_region_mass(universe):
    profile = uniform_profile(universe.space)
    model = ComponentModel.round_robin(universe, 4)
    masses = model.component_masses(profile.probabilities)
    total = universe.region_masses(profile.probabilities).sum()
    assert masses.shape == (4,)
    assert masses.sum() == pytest.approx(total)


def test_union_masses_bounded_by_additive_masses(universe):
    profile = uniform_profile(universe.space)
    model = ComponentModel.blocked(universe, 3)
    union = model.union_masses(profile.probabilities)
    additive = model.component_masses(profile.probabilities)
    assert np.all(union <= additive + 1e-12)
    assert np.all(union >= 0.0)
