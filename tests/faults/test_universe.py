"""Tests for FaultUniverse."""

import numpy as np
import pytest

from repro.demand import DemandSpace
from repro.errors import IncompatibleSpaceError, ModelError
from repro.faults import Fault, FaultUniverse


class TestConstruction:
    def test_from_regions(self, universe):
        assert len(universe) == 3
        assert universe.faults[0].size == 2

    def test_identifier_convention_enforced(self, space):
        wrong = Fault(space, np.array([0]), identifier=5)
        with pytest.raises(ModelError):
            FaultUniverse(space, (wrong,))

    def test_non_fault_rejected(self, space):
        with pytest.raises(ModelError):
            FaultUniverse(space, ("not a fault",))

    def test_empty_universe_allowed(self, space):
        universe = FaultUniverse(space, ())
        assert len(universe) == 0
        assert universe.coverage.shape == (0, 10)


class TestCoverage:
    def test_coverage_matrix_shape(self, universe):
        assert universe.coverage.shape == (3, 10)

    def test_faults_covering_shared_demand(self, universe):
        np.testing.assert_array_equal(universe.faults_covering(4), [1, 2])

    def test_faults_covering_uncovered_demand(self, universe):
        assert universe.faults_covering(9).size == 0

    def test_coverage_counts(self, universe):
        counts = universe.coverage_counts()
        assert counts[4] == 2
        assert counts[0] == 1
        assert counts[9] == 0


class TestTriggering:
    def test_triggered_by(self, universe):
        np.testing.assert_array_equal(universe.triggered_by([0, 4]), [0, 1, 2])

    def test_triggered_by_single(self, universe):
        np.testing.assert_array_equal(universe.triggered_by([2]), [1])

    def test_triggered_by_nothing(self, universe):
        assert universe.triggered_by([9]).size == 0
        assert universe.triggered_by([]).size == 0

    def test_surviving_complements_triggered(self, universe):
        for demands in ([0], [4], [9], [0, 2, 5]):
            triggered = set(universe.triggered_by(demands).tolist())
            surviving = set(universe.surviving(demands).tolist())
            assert triggered | surviving == {0, 1, 2}
            assert triggered & surviving == set()

    def test_surviving_empty_suite_is_everything(self, universe):
        np.testing.assert_array_equal(universe.surviving([]), [0, 1, 2])


class TestMasses:
    def test_region_masses_uniform(self, universe, profile):
        masses = universe.region_masses(profile.probabilities)
        np.testing.assert_allclose(masses, [0.2, 0.3, 0.2])

    def test_region_masses_length_check(self, universe):
        with pytest.raises(IncompatibleSpaceError):
            universe.region_masses(np.ones(3))


class TestMasksAndIds:
    def test_union_mask(self, universe):
        mask = universe.union_mask([0, 2])
        np.testing.assert_array_equal(
            np.flatnonzero(mask), [0, 1, 4, 5]
        )

    def test_union_mask_empty(self, universe):
        assert not universe.union_mask([]).any()

    def test_validate_fault_ids_rejects(self, universe):
        with pytest.raises(ModelError):
            universe.validate_fault_ids([3])

    def test_presence_mask(self, universe):
        mask = universe.presence_mask([1])
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_restrict(self, universe):
        sub = universe.restrict([1, 2])
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.faults[0].region, [2, 3, 4])

    def test_describe_mentions_counts(self, universe):
        text = universe.describe()
        assert "n_faults=3" in text
