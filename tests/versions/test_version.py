"""Tests for Version."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.versions import Version


class TestConstruction:
    def test_correct_version(self, universe):
        version = Version.correct(universe)
        assert version.n_faults == 0
        assert not version.failure_mask.any()

    def test_with_all_faults(self, universe):
        version = Version.with_all_faults(universe)
        assert version.n_faults == 3
        np.testing.assert_array_equal(
            np.flatnonzero(version.failure_mask), [0, 1, 2, 3, 4, 5]
        )

    def test_fault_ids_canonicalised(self, universe):
        version = Version(universe, np.array([2, 0, 2]))
        np.testing.assert_array_equal(version.fault_ids, [0, 2])

    def test_invalid_fault_id_rejected(self, universe):
        with pytest.raises(ModelError):
            Version(universe, np.array([7]))


class TestEquality:
    def test_same_faults_equal(self, universe):
        a = Version(universe, np.array([0, 1]))
        b = Version(universe, np.array([1, 0]))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_faults_not_equal(self, universe):
        assert Version(universe, np.array([0])) != Version(universe, np.array([1]))

    def test_not_equal_to_other_types(self, universe):
        assert Version.correct(universe) != "correct"


class TestScores:
    def test_score_one_on_failure(self, universe):
        version = Version(universe, np.array([0]))
        assert version.score(0) == 1
        assert version.score(1) == 1
        assert version.score(2) == 0

    def test_scores_vectorised(self, universe):
        version = Version(universe, np.array([1]))
        np.testing.assert_array_equal(
            version.scores([0, 2, 3, 9]), [0, 1, 1, 0]
        )

    def test_fails_on(self, universe):
        version = Version(universe, np.array([2]))
        assert version.fails_on(5)
        assert not version.fails_on(0)

    def test_failure_set(self, universe):
        version = Version(universe, np.array([0, 2]))
        np.testing.assert_array_equal(version.failure_set, [0, 1, 4, 5])


class TestCauses:
    def test_faults_causing_failure(self, universe):
        version = Version.with_all_faults(universe)
        np.testing.assert_array_equal(version.faults_causing_failure(4), [1, 2])

    def test_faults_causing_failure_subset_of_version(self, universe):
        version = Version(universe, np.array([2]))
        np.testing.assert_array_equal(version.faults_causing_failure(4), [2])

    def test_no_causes_when_correct(self, universe):
        assert Version.correct(universe).faults_causing_failure(4).size == 0


class TestPfd:
    def test_pfd_uniform(self, universe, profile):
        version = Version(universe, np.array([0]))  # fails on {0,1}
        assert version.pfd(profile) == pytest.approx(0.2)

    def test_pfd_correct_is_zero(self, universe, profile):
        assert Version.correct(universe).pfd(profile) == 0.0

    def test_pfd_counts_overlap_once(self, universe, profile):
        version = Version(universe, np.array([1, 2]))  # {2,3,4} | {4,5}
        assert version.pfd(profile) == pytest.approx(0.4)


class TestFaultSurgery:
    def test_without_faults(self, universe):
        version = Version.with_all_faults(universe)
        reduced = version.without_faults([1])
        np.testing.assert_array_equal(reduced.fault_ids, [0, 2])
        # original unchanged (immutability)
        assert version.n_faults == 3

    def test_without_absent_fault_is_noop(self, universe):
        version = Version(universe, np.array([0]))
        same = version.without_faults([1, 2])
        assert same == version

    def test_with_faults(self, universe):
        version = Version(universe, np.array([0]))
        grown = version.with_faults([2])
        np.testing.assert_array_equal(grown.fault_ids, [0, 2])
