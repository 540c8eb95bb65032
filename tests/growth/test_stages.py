"""Tests for staged testing trajectories."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.growth import run_staged_testing
from repro.testing import ImperfectOracle, TestSuite
from repro.versions import Version


@pytest.fixture
def version_pair(universe):
    a = Version(universe, np.array([0, 1]))
    b = Version(universe, np.array([1, 2]))
    return a, b


class TestRunStagedTesting:
    def test_initial_record(self, version_pair, profile, space):
        a, b = version_pair
        trajectory = run_staged_testing(
            a, b, [(TestSuite.empty(space), TestSuite.empty(space))], profile
        )
        initial = trajectory.records[0]
        assert initial.stage == 0
        assert initial.pfd_a == pytest.approx(a.pfd(profile))
        assert initial.faults_a == 2
        assert initial.detected_a == 0

    def test_stage_progression(self, version_pair, profile, space):
        a, b = version_pair
        stages = [
            (TestSuite.of(space, [0]), TestSuite.of(space, [0])),
            (TestSuite.of(space, [2]), TestSuite.of(space, [2])),
        ]
        trajectory = run_staged_testing(a, b, stages, profile)
        assert len(trajectory.records) == 3
        # stage 1: demand 0 hits fault 0 (only a has it)
        assert trajectory.records[1].faults_a == 1
        assert trajectory.records[1].faults_b == 2
        # stage 2: demand 2 hits fault 1 (both have it)
        assert trajectory.records[2].faults_a == 0
        assert trajectory.records[2].faults_b == 1

    def test_monotone_under_perfect_testing(self, version_pair, profile, space, rng):
        a, b = version_pair
        stages = [
            (
                TestSuite(space, rng.integers(0, 10, size=2)),
                TestSuite(space, rng.integers(0, 10, size=2)),
            )
            for _ in range(4)
        ]
        trajectory = run_staged_testing(a, b, stages, profile)
        assert trajectory.is_monotone()

    def test_monotone_under_imperfect_oracle(self, version_pair, profile, space):
        a, b = version_pair
        stages = [
            (TestSuite(space, space.demands), TestSuite(space, space.demands))
        ] * 3
        trajectory = run_staged_testing(
            a, b, stages, profile, oracle=ImperfectOracle(0.4), rng=7
        )
        assert trajectory.is_monotone()

    def test_detected_counts_recorded(self, version_pair, profile, space):
        a, b = version_pair
        trajectory = run_staged_testing(
            a, b, [(TestSuite.of(space, [0, 2]), TestSuite.of(space, [9]))], profile
        )
        assert trajectory.records[1].detected_a == 2
        assert trajectory.records[1].detected_b == 0

    def test_arrays(self, version_pair, profile, space):
        a, b = version_pair
        trajectory = run_staged_testing(
            a, b, [(TestSuite.of(space, [0]), TestSuite.of(space, [0]))], profile
        )
        assert trajectory.system_pfds().shape == (2,)
        pfd_a, pfd_b = trajectory.version_pfds()
        assert pfd_a.shape == pfd_b.shape == (2,)

    def test_empty_stages_rejected(self, version_pair, profile):
        a, b = version_pair
        with pytest.raises(ModelError):
            run_staged_testing(a, b, [], profile)

    def test_final_property(self, version_pair, profile, space):
        a, b = version_pair
        trajectory = run_staged_testing(
            a,
            b,
            [(TestSuite(space, space.demands), TestSuite(space, space.demands))],
            profile,
        )
        assert trajectory.records[-1].pfd_a == 0.0
        assert trajectory.records[-1].system_pfd == 0.0
