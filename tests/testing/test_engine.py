"""Tests for the testing engine — the heart of the paper's §3 mechanics."""

import numpy as np
import pytest

from repro.testing import (
    BackToBackComparator,
    ImperfectFixing,
    ImperfectOracle,
    PerfectOracle,
    TestSuite,
    apply_testing,
    back_to_back_testing,
)
from repro.versions import (
    Version,
    optimistic_outputs,
    pessimistic_outputs,
    shared_fault_outputs,
)


class TestPerfectTesting:
    def test_triggered_faults_removed(self, universe, space):
        version = Version.with_all_faults(universe)
        suite = TestSuite.of(space, [0])  # triggers fault 0 only
        outcome = apply_testing(version, suite)
        np.testing.assert_array_equal(outcome.after.fault_ids, [1, 2])

    def test_fixing_repairs_whole_region(self, universe, space):
        """The paper's point: demands outside the suite get repaired too."""
        version = Version(universe, np.array([1]))  # fails on {2,3,4}
        suite = TestSuite.of(space, [2])
        outcome = apply_testing(version, suite)
        assert outcome.after.n_faults == 0
        assert outcome.detected_failures == 1

    def test_miss_changes_nothing(self, universe, space):
        version = Version(universe, np.array([0]))
        suite = TestSuite.of(space, [5, 9])
        outcome = apply_testing(version, suite)
        assert outcome.after == version
        assert outcome.detected_failures == 0

    def test_repeated_demand_counts_twice(self, universe, space):
        version = Version(universe, np.array([0]))
        suite = TestSuite.of(space, [0, 0])
        outcome = apply_testing(version, suite)
        assert outcome.detected_failures == 2

    def test_score_monotonicity(self, universe, space, rng):
        """The fundamental inequality: scores never increase under testing."""
        for _ in range(50):
            fault_ids = np.flatnonzero(rng.random(3) < 0.5)
            version = Version(universe, fault_ids)
            demands = rng.integers(0, 10, size=rng.integers(0, 6))
            suite = TestSuite(space, demands)
            outcome = apply_testing(version, suite)
            assert np.all(
                outcome.after.failure_mask <= version.failure_mask
            )

    def test_empty_suite(self, universe, space):
        version = Version.with_all_faults(universe)
        outcome = apply_testing(version, TestSuite.empty(space))
        assert outcome.after == version

    def test_exhaustive_suite_fixes_everything(self, universe, space):
        version = Version.with_all_faults(universe)
        suite = TestSuite(space, space.demands)
        outcome = apply_testing(version, suite)
        assert outcome.after.n_faults == 0


class TestImperfectTesting:
    def test_perfect_parameters_match_fast_path(self, universe, space, rng):
        version = Version.with_all_faults(universe)
        suite = TestSuite.of(space, [0, 2, 5])
        fast = apply_testing(version, suite)
        slow = apply_testing(
            version,
            suite,
            ImperfectOracle(1.0),
            ImperfectFixing(1.0),
            rng=rng,
        )
        assert fast.after == slow.after
        assert fast.detected_failures == slow.detected_failures

    def test_dead_oracle_changes_nothing(self, universe, space, rng):
        version = Version.with_all_faults(universe)
        suite = TestSuite(space, space.demands)
        outcome = apply_testing(version, suite, ImperfectOracle(0.0), rng=rng)
        assert outcome.after == version
        assert outcome.detected_failures == 0

    def test_useless_fixing_detects_but_keeps_faults(self, universe, space, rng):
        version = Version(universe, np.array([0]))
        suite = TestSuite.of(space, [0, 1])
        outcome = apply_testing(
            version, suite, PerfectOracle(), ImperfectFixing(0.0), rng=rng
        )
        assert outcome.after == version
        assert outcome.detected_failures == 2  # both demands kept failing

    def test_later_demand_can_catch_missed_fault(self, universe, space):
        """With detection probability between 0 and 1, a fault missed on one
        demand of its region may be caught on another."""
        version = Version(universe, np.array([1]))  # region {2,3,4}
        suite = TestSuite.of(space, [2, 3, 4])
        caught = 0
        trials = 400
        for i in range(trials):
            outcome = apply_testing(
                version,
                suite,
                ImperfectOracle(0.5),
                rng=np.random.default_rng(i),
            )
            if outcome.after.n_faults == 0:
                caught += 1
        # P(caught) = 1 - 0.5^3 = 0.875
        assert caught / trials == pytest.approx(0.875, abs=0.06)

    def test_monotonicity_under_imperfection(self, universe, space, rng):
        version = Version.with_all_faults(universe)
        suite = TestSuite(space, space.demands)
        outcome = apply_testing(
            version,
            suite,
            ImperfectOracle(0.5),
            ImperfectFixing(0.5),
            rng=rng,
        )
        assert np.all(outcome.after.failure_mask <= version.failure_mask)


class TestBackToBack:
    def test_single_failure_fixed(self, universe, space):
        comparator = BackToBackComparator(pessimistic_outputs())
        failing = Version(universe, np.array([0]))
        correct = Version.correct(universe)
        outcome_a, outcome_b = back_to_back_testing(
            failing, correct, TestSuite.of(space, [0]), comparator
        )
        assert outcome_a.after.n_faults == 0
        assert outcome_b.after.n_faults == 0

    def test_pessimistic_coincident_failure_silent(self, universe, space):
        comparator = BackToBackComparator(pessimistic_outputs())
        via_f1 = Version(universe, np.array([1]))
        via_f2 = Version(universe, np.array([2]))
        outcome_a, outcome_b = back_to_back_testing(
            via_f1, via_f2, TestSuite.of(space, [4]), comparator
        )
        assert outcome_a.after == via_f1
        assert outcome_b.after == via_f2

    def test_optimistic_coincident_failure_fixes_both(self, universe, space):
        comparator = BackToBackComparator(optimistic_outputs())
        via_f1 = Version(universe, np.array([1]))
        via_f2 = Version(universe, np.array([2]))
        outcome_a, outcome_b = back_to_back_testing(
            via_f1, via_f2, TestSuite.of(space, [4]), comparator
        )
        assert outcome_a.after.n_faults == 0
        assert outcome_b.after.n_faults == 0

    def test_optimistic_equals_perfect_oracle(self, universe, space, rng):
        """§4.2: optimistic back-to-back = perfect oracle, per realisation."""
        comparator = BackToBackComparator(optimistic_outputs())
        for _ in range(40):
            a = Version(universe, np.flatnonzero(rng.random(3) < 0.6))
            b = Version(universe, np.flatnonzero(rng.random(3) < 0.6))
            suite = TestSuite(space, rng.integers(0, 10, size=4))
            b2b_a, b2b_b = back_to_back_testing(a, b, suite, comparator)
            assert b2b_a.after == apply_testing(a, suite).after
            assert b2b_b.after == apply_testing(b, suite).after

    def test_state_evolution_order_matters(self, universe, space):
        """Fixing earlier in the suite unlocks detection later: after the
        shared-cause failure is silent, removing the other channel's other
        fault first changes nothing — but a single-failure demand earlier in
        the suite does unlock the coincident demand."""
        comparator = BackToBackComparator(shared_fault_outputs())
        a = Version(universe, np.array([1]))       # fails {2,3,4}
        b = Version(universe, np.array([1, 2]))    # fails {2,3,4,5}
        # demand 3: both fail via fault 1 (same cause for a; b's causes are
        # {1} too since fault 2 does not cover 3) -> silent
        silent_a, silent_b = back_to_back_testing(
            a, b, TestSuite.of(space, [3]), comparator
        )
        assert silent_a.after == a
        assert silent_b.after == b
        # demand 5 first: only b fails -> fault 2 removed from b; then
        # demand 4: a fails via {1}, b via {1} -> identical -> silent
        ordered_a, ordered_b = back_to_back_testing(
            a, b, TestSuite.of(space, [5, 4]), comparator
        )
        assert ordered_b.after.fault_ids.tolist() == [1]
        assert ordered_a.after == a

    def test_outcome_bookkeeping(self, universe, space):
        comparator = BackToBackComparator(optimistic_outputs())
        a = Version(universe, np.array([0]))
        b = Version.correct(universe)
        outcome_a, outcome_b = back_to_back_testing(
            a, b, TestSuite.of(space, [0, 1]), comparator
        )
        assert outcome_a.detected_failures == 1  # fixed after first hit
        assert outcome_b.detected_failures == 0
