"""Tests for the suite generators (the measures M)."""

import numpy as np
import pytest

from repro.demand import (
    DemandSpace,
    UsageProfile,
    uniform_profile,
)
from repro.errors import ModelError, NotEnumerableError, ProbabilityError
from repro.testing import (
    EnumerableSuiteGenerator,
    ExhaustiveSuiteGenerator,
    OperationalSuiteGenerator,
    TestSuite,
    WeightedDebugGenerator,
    WithoutReplacementGenerator,
)


class TestOperational:
    def test_size(self, profile, rng):
        generator = OperationalSuiteGenerator(profile, 6)
        suite = generator.sample(rng)
        assert len(suite) == 6

    def test_zero_size(self, profile, rng):
        generator = OperationalSuiteGenerator(profile, 0)
        assert len(generator.sample(rng)) == 0

    def test_negative_size_rejected(self, profile):
        with pytest.raises(ModelError):
            OperationalSuiteGenerator(profile, -1)

    def test_draws_follow_profile(self, space):
        profile = UsageProfile.normalised(space, [10, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        generator = OperationalSuiteGenerator(profile, 5)
        suite = generator.sample(np.random.default_rng(0))
        assert set(suite) == {0}

    def test_not_enumerable(self, operational_generator):
        with pytest.raises(NotEnumerableError):
            list(operational_generator.enumerate())

    def test_sample_many_independent(self, operational_generator):
        suites = operational_generator.sample_many(10, np.random.default_rng(1))
        assert len({tuple(s.demands.tolist()) for s in suites}) > 1


class TestWithoutReplacement:
    def test_distinct_demands(self, profile, rng):
        generator = WithoutReplacementGenerator(profile, 8)
        suite = generator.sample(rng)
        assert suite.unique_demands.size == 8

    def test_size_cap(self, profile):
        with pytest.raises(ModelError):
            WithoutReplacementGenerator(profile, 11)

    def test_support_cap(self, space):
        profile = UsageProfile.normalised(space, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ModelError):
            WithoutReplacementGenerator(profile, 3)


class TestWeightedDebug:
    def test_biased_towards_boosts(self, space):
        profile = uniform_profile(space)
        generator = WeightedDebugGenerator.biased_towards(
            profile, [0], boost=1000.0, size=50
        )
        suite = generator.sample(np.random.default_rng(0))
        assert np.mean(suite.demands == 0) > 0.9

    def test_zero_boost_rejected(self, profile):
        with pytest.raises(ProbabilityError):
            WeightedDebugGenerator.biased_towards(profile, [0], boost=0.0, size=5)


class TestExhaustive:
    def test_covers_everything(self, space, rng):
        generator = ExhaustiveSuiteGenerator(space)
        suite = generator.sample(rng)
        assert suite.unique_demands.size == 10

    def test_enumerable(self, space):
        generator = ExhaustiveSuiteGenerator(space)
        pairs = list(generator.enumerate())
        assert len(pairs) == 1
        assert pairs[0][1] == 1.0


class TestEnumerable:
    def test_enumerate_matches_input(self, enumerable_generator):
        pairs = list(enumerable_generator.enumerate())
        assert len(pairs) == 3
        assert sum(p for _, p in pairs) == pytest.approx(1.0)

    def test_sampling_frequencies(self, enumerable_generator):
        rng = np.random.default_rng(9)
        counts = {}
        n = 5000
        for _ in range(n):
            suite = enumerable_generator.sample(rng)
            key = tuple(suite.demands.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert counts[(0,)] / n == pytest.approx(0.5, abs=0.03)
        assert counts[(2, 4)] / n == pytest.approx(0.3, abs=0.03)

    def test_probability_validation(self, space):
        suite = TestSuite.of(space, [0])
        with pytest.raises(ProbabilityError):
            EnumerableSuiteGenerator(space, [suite], [0.5])
        with pytest.raises(ModelError):
            EnumerableSuiteGenerator(space, [], [])

    def test_uniform_over(self, space):
        suites = [TestSuite.of(space, [0]), TestSuite.of(space, [1])]
        generator = EnumerableSuiteGenerator.uniform_over(space, suites)
        for _, probability in generator.enumerate():
            assert probability == pytest.approx(0.5)
