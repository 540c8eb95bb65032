"""Tests for the testing-regime objects."""

import numpy as np
import pytest

from repro.core import (
    ForcedTestingDiversity,
    IndependentSuites,
    SameSuite,
    joint_failure_probability,
)
from repro.demand import DemandSpace, uniform_profile
from repro.errors import IncompatibleSpaceError
from repro.testing import OperationalSuiteGenerator


class TestSameSuite:
    def test_draws_are_shared(self, enumerable_generator, rng):
        regime = SameSuite(enumerable_generator)
        suite_a, suite_b = regime.draw_suites(rng)
        assert suite_a is suite_b

    def test_flags(self, enumerable_generator):
        regime = SameSuite(enumerable_generator)
        assert regime.shares_suite
        assert regime.label == "same suite"

    def test_joint_per_demand_same_pop(
        self, bernoulli_population, enumerable_generator
    ):
        regime = SameSuite(enumerable_generator)
        joint = joint_failure_probability(
            regime, bernoulli_population, bernoulli_population
        ).joint
        # hand value from test_tested: E[xi(0,T)^2] = 0.125
        assert joint[0] == pytest.approx(0.125)


class TestIndependentSuites:
    def test_draws_differ_statistically(self, operational_generator):
        regime = IndependentSuites(operational_generator)
        rng = np.random.default_rng(0)
        distinct = 0
        for _ in range(20):
            suite_a, suite_b = regime.draw_suites(rng)
            if not np.array_equal(suite_a.demands, suite_b.demands):
                distinct += 1
        assert distinct > 10

    def test_flags(self, enumerable_generator):
        regime = IndependentSuites(enumerable_generator)
        assert not regime.shares_suite

    def test_joint_is_zeta_squared(
        self, bernoulli_population, enumerable_generator
    ):
        regime = IndependentSuites(enumerable_generator)
        joint = joint_failure_probability(
            regime, bernoulli_population, bernoulli_population
        ).joint
        assert joint[0] == pytest.approx(0.25**2)


class TestForcedTestingDiversity:
    def test_space_compatibility(self, profile):
        gen_a = OperationalSuiteGenerator(profile, 2)
        gen_b = OperationalSuiteGenerator(uniform_profile(DemandSpace(5)), 2)
        with pytest.raises(IncompatibleSpaceError):
            ForcedTestingDiversity(gen_a, gen_b)

    def test_draws_from_respective_generators(self, space, profile):
        gen_a = OperationalSuiteGenerator(profile, 2)
        gen_b = OperationalSuiteGenerator(profile, 5)
        regime = ForcedTestingDiversity(gen_a, gen_b)
        suite_a, suite_b = regime.draw_suites(np.random.default_rng(0))
        assert len(suite_a) == 2
        assert len(suite_b) == 5

    def test_joint_product_form(
        self, bernoulli_population, enumerable_generator, space, profile
    ):
        from repro.testing import EnumerableSuiteGenerator, TestSuite

        other = EnumerableSuiteGenerator(
            space, [TestSuite.of(space, [4])], [1.0]
        )
        regime = ForcedTestingDiversity(enumerable_generator, other)
        joint = joint_failure_probability(
            regime, bernoulli_population, bernoulli_population
        ).joint
        from repro.core import TestedPopulationView

        zeta_a = TestedPopulationView(
            bernoulli_population, enumerable_generator
        ).zeta()
        zeta_b = TestedPopulationView(bernoulli_population, other).zeta()
        np.testing.assert_allclose(joint, zeta_a * zeta_b)
