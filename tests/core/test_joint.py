"""Tests for joint_failure_probability (eqs. (15)-(21))."""

import numpy as np
import pytest

from repro.core import (
    ForcedTestingDiversity,
    IndependentSuites,
    SameSuite,
    joint_failure_probability,
)
from repro.populations import BernoulliFaultPopulation


class TestDecompositionStructure:
    def test_independent_regime_zero_excess(
        self, bernoulli_population, enumerable_generator
    ):
        decomposition = joint_failure_probability(
            IndependentSuites(enumerable_generator), bernoulli_population
        )
        assert decomposition.conditional_independence_holds
        np.testing.assert_allclose(
            decomposition.joint,
            decomposition.zeta_a * decomposition.zeta_b,
        )

    def test_same_suite_positive_excess(
        self, bernoulli_population, enumerable_generator
    ):
        decomposition = joint_failure_probability(
            SameSuite(enumerable_generator), bernoulli_population
        )
        assert not decomposition.conditional_independence_holds
        assert decomposition.excess.max() > 0
        assert np.all(decomposition.excess >= -1e-15)

    def test_same_suite_forced_design(self, universe, enumerable_generator):
        pop_a = BernoulliFaultPopulation(universe, [0.5, 0.0, 0.3])
        pop_b = BernoulliFaultPopulation(universe, [0.2, 0.6, 0.0])
        decomposition = joint_failure_probability(
            SameSuite(enumerable_generator), pop_a, pop_b
        )
        np.testing.assert_allclose(
            decomposition.excess,
            decomposition.joint - decomposition.zeta_a * decomposition.zeta_b,
            atol=1e-15,
        )

    def test_unknown_regime_rejected(self, bernoulli_population):
        with pytest.raises(TypeError):
            joint_failure_probability("not a regime", bernoulli_population)

    def test_joint_on_accessor(self, bernoulli_population, enumerable_generator):
        decomposition = joint_failure_probability(
            SameSuite(enumerable_generator), bernoulli_population
        )
        assert decomposition.joint_on(0) == pytest.approx(0.125)

    def test_probability_range(self, bernoulli_population, enumerable_generator):
        for regime_class in (IndependentSuites, SameSuite):
            decomposition = joint_failure_probability(
                regime_class(enumerable_generator), bernoulli_population
            )
            assert np.all(decomposition.joint >= 0)
            assert np.all(decomposition.joint <= 1)


class TestAgainstEnumeration:
    """The derived formulas must match brute-force eq. (15) sums."""

    def test_all_regimes_match_enumeration(
        self, finite_population, enumerable_generator, space
    ):
        from repro.analytic import exact_joint_per_demand
        from repro.testing import EnumerableSuiteGenerator, TestSuite

        other_generator = EnumerableSuiteGenerator(
            space,
            [TestSuite.of(space, [1]), TestSuite.of(space, [3, 5])],
            [0.7, 0.3],
        )
        regimes = [
            IndependentSuites(enumerable_generator),
            SameSuite(enumerable_generator),
            ForcedTestingDiversity(enumerable_generator, other_generator),
        ]
        for regime in regimes:
            derived = joint_failure_probability(regime, finite_population)
            truth = exact_joint_per_demand(regime, finite_population)
            np.testing.assert_allclose(
                derived.joint, truth, atol=1e-12, err_msg=regime.label
            )

    def test_same_suite_exceeds_independent(
        self, finite_population, enumerable_generator
    ):
        same = joint_failure_probability(
            SameSuite(enumerable_generator), finite_population
        )
        independent = joint_failure_probability(
            IndependentSuites(enumerable_generator), finite_population
        )
        assert np.all(same.joint >= independent.joint - 1e-15)
