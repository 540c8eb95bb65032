"""Tests for BernoulliFaultPopulation."""

import numpy as np
import pytest

from repro.errors import ModelError, NotEnumerableError, ProbabilityError
from repro.faults import FaultUniverse
from repro.populations import BernoulliFaultPopulation


class TestConstruction:
    def test_wrong_length_rejected(self, universe):
        with pytest.raises(ModelError):
            BernoulliFaultPopulation(universe, [0.5])

    def test_out_of_range_rejected(self, universe):
        with pytest.raises(ProbabilityError):
            BernoulliFaultPopulation(universe, [0.5, -0.1, 0.2])

    def test_uniform_constructor(self, universe):
        population = BernoulliFaultPopulation.uniform(universe, 0.3)
        np.testing.assert_allclose(population.presence_probs, 0.3)

    def test_presence_probs_are_copies(self, bernoulli_population):
        probs = bernoulli_population.presence_probs
        probs[0] = 0.99
        assert bernoulli_population.presence_probs[0] == pytest.approx(0.5)


class TestSampling:
    def test_sample_is_version(self, bernoulli_population, rng):
        version = bernoulli_population.sample(rng)
        assert version.universe is bernoulli_population.universe

    def test_degenerate_probabilities(self, universe, rng):
        always = BernoulliFaultPopulation(universe, [1.0, 1.0, 1.0])
        never = BernoulliFaultPopulation(universe, [0.0, 0.0, 0.0])
        assert always.sample(rng).n_faults == 3
        assert never.sample(rng).n_faults == 0

    def test_empirical_inclusion_rates(self, universe):
        population = BernoulliFaultPopulation(universe, [0.8, 0.2, 0.5])
        rng = np.random.default_rng(3)
        counts = np.zeros(3)
        n = 4000
        for version in population.sample_many(n, rng):
            counts[version.fault_ids] += 1
        np.testing.assert_allclose(counts / n, [0.8, 0.2, 0.5], atol=0.03)

    def test_sample_many_independent(self, bernoulli_population):
        versions = bernoulli_population.sample_many(50, np.random.default_rng(1))
        fault_counts = {v.n_faults for v in versions}
        assert len(fault_counts) > 1  # not all identical


class TestDifficulty:
    def test_difficulty_matches_closed_form(self, bernoulli_population):
        theta = bernoulli_population.difficulty()
        assert theta[4] == pytest.approx(1 - 0.75 * 0.6)

    def test_difficulty_matches_empirical(self, bernoulli_population):
        theta = bernoulli_population.difficulty()
        rng = np.random.default_rng(5)
        n = 4000
        empirical = np.zeros(10)
        for version in bernoulli_population.sample_many(n, rng):
            empirical += version.failure_mask
        np.testing.assert_allclose(empirical / n, theta, atol=0.03)

    def test_tested_difficulty_respects_suite(self, bernoulli_population):
        xi = bernoulli_population.tested_difficulty([0])
        assert xi[0] == 0.0
        assert xi[2] == pytest.approx(0.25)

    def test_pfd(self, bernoulli_population, profile):
        expected = profile.expectation(bernoulli_population.difficulty())
        assert bernoulli_population.pfd(profile) == pytest.approx(expected)


class TestEnumeration:
    def test_enumeration_sums_to_one(self, bernoulli_population):
        total = sum(p for _, p in bernoulli_population.enumerate())
        assert total == pytest.approx(1.0)

    def test_enumeration_reproduces_difficulty(self, bernoulli_population):
        theta = np.zeros(10)
        for version, probability in bernoulli_population.enumerate():
            theta += probability * version.failure_mask
        np.testing.assert_allclose(theta, bernoulli_population.difficulty())

    def test_zero_prob_faults_skipped(self, universe):
        population = BernoulliFaultPopulation(universe, [0.5, 0.0, 0.0])
        supports = list(population.enumerate())
        assert len(supports) == 2  # {} and {0}

    def test_certain_faults_always_present(self, universe):
        population = BernoulliFaultPopulation(universe, [1.0, 0.5, 0.0])
        for version, _probability in population.enumerate():
            assert 0 in version.fault_ids.tolist()

    def test_large_universe_not_enumerable(self):
        from repro.demand import DemandSpace

        space = DemandSpace(40)
        universe = FaultUniverse.from_regions(
            space, [[i] for i in range(20)]
        )
        population = BernoulliFaultPopulation.uniform(universe, 0.5)
        with pytest.raises(NotEnumerableError):
            list(population.enumerate())


class TestScaled:
    def test_scaling(self, bernoulli_population):
        scaled = bernoulli_population.scaled(0.5)
        np.testing.assert_allclose(
            scaled.presence_probs, [0.25, 0.125, 0.2]
        )

    def test_scaling_clips_at_one(self, bernoulli_population):
        scaled = bernoulli_population.scaled(10.0)
        assert scaled.presence_probs.max() == 1.0

    def test_negative_factor_rejected(self, bernoulli_population):
        with pytest.raises(ModelError):
            bernoulli_population.scaled(-1.0)

    def test_expected_fault_count(self, bernoulli_population):
        assert bernoulli_population.expected_fault_count() == pytest.approx(1.15)
