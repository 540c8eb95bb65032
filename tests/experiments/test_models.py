"""Tests for the shared experiment scenarios."""

import numpy as np
import pytest

from repro.experiments.models import (
    forced_design_scenario,
    standard_scenario,
    tiny_enumerable_scenario,
)


class TestStandardScenario:
    def test_shapes(self):
        scenario = standard_scenario(seed=0)
        assert scenario.space.size == 80
        assert len(scenario.universe) == 14
        assert scenario.generator.size == 30

    def test_reproducible(self):
        a = standard_scenario(seed=5)
        b = standard_scenario(seed=5)
        np.testing.assert_allclose(
            a.population.difficulty(), b.population.difficulty()
        )

    def test_difficulty_varies(self):
        """The scenario must have non-constant difficulty or the whole
        experiment suite degenerates."""
        scenario = standard_scenario(seed=0)
        theta = scenario.population.difficulty()
        assert theta.std() > 0.01


class TestForcedDesignScenario:
    def test_overlap_structure(self):
        scenario = forced_design_scenario(seed=0, n_shared=4, n_unique_each=6)
        probs_a = scenario.population_a.presence_probs
        probs_b = scenario.population_b.presence_probs
        both = np.flatnonzero((probs_a > 0) & (probs_b > 0))
        assert both.size == 4
        assert np.flatnonzero(probs_a > 0).size == 10
        assert np.flatnonzero(probs_b > 0).size == 10

    def test_zipf_usage_option(self):
        scenario = forced_design_scenario(seed=0, usage_zipf_exponent=1.0)
        probs = scenario.profile.probabilities
        assert probs[0] > probs[-1]

    def test_disjoint_unique_regions(self):
        scenario = forced_design_scenario(
            seed=0, n_shared=0, n_unique_each=4, disjoint_unique_regions=True
        )
        theta_a = scenario.population_a.difficulty()
        theta_b = scenario.population_b.difficulty()
        half = scenario.space.size // 2
        assert theta_a[half:].max() == 0.0
        assert theta_b[:half].max() == 0.0


class TestTinyEnumerableScenario:
    def test_fully_enumerable(self):
        scenario = tiny_enumerable_scenario()
        versions = list(scenario.population.enumerate())
        suites = list(scenario.generator.enumerate())
        assert len(versions) == 4
        assert len(suites) == 4
        assert sum(p for _, p in versions) == pytest.approx(1.0)
        assert sum(p for _, p in suites) == pytest.approx(1.0)

    def test_difficulty_nonconstant(self):
        scenario = tiny_enumerable_scenario()
        theta = scenario.population.difficulty()
        assert theta.max() > theta.min()

    def test_same_suite_excess_strictly_positive(self):
        """The tiny model must actually exhibit the eq. (20) phenomenon."""
        from repro.core import SameSuite, joint_failure_probability

        scenario = tiny_enumerable_scenario()
        decomposition = joint_failure_probability(
            SameSuite(scenario.generator), scenario.population
        )
        assert decomposition.excess.max() > 1e-6
