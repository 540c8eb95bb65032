"""Tests for the Eckhardt–Lee model."""

import numpy as np
import pytest

from repro.core import ELModel
from repro.demand import DemandSpace, UsageProfile, uniform_profile
from repro.errors import IncompatibleSpaceError, ProbabilityError


@pytest.fixture
def two_demand_model():
    space = DemandSpace(2)
    return ELModel(np.array([0.1, 0.3]), uniform_profile(space))


class TestConstruction:
    def test_wrong_length(self):
        space = DemandSpace(3)
        with pytest.raises(IncompatibleSpaceError):
            ELModel(np.array([0.1, 0.2]), uniform_profile(space))

    def test_out_of_range(self):
        space = DemandSpace(2)
        with pytest.raises(ProbabilityError):
            ELModel(np.array([0.1, 1.2]), uniform_profile(space))

    def test_from_population(self, bernoulli_population, profile):
        model = ELModel.from_population(bernoulli_population, profile)
        np.testing.assert_allclose(
            model.difficulty, bernoulli_population.difficulty()
        )


class TestHandComputedValues:
    def test_prob_fail(self, two_demand_model):
        assert two_demand_model.prob_fail() == pytest.approx(0.2)

    def test_prob_both_fail(self, two_demand_model):
        # (0.01 + 0.09)/2 = 0.05
        assert two_demand_model.prob_both_fail() == pytest.approx(0.05)

    def test_variance(self, two_demand_model):
        assert two_demand_model.variance() == pytest.approx(0.01)

    def test_decomposition_identity(self, two_demand_model):
        assert two_demand_model.prob_both_fail() == pytest.approx(
            two_demand_model.independence_prediction()
            + two_demand_model.variance()
        )

    def test_prob_both_fail_on_fixed_demand(self, two_demand_model):
        assert two_demand_model.prob_both_fail_on(1) == pytest.approx(0.09)

    def test_conditional_eq7(self, two_demand_model):
        # Var/E + E = 0.01/0.2 + 0.2 = 0.25
        value = two_demand_model.conditional_prob_fail_given_failed()
        assert value == pytest.approx(0.25)
        assert value >= two_demand_model.prob_fail()

    def test_prob_all_fail_three_versions(self, two_demand_model):
        # (0.001 + 0.027)/2 = 0.014
        assert two_demand_model.prob_all_fail(3) == pytest.approx(0.014)

    def test_prob_all_fail_one_version(self, two_demand_model):
        assert two_demand_model.prob_all_fail(1) == pytest.approx(0.2)

    def test_prob_all_fail_validation(self, two_demand_model):
        with pytest.raises(ProbabilityError):
            two_demand_model.prob_all_fail(0)


class TestInequality:
    def test_el_inequality_random_difficulties(self):
        rng = np.random.default_rng(4)
        space = DemandSpace(50)
        profile = uniform_profile(space)
        for _ in range(20):
            model = ELModel(rng.random(50), profile)
            assert (
                model.prob_both_fail()
                >= model.independence_prediction() - 1e-15
            )

    def test_equality_iff_constant(self):
        space = DemandSpace(5)
        model = ELModel(np.full(5, 0.3), uniform_profile(space))
        assert model.is_constant_difficulty()
        assert model.prob_both_fail() == pytest.approx(
            model.independence_prediction()
        )

    def test_constancy_only_on_support(self):
        """Difficulty variation outside the usage support is irrelevant."""
        space = DemandSpace(3)
        profile = UsageProfile.normalised(space, [0.5, 0.5, 0.0])
        model = ELModel(np.array([0.3, 0.3, 0.9]), profile)
        assert model.is_constant_difficulty()
        assert model.variance() == pytest.approx(0.0)


class TestEdgeCases:
    def test_zero_difficulty(self):
        space = DemandSpace(4)
        model = ELModel(np.zeros(4), uniform_profile(space))
        assert model.prob_fail() == 0.0
        assert model.independence_excess_ratio() == 0.0
        with pytest.raises(ProbabilityError):
            model.conditional_prob_fail_given_failed()

    def test_certain_failure(self):
        space = DemandSpace(4)
        model = ELModel(np.ones(4), uniform_profile(space))
        assert model.prob_both_fail() == pytest.approx(1.0)
        assert model.variance() == pytest.approx(0.0)
