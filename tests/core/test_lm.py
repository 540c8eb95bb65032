"""Tests for the Littlewood–Miller model."""

import numpy as np
import pytest

from repro.core import ELModel, LMModel
from repro.demand import DemandSpace, uniform_profile
from repro.errors import IncompatibleSpaceError, ProbabilityError
from repro.populations import BernoulliFaultPopulation, Methodology, MethodologyPair


@pytest.fixture
def complementary_model():
    """A hard where B easy and vice versa: negative covariance."""
    space = DemandSpace(2)
    return LMModel(
        np.array([0.4, 0.0]), np.array([0.0, 0.4]), uniform_profile(space)
    )


class TestConstruction:
    def test_length_validation(self):
        space = DemandSpace(3)
        with pytest.raises(IncompatibleSpaceError):
            LMModel(np.array([0.1]), np.zeros(3), uniform_profile(space))

    def test_range_validation(self):
        space = DemandSpace(2)
        with pytest.raises(ProbabilityError):
            LMModel(np.array([0.1, -0.2]), np.zeros(2), uniform_profile(space))

    def test_from_pair(self, universe, profile):
        pop_a = BernoulliFaultPopulation(universe, [0.5, 0.0, 0.0])
        pop_b = BernoulliFaultPopulation(universe, [0.0, 0.5, 0.0])
        pair = MethodologyPair(Methodology("A", pop_a), Methodology("B", pop_b))
        model = LMModel.from_pair(pair, profile)
        assert model.prob_fail_a() == pytest.approx(0.1)
        assert model.prob_fail_b() == pytest.approx(0.15)


class TestHandComputedValues:
    def test_negative_covariance(self, complementary_model):
        # E[AB] = 0, E[A]E[B] = 0.04 -> cov = -0.04
        assert complementary_model.covariance() == pytest.approx(-0.04)

    def test_prob_both_fail(self, complementary_model):
        assert complementary_model.prob_both_fail() == pytest.approx(0.0)

    def test_beats_independence(self, complementary_model):
        assert complementary_model.beats_independence()
        assert (
            complementary_model.prob_both_fail()
            < complementary_model.independence_prediction()
        )

    def test_decomposition_identity(self, complementary_model):
        assert complementary_model.prob_both_fail() == pytest.approx(
            complementary_model.independence_prediction()
            + complementary_model.covariance()
        )

    def test_fixed_demand_product(self, complementary_model):
        assert complementary_model.prob_both_fail_on(0) == 0.0

    def test_conditional_eq10(self):
        space = DemandSpace(2)
        model = LMModel(
            np.array([0.2, 0.4]), np.array([0.1, 0.3]), uniform_profile(space)
        )
        conditional = model.conditional_prob_a_fails_given_b_failed()
        expected = model.prob_both_fail() / model.prob_fail_b()
        assert conditional == pytest.approx(expected)

    def test_conditional_requires_positive_b(self, complementary_model):
        space = DemandSpace(2)
        model = LMModel(
            np.array([0.2, 0.4]), np.zeros(2), uniform_profile(space)
        )
        with pytest.raises(ProbabilityError):
            model.conditional_prob_a_fails_given_b_failed()


class TestRelationToEL:
    def test_identical_methodologies_collapse_to_el(self, profile):
        rng = np.random.default_rng(8)
        theta = rng.random(10) * 0.5
        lm = LMModel(theta, theta, profile)
        el = ELModel(theta, profile)
        assert lm.prob_both_fail() == pytest.approx(el.prob_both_fail())
        assert lm.covariance() == pytest.approx(el.variance())
