"""Tests for UsageProfile and the profile factories."""

import numpy as np
import pytest

from repro.demand import (
    DemandSpace,
    UsageProfile,
    uniform_profile,
    zipf_profile,
)
from repro.errors import IncompatibleSpaceError, ProbabilityError


class TestConstruction:
    def test_valid_profile(self, space):
        probs = np.full(10, 0.1)
        profile = UsageProfile(space, probs)
        assert profile.probability(0) == pytest.approx(0.1)

    def test_wrong_length_rejected(self, space):
        with pytest.raises(IncompatibleSpaceError):
            UsageProfile(space, np.full(9, 1.0 / 9))

    def test_negative_rejected(self, space):
        probs = np.full(10, 0.1)
        probs[0] = -0.1
        probs[1] = 0.3
        with pytest.raises(ProbabilityError):
            UsageProfile(space, probs)

    def test_not_summing_to_one_rejected(self, space):
        with pytest.raises(ProbabilityError):
            UsageProfile(space, np.full(10, 0.2))

    def test_nan_rejected(self, space):
        probs = np.full(10, 0.1)
        probs[0] = np.nan
        with pytest.raises(ProbabilityError):
            UsageProfile(space, probs)

    def test_normalised_constructor(self, space):
        profile = UsageProfile.normalised(space, np.arange(10))
        assert profile.probabilities.sum() == pytest.approx(1.0)

    def test_normalised_zero_weights_rejected(self, space):
        with pytest.raises(ProbabilityError):
            UsageProfile.normalised(space, np.zeros(10))


class TestQueries:
    def test_mass_of(self, profile):
        assert profile.mass_of([0, 1, 2]) == pytest.approx(0.3)

    def test_mass_of_duplicates_counted_once(self, profile):
        assert profile.mass_of([3, 3, 3]) == pytest.approx(0.1)

    def test_expectation(self, profile):
        values = np.arange(10, dtype=float)
        assert profile.expectation(values) == pytest.approx(4.5)

    def test_expectation_wrong_length(self, profile):
        with pytest.raises(IncompatibleSpaceError):
            profile.expectation(np.ones(3))

    def test_variance_constant_is_zero(self, profile):
        assert profile.variance(np.full(10, 0.7)) == pytest.approx(0.0)

    def test_variance_known_value(self, profile):
        values = np.zeros(10)
        values[0] = 1.0
        # Bernoulli(0.1): var = 0.09
        assert profile.variance(values) == pytest.approx(0.09)

    def test_covariance_of_identical_is_variance(self, skewed_profile):
        values = np.arange(10, dtype=float)
        assert skewed_profile.covariance(values, values) == pytest.approx(
            skewed_profile.variance(values)
        )

    def test_covariance_sign_flip(self, profile):
        up = np.arange(10, dtype=float)
        assert profile.covariance(up, -up) == pytest.approx(-profile.variance(up))

    def test_support(self, space):
        probs = np.zeros(10)
        probs[2] = 0.5
        probs[7] = 0.5
        profile = UsageProfile(space, probs)
        np.testing.assert_array_equal(profile.support, [2, 7])


class TestSampling:
    def test_scalar_sample_in_range(self, profile, rng):
        for _ in range(20):
            assert 0 <= profile.sample(rng) < 10

    def test_vector_sample_shape(self, profile, rng):
        out = profile.sample(rng, size=100)
        assert out.shape == (100,)
        assert out.dtype == np.int64

    def test_degenerate_profile_always_same(self, space, rng):
        probs = np.zeros(10)
        probs[4] = 1.0
        profile = UsageProfile(space, probs)
        assert set(profile.sample(rng, size=50).tolist()) == {4}

    def test_empirical_frequencies_match(self, space):
        probs = np.zeros(10)
        probs[0] = 0.8
        probs[9] = 0.2
        profile = UsageProfile(space, probs)
        draws = profile.sample(np.random.default_rng(0), size=20000)
        frequency = np.mean(draws == 0)
        assert frequency == pytest.approx(0.8, abs=0.02)


class TestFactories:
    def test_uniform(self):
        profile = uniform_profile(DemandSpace(4))
        np.testing.assert_allclose(profile.probabilities, 0.25)

    def test_zipf_decreasing(self):
        profile = zipf_profile(DemandSpace(5), exponent=1.0)
        assert np.all(np.diff(profile.probabilities) < 0)

    def test_zipf_zero_exponent_is_uniform(self):
        profile = zipf_profile(DemandSpace(5), exponent=0.0)
        np.testing.assert_allclose(profile.probabilities, 0.2)

    def test_zipf_negative_exponent_rejected(self):
        with pytest.raises(ProbabilityError):
            zipf_profile(DemandSpace(5), exponent=-1.0)

    def test_custom(self):
        profile = UsageProfile.normalised(DemandSpace(3), [1, 1, 2])
        assert profile.probability(2) == pytest.approx(0.5)
