"""Tests for the streaming estimators."""

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.mc import MeanEstimator, ProportionEstimator


class TestProportionEstimator:
    def test_mean(self):
        estimator = ProportionEstimator()
        for outcome in (True, False, True, True):
            estimator.add_many(int(outcome), 1)
        assert estimator.mean == pytest.approx(0.75)
        assert estimator.count == 4
        assert estimator.successes == 3

    def test_add_many(self):
        estimator = ProportionEstimator()
        estimator.add_many(30, 100)
        assert estimator.mean == pytest.approx(0.3)

    def test_add_many_validation(self):
        estimator = ProportionEstimator()
        with pytest.raises(ModelError):
            estimator.add_many(5, 3)
        with pytest.raises(ModelError):
            estimator.add_many(-1, 3)

    def test_empty_raises(self):
        with pytest.raises(ModelError):
            ProportionEstimator().mean

    def test_wilson_interval_contains_truth(self):
        rng = np.random.default_rng(0)
        p_true = 0.07
        covered = 0
        trials = 200
        for _ in range(trials):
            estimator = ProportionEstimator()
            estimator.add_many(int(rng.binomial(500, p_true)), 500)
            if estimator.contains(p_true, confidence=0.95):
                covered += 1
        assert covered / trials >= 0.9  # nominal 95%

    def test_wilson_interval_in_unit_range(self):
        estimator = ProportionEstimator()
        estimator.add_many(0, 10)
        low, high = estimator.wilson_interval(0.99)
        assert 0.0 <= low <= high <= 1.0
        assert high > 0.0  # zero successes still leaves room above

    def test_wilson_confidence_validation(self):
        estimator = ProportionEstimator()
        estimator.add_many(int(True), 1)
        with pytest.raises(ModelError):
            estimator.wilson_interval(1.5)

    def test_std_error_shrinks(self):
        small = ProportionEstimator()
        small.add_many(5, 10)
        large = ProportionEstimator()
        large.add_many(500, 1000)
        assert large.std_error() < small.std_error()


class TestMeanEstimator:
    def test_mean_and_variance(self):
        estimator = MeanEstimator()
        for value in (1.0, 2.0, 3.0, 4.0):
            estimator.add(value)
        assert estimator.mean == pytest.approx(2.5)
        assert estimator.variance == pytest.approx(5.0 / 3.0)

    def test_single_observation(self):
        estimator = MeanEstimator()
        estimator.add(2.0)
        assert estimator.mean == 2.0
        assert estimator.variance == 0.0
        assert estimator.std_error() == float("inf")

    def test_empty_raises(self):
        with pytest.raises(ModelError):
            MeanEstimator().mean

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.random(500)
        estimator = MeanEstimator()
        for value in values:
            estimator.add(float(value))
        assert estimator.mean == pytest.approx(float(values.mean()))
        assert estimator.variance == pytest.approx(float(values.var(ddof=1)))

    def test_normal_interval_coverage(self):
        rng = np.random.default_rng(2)
        covered = 0
        trials = 200
        for _ in range(trials):
            estimator = MeanEstimator()
            for value in rng.normal(5.0, 1.0, size=100):
                estimator.add(float(value))
            if estimator.contains(5.0, confidence=0.95):
                covered += 1
        assert covered / trials >= 0.9


class TestHalfWidthEdgeCases:
    """Regression tests for the zero-variance / n = 1 degenerate cases
    (the adaptive controller's stopping quantity must never be NaN)."""

    def test_degenerate_all_zero_sample_zero_half_width(self):
        estimator = MeanEstimator()
        for _ in range(5):
            estimator.add(0.0)
        assert estimator.half_width(0.99) == 0.0
        assert not math.isnan(estimator.half_width(0.99))

    def test_degenerate_single_observation_zero_half_width(self):
        estimator = MeanEstimator()
        estimator.add(0.0)
        # std_error stays conservative (inf) but the stopping quantity
        # reports the observed spread: zero
        assert estimator.std_error() == float("inf")
        assert estimator.half_width(0.99) == 0.0

    def test_half_width_matches_normal_interval_when_nondegenerate(self):
        estimator = MeanEstimator()
        estimator.add_many([0.1, 0.4, 0.2, 0.9])
        low, high = estimator.normal_interval(0.95)
        assert estimator.half_width(0.95) == pytest.approx((high - low) / 2)

    def test_half_width_empty_raises(self):
        with pytest.raises(ModelError):
            MeanEstimator().half_width(0.99)

    def test_variance_clamped_against_merged_rounding(self):
        # long chains of near-constant merges can leave m2 a few ulps
        # below zero without the clamp; construct the worst case directly
        estimator = MeanEstimator()
        estimator._count, estimator._mean, estimator._m2 = 10, 0.5, -1e-18
        assert estimator.variance == 0.0
        assert estimator.std_error() == 0.0
        assert estimator.half_width(0.99) == 0.0

    def test_add_moments_rejects_negative_m2(self):
        estimator = MeanEstimator()
        with pytest.raises(ModelError):
            estimator.add_moments(3, 0.5, -1.0)

    def test_moments_roundtrip(self):
        estimator = MeanEstimator()
        estimator.add_many([0.1, 0.2, 0.7])
        count, mean, m2 = estimator.moments
        other = MeanEstimator()
        other.add_moments(count, mean, m2)
        assert other.moments == estimator.moments

    def test_proportion_half_width_is_wilson(self):
        estimator = ProportionEstimator()
        estimator.add_many(0, 100)
        low, high = estimator.wilson_interval(0.99)
        assert estimator.half_width(0.99) == pytest.approx((high - low) / 2)
        # degenerate all-zero proportion keeps a positive (honest) width
        assert estimator.half_width(0.99) > 0.0

    def test_proportion_counts_roundtrip(self):
        estimator = ProportionEstimator()
        estimator.add_many(3, 10)
        successes, count = estimator.counts
        assert (successes, count) == (3, 10)
