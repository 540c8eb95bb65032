"""Property-based tests for the size-biased multinomial fitter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.mutation import (
    DetectionData,
    detection_count_distribution,
    fit_size_biased_multinomial,
    total_variation,
)
from repro.mutation.estimators import _water_fill, _zipf_shares


def _data(counts, n_tests):
    return DetectionData(
        counts=tuple(counts),
        n_tests=n_tests,
        labels=tuple(f"m{i:03d}" for i in range(len(counts))),
    )


@st.composite
def detection_datasets(draw):
    n_tests = draw(st.integers(min_value=1, max_value=30))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_tests),
            min_size=1,
            max_size=40,
        )
    )
    return _data(counts, n_tests)


# -- round-trip recovery ------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.4, max_value=2.0),
    m=st.integers(min_value=12, max_value=40),
)
def test_alpha_round_trip_on_synthetic_zipf_counts(alpha, m):
    """Counts manufactured from a Zipf share profile recover its exponent.

    The counts are the expected detections under the profile (scaled so
    the largest is well resolved), so the MLE should land near the true
    alpha — the tolerance covers integer rounding of small tail counts.
    """
    shares = _zipf_shares(alpha, m)
    counts = np.maximum(1, np.round(shares / shares[-1] * 3)).astype(int)
    n_tests = int(counts.max()) + 1
    fit = fit_size_biased_multinomial(_data(counts.tolist(), n_tests))
    assert fit.alpha == pytest.approx(alpha, abs=0.25)
    assert not fit.degenerate


# -- permutation invariance ---------------------------------------------


@settings(max_examples=50, deadline=None)
@given(data=detection_datasets(), seed=st.integers(min_value=0, max_value=2**16))
def test_fit_is_permutation_invariant(data, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_mutants)
    shuffled = _data([data.counts[i] for i in order], data.n_tests)
    fit = fit_size_biased_multinomial(data)
    fit_shuffled = fit_size_biased_multinomial(shuffled)
    assert fit_shuffled.alpha == pytest.approx(fit.alpha)
    assert fit_shuffled.mutation_score == pytest.approx(fit.mutation_score)
    assert fit_shuffled.loglik == pytest.approx(fit.loglik)
    assert sorted(fit_shuffled.weights) == pytest.approx(sorted(fit.weights))
    # weights follow the permutation element-wise
    assert list(fit_shuffled.weights) == pytest.approx(
        [fit.weights[i] for i in order]
    )
    np.testing.assert_allclose(
        fit_shuffled.fitted_count_pmf(), fit.fitted_count_pmf()
    )


# -- distributional soundness -------------------------------------------


@settings(max_examples=50, deadline=None)
@given(data=detection_datasets())
def test_pmfs_are_distributions_and_fit_preserves_the_mean(data):
    fit = fit_size_biased_multinomial(data)
    empirical = detection_count_distribution(data)
    fitted = fit.fitted_count_pmf()
    equal = fit.equal_size_count_pmf()
    for pmf in (empirical, fitted, equal):
        assert pmf.shape == (data.n_tests + 1,)
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)
    counts = np.arange(data.n_tests + 1)
    empirical_mean = float(counts @ empirical)
    # water-filling makes both model pmfs match the empirical mean exactly
    assert float(counts @ fitted) == pytest.approx(empirical_mean, abs=1e-9)
    assert float(counts @ equal) == pytest.approx(empirical_mean, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(data=detection_datasets())
def test_weights_are_shares_and_score_counts_nonzero(data):
    fit = fit_size_biased_multinomial(data)
    assert sum(fit.weights) == pytest.approx(1.0)
    assert fit.mutation_score == pytest.approx(
        sum(1 for k in data.counts if k > 0) / data.n_mutants
    )
    assert 0.0 <= fit.alpha <= 8.0
    if not fit.degenerate:
        total = data.total_detections
        assert list(fit.weights) == pytest.approx(
            [k / total for k in data.counts]
        )


# -- degenerate campaigns -----------------------------------------------


def test_all_survived_campaign_degenerates_to_uniform():
    fit = fit_size_biased_multinomial(_data([0, 0, 0, 0], 7))
    assert fit.degenerate
    assert fit.alpha == 0.0
    assert fit.mutation_score == 0.0
    assert list(fit.weights) == pytest.approx([0.25] * 4)
    assert fit.fitted_count_pmf()[0] == pytest.approx(1.0)


def test_all_killed_by_every_test_is_equal_size_not_degenerate():
    fit = fit_size_biased_multinomial(_data([5, 5, 5], 5))
    assert not fit.degenerate
    assert fit.alpha == 0.0  # the shares really are equal
    assert fit.mutation_score == 1.0
    # every rank water-fills to p = 1: all mass at count n
    assert fit.fitted_count_pmf()[-1] == pytest.approx(1.0)


def test_single_mutant_fits_without_an_exponent():
    fit = fit_size_biased_multinomial(_data([3], 6))
    assert fit.alpha == 0.0
    assert fit.weights == (1.0,)


# -- water-filling ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=4.0),
    m=st.integers(min_value=1, max_value=30),
    budget_frac=st.floats(min_value=0.01, max_value=1.0),
)
def test_water_fill_hits_the_budget_within_bounds(alpha, m, budget_frac):
    shares = _zipf_shares(alpha, m)
    budget = budget_frac * m
    probs = _water_fill(shares, budget)
    assert np.all(probs >= -1e-12)
    assert np.all(probs <= 1.0 + 1e-12)
    assert probs.sum() == pytest.approx(budget, abs=1e-9)
    # filling respects the share order: a bigger share never gets a
    # smaller probability
    assert np.all(np.diff(probs) <= 1e-12)


# -- guards -------------------------------------------------------------


def test_detection_data_validation():
    with pytest.raises(ModelError):
        _data([], 5)
    with pytest.raises(ModelError):
        _data([6], 5)  # count above n_tests
    with pytest.raises(ModelError):
        _data([1], 0)
    with pytest.raises(ModelError):
        DetectionData(counts=(1, 2), n_tests=5, labels=("only",))


def test_total_variation_basics():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(ModelError):
        total_variation([1.0], [0.5, 0.5])
