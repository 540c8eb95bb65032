"""The library's quantile functions against ``scipy.stats``.

Normal quantiles come from the standard library
(:class:`statistics.NormalDist`) and Beta quantiles from
``scipy.special.betaincinv``, so that no import path loads
``scipy.stats``.  These tests pin both to the ``scipy.stats`` values
they replace: the normal quantile to a few ulp, the Beta quantiles bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.core import ELModel
from repro.demand import DemandSpace, uniform_profile
from repro.errors import ModelError, ProbabilityError
from repro.experiments.a1_difficulty_variance import run as run_a1
from repro.extensions import bayes_pfd_upper_bound, replications_for_half_width
from repro.extensions.stopping import _check_confidence
from repro.mc.estimator import _z_value

_CONFIDENCES = sorted(
    {0.9, 0.95, 0.99, 0.999, *np.linspace(0.5, 0.9999, 41).tolist()}
)
_A1_CONCENTRATIONS = (2000.0, 50.0, 10.0, 2.0, 0.5)
_A1_MEAN = 0.2


@pytest.mark.parametrize("confidence", _CONFIDENCES)
def test_z_value_within_four_ulp_of_norm_ppf(confidence):
    reference = float(stats.norm.ppf(0.5 + confidence / 2.0))
    z = _z_value(confidence)
    assert isinstance(z, float)
    assert abs(z - reference) <= 4 * math.ulp(reference)


@pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_out_of_range_confidence_errors_unchanged(confidence):
    message = f"confidence must be in (0, 1), got {confidence}"
    with pytest.raises(ModelError) as z_error:
        _z_value(confidence)
    assert type(z_error.value) is ModelError
    assert str(z_error.value) == message
    with pytest.raises(ProbabilityError, match=r"confidence must be in"):
        _check_confidence(confidence)
    with pytest.raises(ProbabilityError, match=r"confidence must be in"):
        replications_for_half_width(1.0, 0.1, confidence)


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
def test_replications_for_half_width_projects_with_z_value(confidence):
    z = _z_value(confidence)
    expected = math.ceil((z * 2.0 / 0.05) ** 2)
    assert replications_for_half_width(2.0, 0.05, confidence) == expected


@pytest.mark.parametrize("n", [0, 1, 10, 1000])
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("prior", [(1.0, 1.0), (0.5, 0.5), (5.0, 2.0)])
def test_bayes_bound_equals_beta_ppf(n, confidence, prior):
    a, b = prior
    expected = float(stats.beta.ppf(confidence, a, b + n))
    assert bayes_pfd_upper_bound(n, confidence, a, b) == expected


@pytest.mark.parametrize("k", _A1_CONCENTRATIONS)
def test_betaincinv_equals_beta_ppf_on_a1_shapes(k):
    from scipy.special import betaincinv

    quantiles = (np.arange(5000) + 0.5) / 5000
    alpha, beta = k * _A1_MEAN, k * (1.0 - _A1_MEAN)
    np.testing.assert_array_equal(
        betaincinv(alpha, beta, quantiles),
        stats.beta.ppf(quantiles, alpha, beta),
    )


@pytest.mark.parametrize("fast", [True, False])
def test_a1_table_equals_beta_ppf_reference(fast):
    """a1's rows are bit-equal to the ones ``stats.beta.ppf`` gives."""
    n_demands = 500 if fast else 5000
    profile = uniform_profile(DemandSpace(n_demands))
    quantiles = (np.arange(n_demands) + 0.5) / n_demands
    expected = []
    for k in _A1_CONCENTRATIONS:
        theta = stats.beta.ppf(quantiles, k * _A1_MEAN, k * (1.0 - _A1_MEAN))
        model = ELModel.from_difficulty(theta, profile)
        expected.append(
            [
                k,
                model.prob_fail(),
                model.variance(),
                model.prob_both_fail(),
                model.independence_prediction(),
                model.independence_excess_ratio(),
            ]
        )
    assert run_a1(seed=0, fast=fast).rows == expected
