"""The library's quantile functions against scipy.

Normal quantiles come from the standard library
(:class:`statistics.NormalDist`) and Beta quantiles from the library's
own :func:`repro.extensions.stopping._beta_quantile`, so that no import
path loads scipy.  These tests pin both to the scipy values they
replace: the normal quantile to a few ulp, the Beta quantiles to 1e-12
relative (which keeps every a1 golden where it is).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaincinv

from repro.core import ELModel
from repro.demand import DemandSpace, uniform_profile
from repro.errors import ModelError, ProbabilityError
from repro.experiments.a1_difficulty_variance import _difficulty_grids
from repro.experiments.a1_difficulty_variance import run as run_a1
from repro.extensions import bayes_pfd_upper_bound, replications_for_half_width
from repro.extensions.stopping import _beta_quantile, _check_confidence
from repro.mc.estimator import _z_value

_CONFIDENCES = sorted(
    {0.9, 0.95, 0.99, 0.999, *np.linspace(0.5, 0.9999, 41).tolist()}
)
_A1_CONCENTRATIONS = (2000.0, 50.0, 10.0, 2.0, 0.5)
_A1_MEAN = 0.2
_RTOL = 1e-12
_shapes = st.floats(min_value=0.05, max_value=1600.0)


def _betainc_miss(a, b, x, p):
    """``I_x(a, b) − p`` at 30 significant digits.

    scipy's ``betainc`` is no oracle at this bound: at ``a = 8``,
    ``b = 1399.375`` it jumps by ~1e-13 between adjacent doubles, so
    about half the doubles next to the true quantile read as more than
    1e-13 off.
    """
    with mpmath.workdps(30):
        return float(mpmath.betainc(a, b, 0, x, regularized=True) - p)


def _beta_root(a, b, p, x):
    """The root of ``I_x(a, b) = p`` at 30 digits, by Newton steps from ``x``."""
    with mpmath.workdps(30):
        log_beta = mpmath.log(mpmath.beta(a, b))
        return float(mpmath.findroot(
            lambda t: mpmath.betainc(a, b, 0, t, regularized=True) - p,
            mpmath.mpf(x),
            solver="newton",
            df=lambda t: mpmath.exp(
                (a - 1) * mpmath.log(t) + (b - 1) * mpmath.log1p(-t) - log_beta),
        ))


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


@pytest.mark.parametrize("n", [0, 1, 10, 1000, 10_000])
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("prior", [(1.0, 1.0), (0.5, 0.5), (5.0, 2.0)])
def test_bayes_bound_equals_beta_ppf(n, confidence, prior):
    a, b = prior
    expected = float(stats.beta.ppf(confidence, a, b + n))
    bound = bayes_pfd_upper_bound(n, confidence, a, b)
    assert isinstance(bound, float)
    assert bound == pytest.approx(expected, rel=_RTOL, abs=0.0)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((-1, 0.9), ModelError, "n_failure_free must be >= 0, got -1"),
        ((5, 0.9, 0.0, 1.0), ModelError, "Beta prior parameters must be positive"),
        ((5, 0.9, 1.0, -2.0), ModelError, "Beta prior parameters must be positive"),
        ((5, 1.0), ProbabilityError, "confidence must be in (0, 1), got 1.0"),
        ((5, 0.0), ProbabilityError, "confidence must be in (0, 1), got 0.0"),
    ],
)
def test_bayes_bound_errors_unchanged(args, error, message):
    with pytest.raises(error) as raised:
        bayes_pfd_upper_bound(*args)
    assert str(raised.value) == message


@pytest.mark.parametrize("k", _A1_CONCENTRATIONS)
def test_beta_quantile_matches_beta_ppf_on_a1_shapes(k):
    alpha, beta = k * _A1_MEAN, k * (1.0 - _A1_MEAN)
    for n_demands in (500, 5000):  # a1's fast and full grids
        quantiles = (np.arange(n_demands) + 0.5) / n_demands
        theta = _beta_quantile(alpha, beta, quantiles)
        for reference in (
            stats.beta.ppf(quantiles, alpha, beta),
            betaincinv(alpha, beta, quantiles),
        ):
            np.testing.assert_allclose(theta, reference, rtol=_RTOL, atol=0.0)


@pytest.mark.parametrize("fast", [True, False])
def test_a1_table_equals_beta_ppf_reference(fast):
    """a1's rows are within 1e-12 relative of the ``stats.beta.ppf`` ones."""
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
    np.testing.assert_allclose(
        run_a1(seed=0, fast=fast).rows, expected, rtol=_RTOL, atol=0.0
    )


def test_a1_grids_are_memoised_read_only():
    first = run_a1(seed=0, fast=True).rows
    assert run_a1(seed=5, fast=True).rows == first
    grids = _difficulty_grids(500)
    assert _difficulty_grids(500) is grids
    assert all(not theta.flags.writeable for theta in grids)


@settings(max_examples=300, deadline=None)
@given(
    a=_shapes,
    b=_shapes,
    p=st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
)
def test_beta_quantile_round_trips_through_betainc(a, b, p):
    """``I_q(a, b)`` is within 1e-13 of ``p``.

    Where the quantile is so close to 1 that no double near it gets
    within 1e-13 (small ``b``, large ``p``), the check asks for no larger
    a miss than scipy's own ``betaincinv`` makes.  ``q`` is pinned to
    ``betaincinv`` at 1e-12 relative, or to the 30-digit root where
    ``betaincinv`` round-trips worse than ``q`` does: at ``a = 1 − 1e-12``,
    ``b = 0.25``, ``p = 1e-12`` it is 5.6e-6 relative off.
    """
    q = float(_beta_quantile(a, b, p))
    reference = float(betaincinv(a, b, p))
    miss = abs(_betainc_miss(a, b, q, p))
    reference_miss = abs(_betainc_miss(a, b, reference, p))
    assert miss <= max(1e-13, reference_miss)
    if reference_miss > miss:
        reference = _beta_root(a, b, p, q)
    assert q == pytest.approx(reference, rel=_RTOL, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(a=_shapes, b=_shapes)
def test_beta_quantile_is_monotone_in_p(a, b):
    q = _beta_quantile(a, b, np.linspace(1e-9, 1.0 - 1e-9, 2001))
    assert np.all(np.diff(q) >= 0.0)
    assert np.all((q >= 0.0) & (q <= 1.0))


@settings(max_examples=100, deadline=None)
@given(a=_shapes, b=_shapes)
def test_beta_quantile_tails(a, b):
    p = np.array([1e-12, 1.0 - 1e-12])
    np.testing.assert_allclose(
        _beta_quantile(a, b, p), betaincinv(a, b, p), rtol=_RTOL, atol=0.0
    )


def test_beta_quantile_endpoints_and_shape():
    q = _beta_quantile(2.0, 3.0, np.array([[0.0, 1.0], [0.5, 0.25]]))
    assert q.shape == (2, 2)
    assert q[0, 0] == 0.0 and q[0, 1] == 1.0
    assert _beta_quantile(2.0, 3.0, 0.5).shape == ()
