"""The bounded Brent port against ``scipy.optimize.minimize_scalar``.

:func:`repro.mutation.estimators._minimize_bounded` replaces scipy's
``minimize_scalar(method="bounded")`` in the size-biased detection fit,
so the runtime needs no scipy.  It is a line-for-line port, so these
tests demand ``==`` on ``(x, fun)``, not closeness; scipy stays a
test-only dependency.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.mutation import fit_size_biased_multinomial
from repro.mutation.estimators import (
    _ALPHA_BOUNDS,
    _minimize_bounded,
    _zipf_negative_loglik,
)
from repro.mutation.measured import measured_detection_data, measured_target_names


def _scipy(func):
    result = minimize_scalar(func, bounds=_ALPHA_BOUNDS, method="bounded")
    return float(result.x), float(result.fun)


def _assert_same_minimum(func):
    assert _minimize_bounded(func, *_ALPHA_BOUNDS) == _scipy(func)


@st.composite
def count_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=500))
    m = draw(st.integers(min_value=2, max_value=60))
    kind = draw(st.sampled_from(["random", "equal", "single"]))
    if kind == "equal":
        counts = [draw(st.integers(min_value=0, max_value=n))] * m
    elif kind == "single":
        counts = [0] * m
        counts[draw(st.integers(min_value=0, max_value=m - 1))] = draw(
            st.integers(min_value=1, max_value=n)
        )
    else:
        counts = draw(
            st.lists(st.integers(min_value=0, max_value=n), min_size=m, max_size=m)
        )
    return np.sort(np.asarray(counts, dtype=float))[::-1]


@settings(max_examples=300, deadline=None)
@given(sorted_counts=count_vectors())
def test_bit_identical_on_zipf_likelihoods(sorted_counts):
    _assert_same_minimum(lambda a: _zipf_negative_loglik(a, sorted_counts))


@pytest.mark.parametrize(
    "func",
    [
        lambda x: (x - 2.7) ** 2 + math.sin(3.0 * x) / 10.0,  # interior
        lambda x: (x + 1.0) ** 2,  # minimum at the lower bound
        lambda x: math.exp(-x),  # minimum at the upper bound
        lambda x: 1.0,  # flat
    ],
    ids=["interior", "lower-bound", "upper-bound", "flat"],
)
def test_bit_identical_on_analytic_functions(func):
    _assert_same_minimum(func)


@pytest.mark.parametrize("target", measured_target_names())
def test_fit_on_bundled_campaigns_matches_scipy_path(target):
    """The fit m1–m3 read: ``alpha`` and ``loglik`` equal scipy's."""
    data = measured_detection_data(target)
    fit = fit_size_biased_multinomial(data)
    sorted_counts = np.sort(np.asarray(data.counts, dtype=float))[::-1]
    x, fun = _scipy(lambda a: _zipf_negative_loglik(a, sorted_counts))
    alpha, loglik = x, -fun
    flat = _zipf_negative_loglik(0.0, sorted_counts)
    if flat <= -loglik + 1e-9:  # the fit's snap to an exactly flat optimum
        alpha, loglik = 0.0, -flat
    assert (fit.alpha, fit.loglik) == (alpha, loglik)
