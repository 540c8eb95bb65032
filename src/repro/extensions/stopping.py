"""Stopping rules for operational testing (the paper's §2, citing its ref. [3]).

"Usually, the size of the test suite ... is determined with respect to some
stopping rule which gives the tester sufficiently high confidence that the
goal (e.g. targeted reliability) has been achieved" — Littlewood & Wright's
conservative stopping rules for safety-critical software.

Two standard rules are provided, both for the demand-based (pfd) setting
this library models:

* **classical zero-failure demonstration** — if ``n`` operational demands
  execute without failure, then with confidence ``c`` the pfd is below
  ``1 − (1 − c)^(1/n)`` (the exact frequentist bound from
  ``(1 − p)^n ≤ 1 − c``);
* **conservative Bayesian bound** — with a ``Beta(a, b)`` prior on the pfd
  and ``n`` failure-free demands, the posterior is ``Beta(a, b + n)`` and
  the bound is its ``c``-quantile (:func:`_beta_quantile`, this module's
  numpy Beta quantile, which the a1 ablation also uses).  ``a = b = 1``
  (uniform prior) is the textbook conservative choice.

These connect the library's suite-size axis to the reliability targets a
tester would actually contract for.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError, ProbabilityError
from ..mc.estimator import _z_value

__all__ = [
    "classical_pfd_upper_bound",
    "bayes_pfd_upper_bound",
    "tests_needed_for_target",
    "replications_for_half_width",
]


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ProbabilityError(
            f"confidence must be in (0, 1), got {confidence}"
        )


def classical_pfd_upper_bound(n_failure_free: int, confidence: float) -> float:
    """Frequentist pfd bound after ``n`` failure-free operational demands.

    The largest ``p`` not rejected at level ``confidence`` by ``n``
    failure-free observations: ``p = 1 − (1 − confidence)^(1/n)``.

    Examples
    --------
    >>> round(classical_pfd_upper_bound(2302, 0.90), 4)  # the classic 1e-3
    0.001
    """
    _check_confidence(confidence)
    if n_failure_free < 1:
        raise ModelError(
            f"n_failure_free must be >= 1, got {n_failure_free}"
        )
    return 1.0 - (1.0 - confidence) ** (1.0 / n_failure_free)


def bayes_pfd_upper_bound(
    n_failure_free: int,
    confidence: float,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> float:
    """Bayesian pfd bound: ``c``-quantile of ``Beta(a, b + n)``.

    With the uniform prior (``a = b = 1``) the posterior is
    ``Beta(1, n + 1)``, whose ``c``-quantile is ``1 − (1 − c)^(1/(n+1))`` —
    exactly the classical bound credited with one extra test.  Informative
    priors (larger ``b``) tighten the bound; pessimistic priors (larger
    ``a``) loosen it, which is how the conservative rules of the paper's
    ref. [3] are expressed in this form.
    """
    _check_confidence(confidence)
    if n_failure_free < 0:
        raise ModelError(
            f"n_failure_free must be >= 0, got {n_failure_free}"
        )
    if prior_a <= 0 or prior_b <= 0:
        raise ModelError("Beta prior parameters must be positive")
    return float(_beta_quantile(prior_a, prior_b + n_failure_free, confidence))


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: Stirling-series coefficients of ``lgamma`` (of x^-1, x^-3, x^-5, …)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _lgamma_tail(x: float) -> float:
    """``lgamma(x) − ((x − ½)·ln x − x + ln √(2π))``, accurate for large ``x``."""
    if x < 10.0:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x - _LN_SQRT_2PI
    return sum(c / x ** (2 * i + 1) for i, c in enumerate(_STIRLING))


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Lentz's continued fraction ``cf``: ``I_x(a, b) = x^a (1−x)^b cf / (a B(a, b))``.

    Fast for ``x < (a + 1)/(a + b + 2)``; runs until all elements converge.
    """
    c, d = np.ones_like(x), 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    h = d.copy()
    for m in range(1, 10_000):
        for coef in (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / (1.0 + coef * x * d)
            c = 1.0 + coef * x / c
            h *= d * c
        if (np.abs(d * c - 1.0) < 5e-15).all():
            return h
    return h


def _beta_start(a: float, b: float, p: np.ndarray, log_beta: float) -> np.ndarray:
    """Starting points for ``I_x(a, b) = p``: AS 109's normal approximation
    when both shapes exceed 1, else the power-law tail on ``p``'s side."""
    mean = a / (a + b)
    if min(a, b) > 1.0:
        r = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
        y = r - (2.30753 + 0.27061 * r) / (1.0 + (0.99229 + 0.04481 * r) * r)
        y = np.where(p < 0.5, y, -y)
        r, s, t = (y * y - 3.0) / 6.0, 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (s + t)
        w = y * np.sqrt(h + r) / h - (t - s) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
        return a / (a + b * np.exp(2.0 * w))
    lower = np.exp((np.log(a * p) + log_beta) / a)
    upper = -np.expm1((np.log1p(-p) + math.log(b) + log_beta) / b)
    return np.where(lower < mean, lower, np.where(upper > mean, upper, mean))


def _beta_quantile(a: float, b: float, p) -> np.ndarray:
    """The ``Beta(a, b)`` quantile: ``x`` with ``I_x(a, b) = p``, elementwise.

    Solves ``ln(tail) = ln(target)`` in ``ln t`` by Halley steps kept in a
    bisection bracket, with ``t = x`` and tail ``I_x(a, b)`` below the mean
    and ``t = 1 − x`` and tail ``1 − I_x(a, b) = I_{1−x}(b, a)`` above it,
    freezing each element once its step is under 1e-9 relative.  Within
    1e-12 relative of ``scipy.special.betaincinv`` for shapes up to 10⁴.
    """
    flat = np.asarray(p, dtype=float).ravel()
    mean, split = a / (a + b), (a + 1.0) / (a + b + 2.0)
    # ln(x^a (1−x)^b / B(a, b)) at the mean, free of cancelling terms
    at_mean = (0.5 * math.log(a * b / (a + b)) - _LN_SQRT_2PI
               - _lgamma_tail(a) - _lgamma_tail(b) + _lgamma_tail(a + b))
    ln_mean, ln1m_mean = math.log(mean), math.log1p(-mean)
    log_beta = a * ln_mean + b * ln1m_mean - at_mean
    out = (flat >= 1.0).astype(float)
    idx = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    target = flat[idx]
    with np.errstate(all="ignore"):
        x = np.clip(_beta_start(a, b, target, log_beta), 1e-300, 1.0 - 1e-16)
        lo, hi = np.zeros_like(x), np.ones_like(x)
        for _ in range(64):
            upper = x > split
            t = np.where(upper, 1.0 - x, x)
            x = np.where(upper, 1.0 - t, x)  # so that x and 1 − x are exact
            d = x - mean
            near = np.abs(d) < 0.5 * min(mean, 1.0 - mean)
            log_front = at_mean + np.where(
                near, a * np.log1p(d / mean) + b * np.log1p(-d / (1.0 - mean)),
                a * (np.log(x) - ln_mean) + b * (np.log1p(-x) - ln1m_mean))
            h = np.empty_like(x)
            h[~upper] = _beta_cf(a, b, x[~upper]) / a
            h[upper] = _beta_cf(b, a, t[upper]) / b
            g = log_front + np.log(h) - np.log(np.where(upper, 1.0 - target, target))
            below = (g < 0.0) != upper  # I_x(a, b) < p
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            # s = d ln(tail) / d ln t and w = d ln(t · density) / d ln t
            s = 1.0 / ((1.0 - t) * h)
            w = np.where(upper, b - (a - 1.0) * t / x, a - (b - 1.0) * x / (1.0 - x))
            newton = g / s
            step = t * np.expm1(-newton / np.maximum(1.0 - 0.5 * newton * (w - s), 0.5))
            xn = np.where(upper, x - step, x + step)
            # done: a step below 1e-9 of x and of 1 − x, or below 1 − x's float grid
            done = np.abs(step) <= np.maximum(1e-9 * np.minimum(x, t), 4e-16 * upper)
            xn = np.where(done | ((lo < xn) & (xn < hi)), xn, 0.5 * (lo + hi))
            out[idx[done]] = xn[done]
            idx, x, target, lo, hi = (v[~done] for v in (idx, xn, target, lo, hi))
            if not idx.size:
                break
    out[idx] = x
    return out.reshape(np.shape(p))


def tests_needed_for_target(target_pfd: float, confidence: float) -> int:
    """Failure-free demands needed to demonstrate ``target_pfd`` classically.

    Solves ``(1 − target)^n ≤ 1 − confidence`` for the smallest integer
    ``n`` — the familiar "to claim 10⁻³ with 90% confidence you need about
    2300 failure-free demands" calculation, and the reason the paper's
    cost-of-execution scenario (§3.4.1) is the realistic one: demonstrated
    reliability is paid for in test executions.
    """
    _check_confidence(confidence)
    if not 0.0 < target_pfd < 1.0:
        raise ProbabilityError(
            f"target_pfd must be in (0, 1), got {target_pfd}"
        )
    n = math.log(1.0 - confidence) / math.log(1.0 - target_pfd)
    return int(math.ceil(n))


def replications_for_half_width(
    std: float, half_width: float, confidence: float
) -> int:
    """Observations needed for a normal CI half-width of ``half_width``.

    The Monte-Carlo counterpart of :func:`tests_needed_for_target`: solves
    ``z(confidence) · σ / √n ≤ half_width`` for the smallest integer
    ``n``.  The adaptive controller (:mod:`repro.adaptive.controller`)
    uses this to *project* its next round size from the sample standard
    deviation instead of blindly doubling — and, in the sweep layer's
    Neyman allocation, to translate per-point variance estimates into
    replication budgets.  A zero (degenerate) standard deviation needs one
    observation; an infinite one is reported as the caller's cue to fall
    back to geometric escalation.
    """
    _check_confidence(confidence)
    if half_width <= 0.0:
        raise ModelError(f"half_width must be > 0, got {half_width}")
    if std < 0.0 or math.isnan(std):
        raise ModelError(f"std must be a non-negative number, got {std}")
    if std == 0.0:
        return 1
    if math.isinf(std):
        raise ModelError("std must be finite")
    z = _z_value(confidence)
    return max(1, int(math.ceil((z * std / half_width) ** 2)))
