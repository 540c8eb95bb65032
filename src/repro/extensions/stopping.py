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
  the bound is its ``c``-quantile (``scipy.special.betaincinv``, imported
  on first use).  ``a = b = 1`` (uniform prior) is the textbook
  conservative choice.

These connect the library's suite-size axis to the reliability targets a
tester would actually contract for.
"""

from __future__ import annotations

import math

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
    from scipy.special import betaincinv

    return float(betaincinv(prior_a, prior_b + n_failure_free, confidence))


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
