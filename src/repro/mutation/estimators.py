"""Estimators turning campaign kill counts into detection distributions.

The campaign gives, for each mutant *i* of *m* mutants, the number of
tests ``k_i`` (out of ``n``) that detected it.  Conditional on the total
number of detections ``N = Σ k_i``, the vector ``(k_1, …, k_m)`` is
modelled as ``Multinomial(N, π)`` — the *size-biased multinomial* view
of mutant detectability (arXiv:2406.04360): a mutant's share ``π_i`` of
all detections is its effective "size" in the demand-space sense of
Popov & Littlewood, because bigger faults are hit by proportionally more
tests.

Three layers:

* the **nonparametric MLE** ``π̂_i = k_i / N`` (exact for a multinomial);
* a **rank–Zipf size model** ``π_(r) ∝ r^{-α}`` fitted to the sorted
  shares by 1-D maximum likelihood — one interpretable heterogeneity
  parameter ``α`` (``α = 0`` ⇒ equal-size faults, the classical
  single-``p`` assumption; larger ``α`` ⇒ a few dominant, easily-hit
  faults and a long tail of small ones);
* **predictive count distributions**: the pmf of a random mutant's
  detection count under the fitted model versus under the equal-size
  baseline, comparable to the empirical histogram by total variation.

Everything here is order-invariant: permuting the mutants permutes
``weights`` but leaves ``alpha``, the sorted shares, the mutation score
and every pmf unchanged.  The 1-D fit runs :func:`_minimize_bounded`, a
bit-exact port of scipy's bounded Brent minimiser, so no scipy is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ModelError

__all__ = [
    "DetectionData",
    "SizeBiasedMultinomialFit",
    "fit_size_biased_multinomial",
    "detection_count_distribution",
    "total_variation",
]

#: search interval for the Zipf exponent — wide enough for any small
#: campaign; the MLE of real corpora sits well inside it
_ALPHA_BOUNDS = (0.0, 8.0)


@dataclass(frozen=True)
class DetectionData:
    """Per-mutant detection counts from one campaign.

    ``counts[i]`` is how many of the ``n_tests`` suite tests detected
    mutant ``labels[i]``.
    """

    counts: Tuple[int, ...]
    n_tests: int
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise ModelError("detection data needs at least one mutant")
        if len(self.labels) != len(self.counts):
            raise ModelError(
                f"{len(self.labels)} labels for {len(self.counts)} counts"
            )
        if self.n_tests < 1:
            raise ModelError(f"n_tests must be >= 1, got {self.n_tests}")
        for label, count in zip(self.labels, self.counts):
            if not 0 <= count <= self.n_tests:
                raise ModelError(
                    f"mutant {label!r}: count {count} outside "
                    f"[0, {self.n_tests}]"
                )

    @property
    def n_mutants(self) -> int:
        return len(self.counts)

    @property
    def total_detections(self) -> int:
        return int(sum(self.counts))

    @classmethod
    def from_outcomes(cls, outcomes: Sequence) -> "DetectionData":
        """Build from :class:`~repro.mutation.campaign.MutantOutcome`\\ s."""
        if not outcomes:
            raise ModelError("no mutant outcomes to estimate from")
        n_tests = outcomes[0].n_tests
        return cls(
            counts=tuple(int(o.detected) for o in outcomes),
            n_tests=int(n_tests),
            labels=tuple(o.mutant_id for o in outcomes),
        )


def _minimize_bounded(func, lower: float, upper: float) -> Tuple[float, float]:
    """``(x, func(x))`` at the minimum of ``func`` on ``[lower, upper]``.

    A line-for-line port of scipy's ``minimize_scalar(method="bounded")``
    (Brent, ``xatol=1e-5``, ``maxiter=500``): every floating-point
    operation runs in scipy's order, so the result is scipy's to the bit.
    """
    xatol, maxiter = 1e-5, 500
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b, rat, e, num = lower, upper, 0.0, 0.0, 1
    nfc = xf = fulc = a + golden_mean * (b - a)
    ffulc = fnfc = fx = func(xf)
    while True:
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > (tol2 - 0.5 * (b - a)) or num >= maxiter:
            return xf, fx
        golden = abs(e) <= tol1
        if not golden:  # try a parabolic step
            r, q = (xf - nfc) * (fx - ffulc), (xf - fulc) * (fx - fnfc)
            p, q = (xf - fulc) * q - (xf - nfc) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, rat
            golden = not (abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf))
            if not golden:
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu, num = func(x), num + 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def _zipf_shares(alpha: float, m: int) -> np.ndarray:
    """Normalised rank–Zipf shares ``π_(1) ≥ … ≥ π_(m)``."""
    ranks = np.arange(1, m + 1, dtype=float)
    raw = ranks ** (-float(alpha))
    return raw / raw.sum()


def _zipf_negative_loglik(alpha: float, sorted_counts: np.ndarray) -> float:
    shares = _zipf_shares(alpha, len(sorted_counts))
    return -float(np.sum(sorted_counts * np.log(shares)))


@dataclass(frozen=True)
class SizeBiasedMultinomialFit:
    """Fitted detection distribution for one campaign.

    Attributes
    ----------
    weights:
        Nonparametric MLE shares ``π̂_i = k_i / N`` in the *input* mutant
        order (uniform when ``degenerate``).
    detection_probs:
        Per-mutant empirical detection probabilities ``k_i / n``.
    alpha:
        Rank–Zipf heterogeneity exponent (MLE over the sorted shares).
    mutation_score:
        Fraction of mutants with ``k_i > 0``.
    degenerate:
        True when no test detected any mutant (``N = 0``): weights fall
        back to uniform and ``alpha`` to 0 rather than failing.
    """

    data: DetectionData
    weights: Tuple[float, ...]
    detection_probs: Tuple[float, ...]
    alpha: float
    loglik: float
    mutation_score: float
    degenerate: bool

    @property
    def mean_detection_prob(self) -> float:
        """The pooled per-(mutant, test) detection probability."""
        return self.data.total_detections / (
            self.data.n_mutants * self.data.n_tests
        )

    def fitted_count_pmf(self) -> np.ndarray:
        """Pmf of a random mutant's detection count under the rank–Zipf fit.

        A mutant drawn uniformly from the *m* ranks has count
        ``Binomial(n, p_r)``, where the per-test probabilities ``p_r``
        rescale the fitted shares to the observed total (``Σ p_r = N/n``)
        by water-filling: shares that would exceed probability 1 are
        capped there and the excess redistributed over the rest, so the
        mixture's mean detection count equals the empirical mean ``N/m``
        exactly even when dominant mutants are detected by every test.
        """
        m, n = self.data.n_mutants, self.data.n_tests
        shares = _zipf_shares(self.alpha, m)
        probs = _water_fill(shares, self.data.total_detections / n)
        return _binomial_mixture_pmf(probs, n)

    def equal_size_count_pmf(self) -> np.ndarray:
        """Pmf under the classical equal-size assumption (single ``p``)."""
        n = self.data.n_tests
        pooled = np.array([self.mean_detection_prob])
        return _binomial_mixture_pmf(pooled, n)

def _water_fill(shares: np.ndarray, budget: float) -> np.ndarray:
    """Probabilities ``p_r = min(1, c·shares_r)`` with ``Σ p_r = budget``.

    ``budget`` must be at most ``len(shares)`` (it is ``N/n ≤ m`` for
    detection data).  At most ``m`` passes: each pass either finds the
    scaling constant ``c`` for the uncapped shares or caps at least one
    more share at 1.
    """
    m = len(shares)
    capped = np.zeros(m, dtype=bool)
    probs = np.zeros(m, dtype=float)
    remaining = float(budget)
    for _ in range(m):
        free = ~capped
        free_mass = float(shares[free].sum())
        if free_mass <= 0.0 or remaining <= 0.0:
            break
        scale = remaining / free_mass
        scaled = scale * shares[free]
        if np.all(scaled <= 1.0 + 1e-12):
            probs[free] = np.minimum(scaled, 1.0)
            break
        overflow = free.copy()
        overflow[free] = scaled > 1.0
        capped |= overflow
        probs[overflow] = 1.0
        remaining = float(budget) - float(capped.sum())
    return probs


def _binomial_mixture_pmf(probs: np.ndarray, n: int) -> np.ndarray:
    """Equal-weight mixture of ``Binomial(n, p)`` pmfs over ``probs``."""
    counts = np.arange(n + 1)
    log_choose = np.array(
        [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
         for k in counts]
    )
    pmf = np.zeros(n + 1)
    for p in probs:
        p = min(max(float(p), 0.0), 1.0)
        if p == 0.0:
            component = np.zeros(n + 1)
            component[0] = 1.0
        elif p == 1.0:
            component = np.zeros(n + 1)
            component[n] = 1.0
        else:
            component = np.exp(
                log_choose
                + counts * math.log(p)
                + (n - counts) * math.log1p(-p)
            )
        pmf += component
    return pmf / len(probs)


def fit_size_biased_multinomial(data: DetectionData) -> SizeBiasedMultinomialFit:
    """Fit the size-biased multinomial detection model to campaign data.

    Degenerate inputs never raise: an all-survived campaign (``N = 0``)
    yields uniform weights with ``alpha = 0`` and ``degenerate=True``;
    an all-killed-by-everything campaign yields uniform weights with
    ``alpha = 0`` (the shares really are equal) and ``degenerate=False``.
    """
    counts = np.asarray(data.counts, dtype=float)
    m = data.n_mutants
    total = data.total_detections
    score = float(np.count_nonzero(counts)) / m
    if total == 0:
        uniform = tuple([1.0 / m] * m)
        return SizeBiasedMultinomialFit(
            data=data,
            weights=uniform,
            detection_probs=tuple([0.0] * m),
            alpha=0.0,
            loglik=0.0,
            mutation_score=0.0,
            degenerate=True,
        )
    weights = tuple(float(k) / total for k in counts)
    detection_probs = tuple(float(k) / data.n_tests for k in counts)
    sorted_counts = np.sort(counts)[::-1]
    if m == 1:
        alpha, loglik = 0.0, 0.0
    else:
        alpha, fun = _minimize_bounded(
            lambda a: _zipf_negative_loglik(a, sorted_counts), *_ALPHA_BOUNDS
        )
        loglik = -fun
        # the bounded minimiser never lands exactly on the boundary even
        # for exactly-equal counts; snap to 0 when it is flat there
        flat = _zipf_negative_loglik(0.0, sorted_counts)
        if flat <= -loglik + 1e-9:
            alpha, loglik = 0.0, -flat
    return SizeBiasedMultinomialFit(
        data=data,
        weights=weights,
        detection_probs=detection_probs,
        alpha=alpha,
        loglik=loglik,
        mutation_score=score,
        degenerate=False,
    )


def detection_count_distribution(data: DetectionData) -> np.ndarray:
    """Empirical pmf of detection counts: index ``k`` → fraction of
    mutants detected by exactly ``k`` tests (length ``n_tests + 1``)."""
    pmf = np.zeros(data.n_tests + 1)
    for count in data.counts:
        pmf[count] += 1.0
    return pmf / data.n_mutants


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two pmfs on the same support."""
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ModelError(
            f"pmf supports differ: {p_arr.shape} vs {q_arr.shape}"
        )
    return 0.5 * float(np.abs(p_arr - q_arr).sum())
