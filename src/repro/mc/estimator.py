"""Streaming estimators with confidence intervals.

:class:`ProportionEstimator` (Bernoulli outcomes — "did both versions fail
on x?") uses the Wilson score interval, which behaves sensibly at the very
small probabilities typical of reliability work.  :class:`MeanEstimator`
(bounded real outcomes — per-replication system pfd) uses Welford's online
algorithm with a normal-approximation interval.  Both take their normal
quantile from :class:`statistics.NormalDist`, so this module needs no scipy.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ModelError

__all__ = ["ProportionEstimator", "MeanEstimator"]


def _z_value(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0, 1), got {confidence}")
    return statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)


class ProportionEstimator(object):
    """Streaming estimator of a probability from Bernoulli observations."""

    def __init__(self) -> None:
        self._successes = 0
        self._count = 0

    def add_many(self, successes: int, count: int) -> None:
        """Record a batch of ``count`` observations with ``successes`` hits."""
        if count < 0 or successes < 0 or successes > count:
            raise ModelError(
                f"invalid batch: successes={successes}, count={count}"
            )
        self._successes += successes
        self._count += count

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def successes(self) -> int:
        """Number of positive observations recorded."""
        return self._successes

    @property
    def mean(self) -> float:
        """Point estimate of the probability."""
        if self._count == 0:
            raise ModelError("no observations recorded")
        return self._successes / self._count

    def std_error(self) -> float:
        """Standard error of the point estimate."""
        if self._count == 0:
            raise ModelError("no observations recorded")
        p = self.mean
        return math.sqrt(p * (1.0 - p) / self._count)

    def wilson_interval(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Wilson score interval — robust near 0 and 1.

        Preferred over the normal interval for reliability probabilities,
        which are frequently close to zero where the normal interval
        collapses to a point and understates uncertainty.
        """
        if self._count == 0:
            raise ModelError("no observations recorded")
        z = _z_value(confidence)
        n = self._count
        p = self.mean
        denominator = 1.0 + z * z / n
        centre = (p + z * z / (2.0 * n)) / denominator
        spread = (
            z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denominator
        )
        return max(0.0, centre - spread), min(1.0, centre + spread)

    def half_width(self, confidence: float = 0.99) -> float:
        """Wilson-interval half-width — the adaptive stopping quantity.

        Deliberately *not* the normal half-width: a degenerate all-failure
        or no-failure sample keeps a small positive width (the Wilson
        interval never collapses to a point at finite ``n``), so a
        proportion target can only be met by genuine evidence.
        """
        low, high = self.wilson_interval(confidence)
        return (high - low) / 2.0

    def contains(self, value: float, confidence: float = 0.99) -> bool:
        """True iff ``value`` lies in the Wilson interval."""
        low, high = self.wilson_interval(confidence)
        return low <= value <= high


@dataclass
class MeanEstimator:
    """Welford online mean/variance estimator for bounded real outcomes."""

    _count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0

    def add(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def add_many(self, values: Sequence[float] | np.ndarray) -> None:
        """Record a whole batch of observations in one update.

        Uses Chan et al.'s parallel Welford merge, so interleaving
        :meth:`add` and :meth:`add_many` keeps ``mean`` exactly and
        ``variance`` up to floating-point reordering identical to feeding
        every observation through :meth:`add`.  This is how the batch
        Monte-Carlo engine streams chunk results into the estimator without
        changing its confidence-interval semantics.
        """
        array = np.asarray(values, dtype=np.float64).reshape(-1)
        if array.size == 0:
            return
        batch_mean = float(array.mean())
        batch_m2 = float(np.square(array - batch_mean).sum())
        self.add_moments(int(array.size), batch_mean, batch_m2)

    def add_moments(self, count: int, mean: float, m2: float) -> None:
        """Merge pre-reduced Welford moments of another sample.

        ``count``/``mean``/``m2`` are the observation count, sample mean and
        sum of squared deviations of a disjoint batch — what a worker
        process ships back instead of raw observations.  Merging follows
        Chan et al.'s pairwise update.
        """
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        if m2 < 0.0:
            raise ModelError(f"m2 must be >= 0, got {m2}")
        if count == 0:
            return
        if self._count == 0:
            self._count, self._mean, self._m2 = count, mean, m2
            return
        total = self._count + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self._count * count / total
        self._mean += delta * count / total
        self._count = total

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def mean(self) -> float:
        """Point estimate of the mean."""
        if self._count == 0:
            raise ModelError("no observations recorded")
        return self._mean

    @property
    def moments(self) -> Tuple[int, float, float]:
        """The Welford sufficient statistics ``(count, mean, m2)``.

        The exact inverse of :meth:`add_moments` — what a worker process
        (or :class:`repro.adaptive.MeanAccumulator` chunk) ships instead
        of raw observations.
        """
        return self._count, self._mean, self._m2

    @property
    def variance(self) -> float:
        """Unbiased sample variance (clamped at the floating-point floor).

        The clamp guards merged moments: :meth:`add_moments` chains can
        leave ``m2`` a few ulps below zero for (near-)constant samples,
        and an unclamped value would surface as ``NaN`` from the square
        root in :meth:`std_error`.
        """
        if self._count < 2:
            return 0.0
        return max(self._m2, 0.0) / (self._count - 1)

    def std_error(self) -> float:
        """Standard error of the mean."""
        if self._count == 0:
            raise ModelError("no observations recorded")
        if self._count == 1:
            return float("inf")
        return math.sqrt(self.variance / self._count)

    def normal_interval(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Normal-approximation confidence interval for the mean."""
        z = _z_value(confidence)
        half = z * self.std_error()
        return self.mean - half, self.mean + half

    def contains(self, value: float, confidence: float = 0.99) -> bool:
        """True iff ``value`` lies in the normal interval."""
        low, high = self.normal_interval(confidence)
        return low <= value <= high
