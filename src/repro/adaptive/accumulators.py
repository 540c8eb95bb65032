"""Mergeable streaming accumulators for adaptive estimation.

The adaptive controller runs replications in *chunks* — across escalating
rounds and, within a round, across worker processes.  For its convergence
decisions to be trustworthy, chunk results must combine into exactly the
same estimate no matter how the chunks were scheduled.  The accumulators
here guarantee that with one structural idea: **a chunk's reduced moments
are stored under the chunk's index, and every statistic is computed by
folding the stored chunks in sorted-index order.**  Merging two
accumulators is a dictionary union, so it is exactly associative,
commutative and arrival-order invariant — bit-for-bit, not just up to
floating-point reordering — and therefore invariant in ``n_procs`` and in
the order rounds complete.

Two accumulator flavours cover the engine's estimators:

* :class:`ProportionAccumulator` — integer successes/trials per chunk
  (Bernoulli metrics, Wilson intervals);
* :class:`MeanAccumulator` — per-chunk bivariate Welford moments of the
  primary value ``y`` and an optional control value ``c``, reduced by Chan
  et al.'s pairwise merge.

Reduction produces an :class:`Estimate` — mean, standard error and
half-width at a requested confidence — which is also where the
variance-reduction arithmetic lives: control-variate adjustment against an
exactly-known anchor mean.

Degenerate data is handled explicitly: a zero-spread sample (every
observation identical — e.g. versions that never fail) has a zero
half-width, never ``NaN``, and merged moments are clamped at the
floating-point floor so rounding can never produce a negative variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ModelError
from ..mc.estimator import ProportionEstimator, _z_value

__all__ = [
    "BivariateMoments",
    "Estimate",
    "MeanAccumulator",
    "ProportionAccumulator",
    "moments_of",
]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariateMoments:
    """Welford moments of one sample of ``(y, c)`` observation pairs.

    ``m2_*`` are sums of squared deviations, ``cross`` the sum of
    co-deviations; all three merge by Chan et al.'s pairwise update.  A
    univariate sample simply carries ``c``-moments of zero.
    """

    count: int
    mean_y: float
    m2_y: float
    mean_c: float = 0.0
    m2_c: float = 0.0
    cross: float = 0.0

    def merge(self, other: "BivariateMoments") -> "BivariateMoments":
        """Moments of the concatenated samples (exact pairwise merge)."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        total = self.count + other.count
        delta_y = other.mean_y - self.mean_y
        delta_c = other.mean_c - self.mean_c
        scale = self.count * other.count / total
        return BivariateMoments(
            count=total,
            mean_y=self.mean_y + delta_y * other.count / total,
            m2_y=self.m2_y + other.m2_y + delta_y * delta_y * scale,
            mean_c=self.mean_c + delta_c * other.count / total,
            m2_c=self.m2_c + other.m2_c + delta_c * delta_c * scale,
            cross=self.cross + other.cross + delta_y * delta_c * scale,
        )

    def var_y(self) -> float:
        """Unbiased sample variance of ``y`` (clamped at zero)."""
        if self.count < 2:
            return 0.0
        return max(self.m2_y, 0.0) / (self.count - 1)

_EMPTY = BivariateMoments(0, 0.0, 0.0)

#: a control sample counts as degenerate when its per-observation standard
#: deviation is below this fraction of its mean's magnitude — genuinely
#: constant controls accumulate a few ulps of rounding noise in ``m2_c``
#: through chunk merges, and dividing by that noise would send the
#: regression coefficient β to garbage
_CONTROL_REL_TOL = 1e-7


def _control_usable(moments: BivariateMoments) -> bool:
    """True iff the control sample's spread is real, not rounding noise."""
    if moments.count < 2 or moments.m2_c <= 0.0:
        return False
    scale = max(abs(moments.mean_c), 1e-300)
    return moments.m2_c > moments.count * (_CONTROL_REL_TOL * scale) ** 2


def moments_of(
    values: np.ndarray, controls: Optional[np.ndarray] = None
) -> BivariateMoments:
    """Reduce raw observations (and optional controls) to moments."""
    y = np.asarray(values, dtype=np.float64).reshape(-1)
    if y.size == 0:
        return _EMPTY
    mean_y = float(y.mean())
    m2_y = float(np.square(y - mean_y).sum())
    if controls is None:
        return BivariateMoments(int(y.size), mean_y, m2_y)
    c = np.asarray(controls, dtype=np.float64).reshape(-1)
    if c.shape != y.shape:
        raise ModelError(
            f"controls shape {c.shape} does not match values shape {y.shape}"
        )
    mean_c = float(c.mean())
    return BivariateMoments(
        count=int(y.size),
        mean_y=mean_y,
        m2_y=m2_y,
        mean_c=mean_c,
        m2_c=float(np.square(c - mean_c).sum()),
        cross=float(((y - mean_y) * (c - mean_c)).sum()),
    )


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its uncertainty at a fixed confidence level.

    Attributes
    ----------
    mean:
        The (possibly variance-reduced) point estimate.
    std_error:
        Standard error of ``mean`` (0 for a degenerate, zero-spread
        sample; ``inf`` when the sample cannot support an interval yet).
    half_width:
        ``z(confidence) * std_error``.
    count:
        Observations behind the estimate.
    confidence:
        The confidence level ``half_width`` was computed at.
    """

    mean: float
    std_error: float
    half_width: float
    count: int
    confidence: float

def _estimate(
    mean: float, variance_of_mean: float, count: int, confidence: float
) -> Estimate:
    """Package a reduced mean/variance pair, NaN-proofing the edges."""
    if count == 0:
        return Estimate(math.nan, math.inf, math.inf, 0, confidence)
    variance_of_mean = max(float(variance_of_mean), 0.0)
    std_error = math.sqrt(variance_of_mean)
    return Estimate(
        mean=float(mean),
        std_error=std_error,
        half_width=_z_value(confidence) * std_error,
        count=int(count),
        confidence=confidence,
    )


# ---------------------------------------------------------------------------
# accumulators
# ---------------------------------------------------------------------------


class ProportionAccumulator:
    """Chunk-keyed Bernoulli accumulator (exact integer merges)."""

    def __init__(self) -> None:
        self._chunks: Dict[int, Tuple[int, int]] = {}

    def add_chunk(self, index: int, successes: int, count: int) -> None:
        """Record one chunk's ``(successes, count)`` under its index."""
        if count < 0 or successes < 0 or successes > count:
            raise ModelError(
                f"invalid chunk: successes={successes}, count={count}"
            )
        if index in self._chunks:
            raise ModelError(f"chunk index {index} already recorded")
        self._chunks[int(index)] = (int(successes), int(count))

    @property
    def count(self) -> int:
        return sum(count for _s, count in self._chunks.values())

    @property
    def successes(self) -> int:
        return sum(successes for successes, _c in self._chunks.values())

    def to_estimator(self) -> ProportionEstimator:
        """The pooled sample as a standard :class:`ProportionEstimator`."""
        estimator = ProportionEstimator()
        estimator.add_many(self.successes, self.count)
        return estimator

    def estimate(self, confidence: float = 0.99) -> Estimate:
        """Wilson-interval estimate of the proportion.

        Integer totals make this trivially chunk-order and worker-count
        invariant; the Wilson half-width keeps degenerate all-failure or
        no-failure samples honest (small but nonzero width).
        """
        count = self.count
        if count == 0:
            return Estimate(math.nan, math.inf, math.inf, 0, confidence)
        estimator = self.to_estimator()
        half = estimator.half_width(confidence)
        return Estimate(
            mean=estimator.mean,
            std_error=estimator.std_error(),
            half_width=half,
            count=count,
            confidence=confidence,
        )


class MeanAccumulator:
    """Chunk-keyed bivariate Welford accumulator.

    Statistics fold the stored chunk moments in sorted-index order, so two
    accumulators holding the same chunks produce bit-identical estimates
    regardless of arrival order — the merge-law the adaptive controller's
    multi-round, multi-process execution relies on.
    """

    def __init__(self) -> None:
        self._chunks: Dict[int, BivariateMoments] = {}

    def add_chunk(
        self,
        index: int,
        values: np.ndarray | BivariateMoments,
        controls: Optional[np.ndarray] = None,
    ) -> None:
        """Record one chunk (raw observations or pre-reduced moments)."""
        if index in self._chunks:
            raise ModelError(f"chunk index {index} already recorded")
        if isinstance(values, BivariateMoments):
            if controls is not None:
                raise ModelError(
                    "controls cannot accompany pre-reduced moments"
                )
            moments = values
        else:
            moments = moments_of(values, controls)
        self._chunks[int(index)] = moments

    def reduced(self) -> BivariateMoments:
        """Moments of the pooled sample (deterministic fold order)."""
        total = _EMPTY
        for index in sorted(self._chunks):
            total = total.merge(self._chunks[index])
        return total

    def estimate(
        self, confidence: float = 0.99, anchor: Optional[float] = None
    ) -> Estimate:
        """Normal-interval estimate of ``E[y]``.

        With ``anchor`` — the exactly-known mean of the control value
        ``c`` — the estimate is the control-variate regression estimator
        ``ȳ − β̂ (c̄ − anchor)`` with ``β̂ = cov(y, c) / var(c)``, whose
        variance-of-mean is the residual ``(var(y) − cov²/var(c)) / n``.
        A degenerate control sample (``var(c) = 0``) falls back to the
        plain mean, and a perfectly-correlated pair collapses the
        half-width to exactly zero — the d = 0 "testing changes nothing"
        regime, where the anchor *is* the answer.
        """
        reduced = self.reduced()
        if reduced.count == 0:
            return Estimate(math.nan, math.inf, math.inf, 0, confidence)
        n = reduced.count
        if anchor is None or not _control_usable(reduced):
            return _estimate(
                reduced.mean_y, reduced.var_y() / n, n, confidence
            )
        beta = reduced.cross / reduced.m2_c
        mean = reduced.mean_y - beta * (reduced.mean_c - float(anchor))
        if n < 2:
            return _estimate(mean, math.inf, n, confidence)
        residual_m2 = max(reduced.m2_y - reduced.cross * beta, 0.0)
        variance_of_mean = residual_m2 / (n - 1) / n
        return _estimate(mean, variance_of_mean, n, confidence)

