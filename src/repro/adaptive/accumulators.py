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

Three accumulator flavours cover the engine's estimators:

* :class:`ProportionAccumulator` — integer successes/trials per chunk
  (Bernoulli metrics, Wilson intervals);
* :class:`MeanAccumulator` — per-chunk bivariate Welford moments of the
  primary value ``y`` and an optional control value ``c``, reduced by Chan
  et al.'s pairwise merge;
* :class:`StratifiedAccumulator` — a :class:`MeanAccumulator` per stratum,
  reduced by post-stratification against exact stratum weights (with
  deterministic collapsing of undersampled strata).

Reduction produces an :class:`Estimate` — mean, standard error and
half-width at a requested confidence — which is also where the
variance-reduction arithmetic lives: control-variate adjustment against an
exactly-known anchor mean, and the stratified variance formula
``Σ w_h² s_h² / n_h``.

Degenerate data is handled explicitly: a zero-spread sample (every
observation identical — e.g. a stratum of versions that never fail) has a
zero half-width, never ``NaN``, and merged moments are clamped at the
floating-point floor so rounding can never produce a negative variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import ModelError
from ..mc.estimator import MeanEstimator, ProportionEstimator, _z_value

__all__ = [
    "BivariateMoments",
    "Estimate",
    "MeanAccumulator",
    "ProportionAccumulator",
    "StratifiedAccumulator",
    "estimator_half_width",
    "moments_of",
]


def estimator_half_width(estimator, confidence: float) -> float:
    """Confidence-interval half-width of a streaming estimator.

    Wilson for proportions, normal for means (via their ``half_width``
    methods), ``inf`` when the estimator holds no observations.
    """
    if estimator.count == 0:
        return math.inf
    return estimator.half_width(confidence)


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

    def to_payload(self) -> Tuple:
        return (
            int(self.count),
            float(self.mean_y),
            float(self.m2_y),
            float(self.mean_c),
            float(self.m2_c),
            float(self.cross),
        )

    @classmethod
    def from_payload(cls, payload) -> "BivariateMoments":
        count, mean_y, m2_y, mean_c, m2_c, cross = payload
        return cls(int(count), mean_y, m2_y, mean_c, m2_c, cross)


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
        Observations behind the estimate (pairs count once under
        antithetic pairing; see the controller's replication accounting).
    confidence:
        The confidence level ``half_width`` was computed at.
    """

    mean: float
    std_error: float
    half_width: float
    count: int
    confidence: float

    def interval(self) -> Tuple[float, float]:
        """The symmetric confidence interval around the mean."""
        return self.mean - self.half_width, self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True iff ``value`` lies inside :meth:`interval`."""
        low, high = self.interval()
        return low <= value <= high


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

    def merge(self, other: "ProportionAccumulator") -> None:
        """Union another accumulator's chunks into this one."""
        overlap = set(self._chunks) & set(other._chunks)
        if overlap:
            raise ModelError(
                f"cannot merge: chunk index(es) {sorted(overlap)} present "
                "in both accumulators"
            )
        self._chunks.update(other._chunks)

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

    def merge(self, other: "MeanAccumulator") -> None:
        """Union another accumulator's chunks into this one."""
        overlap = set(self._chunks) & set(other._chunks)
        if overlap:
            raise ModelError(
                f"cannot merge: chunk index(es) {sorted(overlap)} present "
                "in both accumulators"
            )
        self._chunks.update(other._chunks)

    def reduced(self) -> BivariateMoments:
        """Moments of the pooled sample (deterministic fold order)."""
        total = _EMPTY
        for index in sorted(self._chunks):
            total = total.merge(self._chunks[index])
        return total

    @property
    def count(self) -> int:
        return sum(moments.count for moments in self._chunks.values())

    def to_estimator(self) -> MeanEstimator:
        """The pooled ``y`` sample as a standard :class:`MeanEstimator`."""
        reduced = self.reduced()
        estimator = MeanEstimator()
        estimator.add_moments(reduced.count, reduced.mean_y, reduced.m2_y)
        return estimator

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


class StratifiedAccumulator:
    """Per-stratum mean accumulators reduced by post-stratification.

    Replications are drawn from the population unconditionally and routed
    to the accumulator of their realised stratum (e.g. the version pair's
    initial fault count); the estimate recombines the per-stratum sample
    means with *exact* stratum weights (a Poisson-binomial pmf from
    :func:`repro.adaptive.variance.fault_count_pmf`), removing the
    between-strata component of the variance.  Post-stratification rather
    than true stratified sampling keeps the chunk kernels unconditional —
    and therefore exactly mergeable — at the cost of requiring every
    positive-weight stratum to be represented; undersampled strata are
    collapsed into their nearest sampled neighbour (by stratum key order)
    before reduction, a deterministic rule shared by every worker.
    """

    #: strata with fewer pooled observations than this are collapsed
    MIN_STRATUM = 2

    def __init__(self) -> None:
        self._strata: Dict[int, MeanAccumulator] = {}

    def add_chunk(
        self, index: int, payload: Mapping[int, BivariateMoments]
    ) -> None:
        """Record one chunk's per-stratum moments under its index."""
        for stratum, moments in payload.items():
            accumulator = self._strata.setdefault(
                int(stratum), MeanAccumulator()
            )
            accumulator.add_chunk(index, moments)

    def merge(self, other: "StratifiedAccumulator") -> None:
        """Union another accumulator's chunks into this one."""
        for stratum, accumulator in other._strata.items():
            mine = self._strata.setdefault(stratum, MeanAccumulator())
            mine.merge(accumulator)

    @property
    def count(self) -> int:
        return sum(acc.count for acc in self._strata.values())

    def _collapsed(
        self, weights: Mapping[int, float]
    ) -> Dict[int, Tuple[float, BivariateMoments]]:
        """Reduce to ``{group: (weight, moments)}`` with sparse strata
        folded into their nearest sampled neighbour.

        Every stratum named by ``weights`` participates (weight mass is
        never dropped); strata observed fewer than :data:`MIN_STRATUM`
        times donate their weight and observations to the closest key
        that meets the minimum.  If no stratum meets it, everything
        collapses into a single pooled group.
        """
        reduced = {
            stratum: acc.reduced() for stratum, acc in self._strata.items()
        }
        keys = sorted(set(weights) | set(reduced))
        anchors = [
            key
            for key in keys
            if reduced.get(key, _EMPTY).count >= self.MIN_STRATUM
        ]
        groups: Dict[int, Tuple[float, BivariateMoments]] = {}
        if not anchors:
            weight = float(sum(weights.values()))
            moments = _EMPTY
            for key in keys:
                moments = moments.merge(reduced.get(key, _EMPTY))
            return {keys[0] if keys else 0: (weight, moments)}
        for key in keys:
            nearest = min(anchors, key=lambda a: (abs(a - key), a))
            weight, moments = groups.get(nearest, (0.0, _EMPTY))
            groups[nearest] = (
                weight + float(weights.get(key, 0.0)),
                moments.merge(reduced.get(key, _EMPTY)),
            )
        return groups

    def estimate(
        self,
        weights: Mapping[int, float],
        confidence: float = 0.99,
        anchor: Optional[float] = None,
    ) -> Estimate:
        """Post-stratified estimate ``Σ w_h ȳ_h`` with exact weights.

        Variance is the standard ``Σ w_h² s_h² / n_h``; a degenerate
        stratum (zero spread — e.g. the zero-fault stratum, whose
        versions never fail) contributes exactly zero, and a single pooled
        group reproduces the plain estimator.  With ``anchor`` set, a
        common control-variate coefficient β — chosen to minimise the
        stratified variance — is applied within every group before
        recombination (the ``vr="stratified+control"`` path).
        """
        groups = self._collapsed(weights)
        count = sum(moments.count for _w, moments in groups.values())
        if count == 0 or any(
            moments.count == 0 for _w, moments in groups.values()
        ):
            return Estimate(math.nan, math.inf, math.inf, count, confidence)
        beta = 0.0
        if anchor is not None:
            # β* = Σ (w_h²/n_h) cov_h / Σ (w_h²/n_h) var_h(c), the
            # minimiser of the stratified variance of y − βc; groups whose
            # control is (numerically) constant carry no β information —
            # with fault-count strata and disjoint equal-mass regions the
            # control is *exactly* constant per stratum, so this guard is
            # load-bearing, not defensive
            numerator = 0.0
            denominator = 0.0
            for weight, moments in groups.values():
                if not _control_usable(moments):
                    continue
                factor = weight * weight / moments.count / (moments.count - 1)
                numerator += factor * moments.cross
                denominator += factor * moments.m2_c
            beta = numerator / denominator if denominator > 0.0 else 0.0
        mean = 0.0
        variance_of_mean = 0.0
        control_mean = 0.0
        for weight, moments in groups.values():
            mean += weight * moments.mean_y
            control_mean += weight * moments.mean_c
            if moments.count >= 2:
                m2 = moments.m2_y
                if beta != 0.0:
                    m2 = m2 - 2.0 * beta * moments.cross + beta * beta * moments.m2_c
                sample_var = max(m2, 0.0) / (moments.count - 1)
                variance_of_mean += (
                    weight * weight * sample_var / moments.count
                )
            # count == 1: zero observed spread contributes zero variance —
            # the degenerate-stratum rule; the collapse step keeps such
            # groups rare (only when *no* stratum reached MIN_STRATUM
            # twice over)
        if anchor is not None and beta != 0.0:
            mean -= beta * (control_mean - float(anchor))
        return _estimate(mean, variance_of_mean, count, confidence)
