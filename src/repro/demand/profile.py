"""Usage profiles — the measure ``Q(·)`` over the demand space.

``Q(x)`` is the probability that operational use presents demand ``x``.  The
paper's marginal results (eqs. (22)-(25)) weight per-demand quantities by
``Q``, so the *shape* of the profile (how concentrated usage is) directly
scales the variance and covariance penalty terms.  The factory functions
below provide the standard shapes used in the experiment suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..errors import IncompatibleSpaceError, ProbabilityError
from ..rng import inverse_cdf_indices
from ..types import SeedLike
from .space import DemandSpace

__all__ = [
    "UsageProfile",
    "uniform_profile",
    "zipf_profile",
    "mixture_profile",
]

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class UsageProfile:
    """A probability distribution ``Q(·)`` over a finite demand space.

    Parameters
    ----------
    space:
        The demand space the profile is defined on.
    probabilities:
        Length-``space.size`` vector of demand probabilities; must be
        non-negative and sum to one (normalise first if needed).

    Notes
    -----
    Instances are immutable.  Sampling uses the inverse-CDF method through
    :meth:`sample`, which accepts an external generator so experiments stay
    reproducible under a single seed.
    """

    space: DemandSpace
    probabilities: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.shape != (self.space.size,):
            raise IncompatibleSpaceError(
                f"profile length {probs.shape} does not match demand space "
                f"size {self.space.size}"
            )
        if np.any(probs < 0.0) or np.any(~np.isfinite(probs)):
            raise ProbabilityError("usage probabilities must be finite and >= 0")
        total = float(probs.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ProbabilityError(
                f"usage probabilities must sum to 1 (got {total:.12f}); "
                "use UsageProfile.normalised or a factory function"
            )
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_cdf", np.cumsum(probs))

    @classmethod
    def normalised(
        cls, space: DemandSpace, weights: Sequence[float] | np.ndarray
    ) -> "UsageProfile":
        """Build a profile from non-negative weights, normalising to 1."""
        array = np.asarray(weights, dtype=np.float64)
        total = float(array.sum())
        if total <= 0.0 or not np.isfinite(total):
            raise ProbabilityError("weights must have a positive finite sum")
        return cls(space, array / total)

    def probability(self, demand: int) -> float:
        """Return ``Q(x)`` for a single demand ``x``."""
        return float(self.probabilities[self.space.validate_demand(demand)])

    def mass_of(self, demands: Sequence[int] | np.ndarray) -> float:
        """Return ``Q(D)`` — the total usage mass of a set of demands.

        Used heavily by the exact analytics: for i.i.d. operational suites
        of size ``n``, the probability that a suite misses a failure region
        ``R`` is ``(1 - Q(R))**n``.
        """
        indices = self.space.validate_demands(demands)
        return float(self.probabilities[indices].sum())

    def expectation(self, values: Sequence[float] | np.ndarray) -> float:
        """Return ``E_Q[v(X)]`` for a per-demand value vector ``v``.

        This is the workhorse behind every marginal quantity in the paper:
        e.g. eq. (2) is ``expectation(theta)`` and eq. (22) is
        ``expectation(zeta**2) = E[Θ_T]² + Var(Θ_T)``.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.shape != (self.space.size,):
            raise IncompatibleSpaceError(
                f"value vector length {array.shape} does not match demand "
                f"space size {self.space.size}"
            )
        return float(self.probabilities @ array)

    def variance(self, values: Sequence[float] | np.ndarray) -> float:
        """Return ``Var_Q[v(X)]`` for a per-demand value vector ``v``."""
        array = np.asarray(values, dtype=np.float64)
        mean = self.expectation(array)
        return self.expectation((array - mean) ** 2)

    def covariance(
        self,
        first: Sequence[float] | np.ndarray,
        second: Sequence[float] | np.ndarray,
    ) -> float:
        """Return ``Cov_Q[u(X), v(X)]`` — the LM-model covariance over demands.

        With ``u = theta_A`` and ``v = theta_B`` this is exactly the
        ``Cov(Θ_A, Θ_B)`` of eq. (9).
        """
        u = np.asarray(first, dtype=np.float64)
        v = np.asarray(second, dtype=np.float64)
        mean_u = self.expectation(u)
        mean_v = self.expectation(v)
        return self.expectation((u - mean_u) * (v - mean_v))

    def sample(
        self,
        rng: SeedLike = None,
        size: int | Tuple[int, ...] | None = None,
    ) -> np.ndarray | int:
        """Draw demand indices i.i.d. from ``Q``.

        Returns a scalar int when ``size is None``, else an int64 array of
        the given shape.  Tuple shapes let the batch Monte-Carlo engine draw
        a whole ``(replications, suite_size)`` block of demands in one call.
        """
        return inverse_cdf_indices(self._cdf, rng, size)

    @property
    def support(self) -> np.ndarray:
        """Demand indices with strictly positive usage probability."""
        return np.flatnonzero(self.probabilities > 0.0).astype(np.int64)

    def restrict(self, demands: Sequence[int] | np.ndarray) -> "UsageProfile":
        """Return ``Q`` conditioned on a subset of demands (renormalised).

        Useful for debug-style test generation where the tester believes
        faults live in a region of the demand space and concentrates there.
        """
        mask = self.space.indicator(demands)
        weights = np.where(mask, self.probabilities, 0.0)
        return UsageProfile.normalised(self.space, weights)


def uniform_profile(space: DemandSpace) -> UsageProfile:
    """Uniform usage: every demand equally likely."""
    probs = np.full(space.size, 1.0 / space.size)
    return UsageProfile(space, probs)


def zipf_profile(space: DemandSpace, exponent: float = 1.0) -> UsageProfile:
    """Zipf-shaped usage: demand ``k`` has weight ``1 / (k+1)**exponent``.

    Heavy-tailed usage is the classic operational-profile shape; a larger
    ``exponent`` concentrates usage on few demands, which magnifies the
    contribution of those demands' difficulty to the marginal results.
    """
    if exponent < 0:
        raise ProbabilityError(f"zipf exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, space.size + 1, dtype=np.float64)
    return UsageProfile.normalised(space, ranks**-exponent)


def mixture_profile(
    components: Sequence[UsageProfile], weights: Sequence[float]
) -> UsageProfile:
    """Convex mixture of usage profiles over the same demand space.

    Models a user base made of sub-populations with different usage
    patterns; the paper notes ``Q`` "might vary from one user environment
    to another".
    """
    if not components:
        raise ProbabilityError("mixture needs at least one component")
    space = components[0].space
    for component in components[1:]:
        space.require_same(component.space)
    weight_array = np.asarray(weights, dtype=np.float64)
    if weight_array.shape != (len(components),):
        raise ProbabilityError(
            f"got {len(components)} components but {weight_array.shape} weights"
        )
    if np.any(weight_array < 0):
        raise ProbabilityError("mixture weights must be non-negative")
    total = float(weight_array.sum())
    if total <= 0:
        raise ProbabilityError("mixture weights must have positive sum")
    stacked = np.stack([c.probabilities for c in components])
    mixed = (weight_array / total) @ stacked
    return UsageProfile(space, mixed)
