"""The Littlewood–Miller model (paper §1, eqs. (8)–(10)).

Forced design diversity: versions are drawn independently from *different*
methodologies ``A`` and ``B`` with difficulty functions ``θ_A``, ``θ_B``.
On a random demand,

    P(both fail) = E[Θ_A Θ_B] = E[Θ_A] E[Θ_B] + Cov(Θ_A, Θ_B)     (eq. (9))

so — unlike the single-methodology EL case where the excess term is a
variance and necessarily non-negative — the covariance can be *negative*,
and "it is possible in this model to do even better than the (unattainable)
goal of independent performance of versions".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..demand import UsageProfile
from ..errors import IncompatibleSpaceError, ProbabilityError
from ..populations import MethodologyPair

__all__ = ["LMModel"]


@dataclass(frozen=True)
class LMModel:
    """The Littlewood–Miller forced-diversity model.

    Parameters
    ----------
    difficulty_a, difficulty_b:
        Per-demand difficulty functions ``θ_A(x)``, ``θ_B(x)``.
    profile:
        Usage measure ``Q``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.demand import DemandSpace, uniform_profile
    >>> space = DemandSpace(2)
    >>> profile = uniform_profile(space)
    >>> # complementary difficulty: A hard where B easy and vice versa
    >>> model = LMModel(np.array([0.4, 0.0]), np.array([0.0, 0.4]), profile)
    >>> model.covariance() < 0
    True
    >>> model.prob_both_fail() < model.independence_prediction()
    True
    """

    difficulty_a: np.ndarray
    difficulty_b: np.ndarray
    profile: UsageProfile
    _theta_a: np.ndarray = field(init=False, repr=False, compare=False)
    _theta_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = self.profile.space.size
        arrays = []
        for label, values in (("A", self.difficulty_a), ("B", self.difficulty_b)):
            theta = np.asarray(values, dtype=np.float64)
            if theta.shape != (size,):
                raise IncompatibleSpaceError(
                    f"difficulty_{label.lower()} length {theta.shape} does "
                    f"not match demand space size {size}"
                )
            if np.any(theta < 0) or np.any(theta > 1) or np.any(~np.isfinite(theta)):
                raise ProbabilityError(
                    f"difficulty_{label.lower()} values must lie in [0, 1]"
                )
            arrays.append(theta)
        object.__setattr__(self, "difficulty_a", arrays[0])
        object.__setattr__(self, "difficulty_b", arrays[1])
        object.__setattr__(self, "_theta_a", arrays[0])
        object.__setattr__(self, "_theta_b", arrays[1])

    @classmethod
    def from_pair(cls, pair: MethodologyPair, profile: UsageProfile) -> "LMModel":
        """Build the model from a forced-diversity methodology pair."""
        pair.first.population.universe.space.require_same(profile.space)
        theta_a, theta_b = pair.difficulties()
        return cls(theta_a, theta_b, profile)

    @classmethod
    def from_difficulties(
        cls,
        difficulty_a: Sequence[float] | np.ndarray,
        difficulty_b: Sequence[float] | np.ndarray,
        profile: UsageProfile,
    ) -> "LMModel":
        """Build the model from raw difficulty vectors."""
        return cls(
            np.asarray(difficulty_a, dtype=np.float64),
            np.asarray(difficulty_b, dtype=np.float64),
            profile,
        )

    # ------------------------------------------------------------------
    # scalar quantities of the paper
    # ------------------------------------------------------------------
    def prob_fail_a(self) -> float:
        """``P(Π_A fails on X) = E[Θ_A]``."""
        return self.profile.expectation(self._theta_a)

    def prob_fail_b(self) -> float:
        """``P(Π_B fails on X) = E[Θ_B]``."""
        return self.profile.expectation(self._theta_b)

    def prob_both_fail_on(self, demand: int) -> float:
        """``P(both fail on x) = θ_A(x) θ_B(x)`` — fixed-demand independence."""
        index = self.profile.space.validate_demand(demand)
        return float(self._theta_a[index] * self._theta_b[index])

    def prob_both_fail(self) -> float:
        """``P(both fail on X) = E[Θ_A Θ_B]`` — eq. (9)."""
        return self.profile.expectation(self._theta_a * self._theta_b)

    def covariance(self) -> float:
        """``Cov(Θ_A, Θ_B)`` — the forced-diversity key term."""
        return self.profile.covariance(self._theta_a, self._theta_b)

    def independence_prediction(self) -> float:
        """``E[Θ_A] E[Θ_B]`` — the naive-independence system pfd."""
        return self.prob_fail_a() * self.prob_fail_b()

    def conditional_prob_a_fails_given_b_failed(self) -> float:
        """``P(Π_A fails | Π_B failed)`` — eq. (10).

        Exceeds ``P(Π_A fails)`` iff the covariance is positive.
        """
        mean_b = self.prob_fail_b()
        if mean_b <= 0.0:
            raise ProbabilityError(
                "conditional probability undefined: P(B fails) is zero"
            )
        return self.covariance() / mean_b + self.prob_fail_a()

    def beats_independence(self) -> bool:
        """True iff the pair is *more* reliable than independence predicts.

        Equivalent to a negative difficulty covariance — the LM headline
        result that forced diversity can beat the independence benchmark.
        """
        return self.covariance() < 0.0
