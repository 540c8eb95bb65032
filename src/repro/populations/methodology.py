"""Methodologies and forced-design-diversity pairs.

The LM model's "methodology" (language, team type, development environment,
testing regime, ...) is a named measure over versions.  A
:class:`MethodologyPair` packages two methodologies over a common fault
universe and exposes the LM quantities: per-methodology difficulty
functions, their covariance over the usage profile, and sampling of
independently developed version pairs (the paper's eq. (8)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import IncompatibleSpaceError, ModelError
from ..rng import as_generator, spawn_many
from ..types import SeedLike
from ..versions import Version
from .base import VersionPopulation

__all__ = ["Methodology", "MethodologyPair"]


@dataclass(frozen=True)
class Methodology:
    """A named development methodology: a label plus its measure ``S_A(·)``."""

    name: str
    population: VersionPopulation

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("methodology name must be non-empty")

    def sample(self, rng: SeedLike = None) -> Version:
        """One development effort under this methodology."""
        return self.population.sample(rng)

    def difficulty(self) -> np.ndarray:
        """``theta_A(x)`` for this methodology."""
        return self.population.difficulty()

    def tested_difficulty(self, suite_demands) -> np.ndarray:
        """``xi_A(x, t)`` for this methodology and a fixed suite."""
        return self.population.tested_difficulty(suite_demands)


@dataclass(frozen=True)
class MethodologyPair:
    """Two methodologies developing versions independently (forced diversity).

    Both methodologies must share one fault universe; identical measures
    reduce the pair to the single-methodology EL setting, which the library
    treats as the special case ``MethodologyPair.homogeneous``.
    """

    first: Methodology
    second: Methodology

    def __post_init__(self) -> None:
        if self.first.population.universe is not self.second.population.universe:
            raise IncompatibleSpaceError(
                "methodologies must share one fault universe"
            )

    @classmethod
    def homogeneous(cls, methodology: Methodology) -> "MethodologyPair":
        """Both channels developed under one methodology (EL setting)."""
        return cls(methodology, methodology)

    @property
    def is_homogeneous(self) -> bool:
        """True iff both channels use the same measure object."""
        return self.first.population is self.second.population

    def sample_pair(self, rng: SeedLike = None) -> Tuple[Version, Version]:
        """Draw an independently developed version pair (eq. (8)).

        Independence across channels is enforced with spawned child
        streams: the two developments share no randomness.
        """
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return self.first.sample(stream_a), self.second.sample(stream_b)

    def difficulties(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(theta_A, theta_B)`` as per-demand vectors."""
        return self.first.difficulty(), self.second.difficulty()

    def difficulty_covariance(self, profile: UsageProfile) -> float:
        """``Cov(Θ_A, Θ_B)`` over the usage profile — the LM key term (eq. (9)).

        Negative covariance is the forced-diversity prize: methodologies
        whose hard demands are each other's easy demands.
        """
        theta_a, theta_b = self.difficulties()
        return profile.covariance(theta_a, theta_b)

    def mean_difficulties(self, profile: UsageProfile) -> Tuple[float, float]:
        """``(E[Θ_A], E[Θ_B])`` — the marginal per-channel unreliabilities."""
        theta_a, theta_b = self.difficulties()
        return profile.expectation(theta_a), profile.expectation(theta_b)
