"""Common clarifications as shared restricted test suites (paper §5).

"If an ambiguity is discovered by one of the teams, and a common
clarification is sent to all development teams, this can conceptually be
modelled as running the same 'test suite' against all versions.  The
difference ... is that the common test suite is not generated to cover the
whole demand space ... but instead will affect a (possibly small) sub-set
of the demand space."

Model: the specification has a set of *candidate ambiguities*, each
identified with the demand region it affects.  During development exactly
one (or none) surfaces and is clarified for **all** teams — a random shared
event.  Resolving an ambiguity behaves exactly like perfect testing on its
region: every fault of every channel whose failure region meets the
clarified demands is repaired.  The induced suite measure is enumerable, so
the whole core applies: a *random* common clarification adds the eq. (20)
variance penalty, while a *deterministic* one (everyone always learns the
same thing) adds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import SameSuite, IndependentSuites, marginal_system_pfd
from ..demand import DemandSpace, UsageProfile
from ..errors import ModelError, ProbabilityError
from ..populations import VersionPopulation
from ..testing import EnumerableSuiteGenerator, TestSuite

__all__ = ["ClarificationProcess", "ClarificationEffect", "clarification_effect"]


class ClarificationProcess(object):
    """A suite measure over candidate specification ambiguities.

    Parameters
    ----------
    space:
        The demand space.
    regions:
        One demand region per candidate ambiguity; clarifying ambiguity
        ``i`` repairs (perfectly tests) region ``i``.
    probabilities:
        Probability that each ambiguity is the one discovered; if they sum
        to less than one, the remainder is the probability that *no*
        ambiguity surfaces (an empty suite).
    """

    def __init__(
        self,
        space: DemandSpace,
        regions: Sequence[Sequence[int]],
        probabilities: Sequence[float],
    ) -> None:
        regions = list(regions)
        probs = np.asarray(list(probabilities), dtype=np.float64)
        if len(regions) != probs.size:
            raise ModelError(
                f"got {len(regions)} regions but {probs.size} probabilities"
            )
        if np.any(probs < 0.0) or np.any(~np.isfinite(probs)):
            raise ProbabilityError("probabilities must be finite and >= 0")
        total = float(probs.sum())
        if total > 1.0 + 1e-9:
            raise ProbabilityError(
                f"ambiguity probabilities sum to {total:.6f} > 1"
            )
        suites = [TestSuite.of(space, region) for region in regions]
        weights = probs.tolist()
        if total < 1.0 - 1e-12:
            suites.append(TestSuite.empty(space))
            weights.append(1.0 - total)
        self._space = space
        self._generator = EnumerableSuiteGenerator(
            space, suites, np.asarray(weights)
        )

    @property
    def generator(self) -> EnumerableSuiteGenerator:
        """The clarification process as an (enumerable) suite measure."""
        return self._generator

    def shared(self) -> SameSuite:
        """The paper's scenario: one clarification broadcast to all teams."""
        return SameSuite(self._generator)

    def per_team(self) -> IndependentSuites:
        """The counterfactual: each team discovers ambiguities on its own.

        Independent discovery is what the clarification *replaces*; the gap
        between the two regimes is the diversity cost of broadcasting.
        """
        return IndependentSuites(self._generator)


@dataclass(frozen=True)
class ClarificationEffect:
    """System-level effect of a clarification process.

    Attributes
    ----------
    untested_pfd:
        System pfd with no clarification at all.
    shared_pfd:
        System pfd when the clarification is broadcast to both teams
        (the paper's common-clarification scenario).
    per_team_pfd:
        System pfd when each team resolves its own (independently
        discovered) ambiguity.
    dependence_penalty:
        ``shared_pfd − per_team_pfd`` = ``E_Q[Var_T(ξ)]`` over the
        clarification measure; zero iff the clarification is deterministic.
    """

    untested_pfd: float
    shared_pfd: float
    per_team_pfd: float
    dependence_penalty: float

    @property
    def clarification_helps(self) -> bool:
        """True iff broadcasting still beats doing nothing."""
        return self.shared_pfd <= self.untested_pfd + 1e-15


def clarification_effect(
    process: ClarificationProcess,
    population: VersionPopulation,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
) -> ClarificationEffect:
    """Quantify a clarification process on a two-channel system.

    All three quantities are exact (the clarification measure is
    enumerable); the paper's eqs. (22)–(25) supply the decompositions.
    """
    population_b = population_b if population_b is not None else population
    theta_a = population.difficulty()
    theta_b = population_b.difficulty()
    untested = profile.expectation(theta_a * theta_b)
    shared = marginal_system_pfd(
        process.shared(), population, profile, population_b
    ).system_pfd
    per_team = marginal_system_pfd(
        process.per_team(), population, profile, population_b
    ).system_pfd
    return ClarificationEffect(
        untested_pfd=untested,
        shared_pfd=shared,
        per_team_pfd=per_team,
        dependence_penalty=shared - per_team,
    )
