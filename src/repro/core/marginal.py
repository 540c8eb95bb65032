"""Marginal system probability of failure — eqs. (22)–(25).

The marginal pfd of a 1-out-of-2 system built from two tested versions is
the usage-weighted integral of the per-demand joint failure probability.
The paper decomposes it differently per regime:

* independent suites, same population (eq. (22))::

      P = E_Q[ζ(X)²] = E[Θ_T]² + Var(Θ_T)

* same suite, same population (eq. (23))::

      P = E_Q[ζ(X)² + Var_T(ξ(X,T))]
        = E[Θ_T]² + Var(Θ_T) + E_Q[Var_T(ξ(X,T))]   ≥ eq. (22)

* independent suites, forced design diversity (eq. (24))::

      P = E[Θ_TA] E[Θ_TB] + Cov(Θ_TA, Θ_TB)

* same suite, forced design diversity (eq. (25))::

      P = eq. (24) + E_Q[Cov_T(ξ_A(X,T), ξ_B(X,T))]

where ``Θ_T = ζ(X)`` is the tested difficulty evaluated at a random demand.
:func:`marginal_system_pfd` returns all the pieces so experiments can verify
each decomposition term separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..demand import UsageProfile
from ..populations import VersionPopulation
from ..types import SeedLike
from .joint import joint_failure_probability
from .regimes import TestingRegime

__all__ = ["MarginalDecomposition", "marginal_system_pfd"]

_DEFAULT_SUITE_SAMPLES = 512


@dataclass(frozen=True)
class MarginalDecomposition:
    """The marginal system pfd and the paper's decomposition terms.

    Attributes
    ----------
    system_pfd:
        ``P(both tested versions fail on X)`` — the 1-out-of-2 system pfd.
    independence_product:
        ``E[Θ_TA] · E[Θ_TB]`` — the naive "independent channels" predictor
        built from the two marginal pfds.
    difficulty_covariance:
        ``Cov(Θ_TA, Θ_TB)`` over demands — ``Var(Θ_T)`` in the
        same-population case.  This is the *EL/LM-style* penalty that
        exists even with independent suites.
    suite_dependence:
        ``E_Q[Cov_T(ξ_A(X,T), ξ_B(X,T))]`` — the *testing-induced* penalty;
        zero unless the channels share the suite.  Equals
        ``E_Q[Var_T(ξ(X,T))]`` in the same-population case.
    pfd_a, pfd_b:
        Marginal post-test pfds of the channels, ``E[Θ_TA]``, ``E[Θ_TB]``.
    regime_label, exact:
        Provenance, as in the joint decomposition.
    """

    system_pfd: float
    independence_product: float
    difficulty_covariance: float
    suite_dependence: float
    pfd_a: float
    pfd_b: float
    regime_label: str
    exact: bool

    @property
    def conditional_independence_pfd(self) -> float:
        """``E_Q[ζ_A(X) ζ_B(X)]`` — the eq. (22)/(24) prediction.

        What the system pfd *would* be if the channels were tested
        independently (conditional independence preserved).
        """
        return (
            self.independence_product + self.difficulty_covariance
        )

    def reconstructed(self) -> float:
        """Re-assemble the pfd from its parts (consistency check)."""
        return (
            self.independence_product
            + self.difficulty_covariance
            + self.suite_dependence
        )

    def conditional_prob_a_fails_given_b_failed(self) -> float:
        """``P(tested Π_A fails | tested Π_B failed on X)``.

        The post-testing analogue of eqs. (7)/(10): the system pfd divided
        by channel B's marginal pfd.  Exceeds ``pfd_a`` whenever the
        combined dependence (difficulty covariance plus suite-induced
        covariance) is positive — the operational meaning of "the versions
        have been made more alike".

        Raises
        ------
        ProbabilityError
            If channel B never fails (nothing to condition on).
        """
        from ..errors import ProbabilityError

        if self.pfd_b <= 0.0:
            raise ProbabilityError(
                "conditional probability undefined: tested channel B "
                "never fails"
            )
        return self.system_pfd / self.pfd_b

    def dependence_amplification(self) -> float:
        """``P(A fails | B failed) / P(A fails)`` for the tested pair.

        1 means the channels fail independently; the paper's results say
        this exceeds 1 for same-population pairs (eq. (22)) and grows
        further under a shared suite (eq. (23)).  Returns 1 for a
        never-failing system (no dependence to amplify).
        """
        if self.pfd_a <= 0.0 or self.pfd_b <= 0.0:
            return 1.0
        return self.conditional_prob_a_fails_given_b_failed() / self.pfd_a


def marginal_system_pfd(
    regime: TestingRegime,
    population_a: VersionPopulation,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
) -> MarginalDecomposition:
    """Evaluate eqs. (22)–(25) for the given regime, populations and profile.

    Parameters
    ----------
    regime:
        Suite-sharing structure of the testing process.
    population_a, population_b:
        Development measures for the two channels (one for both if
        ``population_b`` is omitted).
    profile:
        The usage measure ``Q`` defining the random demand.
    n_suites, rng:
        Sampling controls for suite moments with neither an enumerable
        measure nor a closed form.
    """
    population_a.space.require_same(profile.space)
    decomposition = joint_failure_probability(
        regime,
        population_a,
        population_b,
        n_suites=n_suites,
        rng=rng,
    )
    system_pfd = profile.expectation(decomposition.joint)
    pfd_a = profile.expectation(decomposition.zeta_a)
    pfd_b = profile.expectation(decomposition.zeta_b)
    covariance = profile.covariance(decomposition.zeta_a, decomposition.zeta_b)
    suite_dependence = profile.expectation(decomposition.excess)
    return MarginalDecomposition(
        system_pfd=system_pfd,
        independence_product=pfd_a * pfd_b,
        difficulty_covariance=covariance,
        suite_dependence=suite_dependence,
        pfd_a=pfd_a,
        pfd_b=pfd_b,
        regime_label=decomposition.regime_label,
        exact=decomposition.exact,
    )
