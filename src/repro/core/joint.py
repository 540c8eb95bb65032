"""Joint failure probability on a fixed demand — eqs. (15)–(21).

:func:`joint_failure_probability` evaluates, for any regime and population
pair, the per-demand probability that *both tested versions fail*, together
with its decomposition into the independence part (product of tested
difficulties) and the dependence excess (variance or covariance over the
suite measure).  The decomposition is the paper's analytical story: the
excess is identically zero for independent-draw regimes and equals
``Var_T(ξ)`` / ``Cov_T(ξ_A, ξ_B)`` for the shared-suite regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..populations import VersionPopulation
from ..rng import as_generator, spawn_many
from ..types import SeedLike
from .regimes import (
    ForcedTestingDiversity,
    IndependentSuites,
    SameSuite,
    TestingRegime,
)
from .tested import TestedPopulationView, cross_suite_moments

__all__ = ["JointFailureDecomposition", "joint_failure_probability"]

_DEFAULT_SUITE_SAMPLES = 512


@dataclass(frozen=True)
class JointFailureDecomposition:
    """Per-demand decomposition of the post-test joint failure probability.

    Attributes
    ----------
    joint:
        ``P(both tested versions fail on x)`` per demand.
    independence_part:
        ``ζ₁(x) ζ₂(x)`` — the conditional-independence prediction.
    excess:
        ``joint − independence_part``: zero for independent-suite regimes,
        ``Var_T(ξ(x,T))`` for same-suite/same-population (eq. (20)),
        ``Cov_T(ξ_A(x,T), ξ_B(x,T))`` for same-suite/forced design (eq. (21)).
    zeta_a, zeta_b:
        The two channels' tested difficulty functions.
    regime_label:
        Human-readable regime name.
    exact:
        True when suite-measure integration was exact (enumeration or the
        Bernoulli closed form; see :mod:`repro.core.tested`).
    """

    joint: np.ndarray
    independence_part: np.ndarray
    excess: np.ndarray
    zeta_a: np.ndarray
    zeta_b: np.ndarray
    regime_label: str
    exact: bool

    def joint_on(self, demand: int) -> float:
        """Joint failure probability on one demand."""
        return float(self.joint[demand])

    @property
    def max_excess(self) -> float:
        """Largest per-demand dependence excess."""
        return float(self.excess.max(initial=0.0))

    @property
    def conditional_independence_holds(self) -> bool:
        """True iff the excess vanishes on every demand (within tolerance)."""
        return bool(np.all(np.abs(self.excess) <= 1e-12))


def joint_failure_probability(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation | None = None,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
) -> JointFailureDecomposition:
    """Evaluate eqs. (16)–(21) for the given regime and populations.

    Parameters
    ----------
    regime:
        The testing regime (suite sharing structure).
    population_a:
        Channel A's development measure.
    population_b:
        Channel B's development measure; omit (or pass the same object) for
        the single-methodology setting.
    n_suites:
        Suite draws when the moments have neither an enumerable measure
        nor a closed form.
    rng:
        Randomness for the sampling path.

    Returns
    -------
    JointFailureDecomposition
        Joint probability with its independence/excess decomposition.
    """
    population_b = population_b if population_b is not None else population_a
    rng = as_generator(rng)

    if isinstance(regime, SameSuite):
        if population_b is population_a:
            moments = TestedPopulationView(
                population_a, regime.generator
            ).suite_moments(n_suites=n_suites, rng=rng)
            joint = moments.second_moment
            zeta_a = moments.zeta
            zeta_b = moments.zeta
            exact = moments.exact
        else:
            cross = cross_suite_moments(
                population_a,
                population_b,
                regime.generator,
                n_suites=n_suites,
                rng=rng,
            )
            joint = cross.cross_moment
            zeta_a = cross.zeta_a
            zeta_b = cross.zeta_b
            exact = cross.exact
    elif isinstance(regime, IndependentSuites):
        stream_a, stream_b = spawn_many(rng, 2)
        view_a = TestedPopulationView(population_a, regime.generator)
        moments_a = view_a.suite_moments(n_suites=n_suites, rng=stream_a)
        zeta_a = moments_a.zeta
        if population_b is population_a:
            zeta_b = zeta_a
            exact = moments_a.exact
        else:
            moments_b = TestedPopulationView(
                population_b, regime.generator
            ).suite_moments(n_suites=n_suites, rng=stream_b)
            zeta_b = moments_b.zeta
            exact = moments_a.exact and moments_b.exact
        joint = zeta_a * zeta_b
    elif isinstance(regime, ForcedTestingDiversity):
        stream_a, stream_b = spawn_many(rng, 2)
        moments_a = TestedPopulationView(
            population_a, regime.generator_a
        ).suite_moments(n_suites=n_suites, rng=stream_a)
        moments_b = TestedPopulationView(
            population_b, regime.generator_b
        ).suite_moments(n_suites=n_suites, rng=stream_b)
        zeta_a = moments_a.zeta
        zeta_b = moments_b.zeta
        joint = zeta_a * zeta_b
        exact = moments_a.exact and moments_b.exact
    else:
        raise TypeError(f"unknown testing regime: {type(regime).__name__}")

    independence = zeta_a * zeta_b
    return JointFailureDecomposition(
        joint=joint,
        independence_part=independence,
        excess=joint - independence,
        zeta_a=zeta_a,
        zeta_b=zeta_b,
        regime_label=regime.label,
        exact=exact,
    )
