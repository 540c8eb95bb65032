"""Tested-population quantities — the paper's §3 definitions (12)–(14).

For a version population with measure ``S``, a suite measure ``M`` and
perfect detection/fixing:

* ``ς(π, x) = Σ_Ξ υ(π, x, t) M(t)``  — eq. (12): failure probability of a
  *particular* version on ``x`` under a random suite;
* ``ξ(x, t) = Σ_℘ υ(π, x, t) S(π)``  — eq. (13): failure probability of a
  random version on ``x`` after testing with a *particular* suite;
* ``η(π, t) = Σ_F υ(π, x, t) Q(x)``  — per-version post-test unreliability;
* ``ζ(x) = E_{S,M}[υ(Π, x, T)]``      — eq. (14): the tested counterpart of
  the difficulty function, with ``θ(x) ≥ ζ(x)`` demand-wise.

The same machinery yields the suite-moment vectors the joint-failure results
need: ``E_T[ξ(x,T)²]`` (eq. (20)) and ``E_T[ξ_A(x,T) ξ_B(x,T)]`` (eq. (21)).

Exactness policy for ``ζ`` and these moments, in order: *enumerable*
measures (``generator.enumerate()``) are finite sums; else Bernoulli
populations on one universe under an i.i.d. profile-drawn suite (exactly an
:class:`~repro.testing.OperationalSuiteGenerator` or
:class:`~repro.testing.WeightedDebugGenerator`) use the *closed form* of
:class:`~repro.analytic.BernoulliExactEngine` when it accepts their fault
cover; else ``n_suites`` *sampled* suites (seed ``rng`` to reproduce).  The
first two report ``exact=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..analytic.bernoulli_exact import BernoulliExactEngine
from ..demand import UsageProfile
from ..errors import ModelError, NotEnumerableError
from ..populations import BernoulliFaultPopulation, VersionPopulation
from ..rng import as_generator
from ..testing import (
    OperationalSuiteGenerator,
    SuiteGenerator,
    TestSuite,
    WeightedDebugGenerator,
    apply_testing,
)
from ..types import SeedLike
from ..versions import Version

__all__ = ["SuiteMoments", "TestedPopulationView", "cross_suite_moments"]

_DEFAULT_SUITE_SAMPLES = 512
# suites per tested_difficulty_matrix call in the moment reductions
_SUITE_BLOCK = 256


@dataclass(frozen=True)
class SuiteMoments:
    """First and second moments of ``ξ(x, T)`` over the suite measure.

    Attributes
    ----------
    zeta:
        ``ζ(x) = E_T[ξ(x,T)]`` per demand — eq. (14).
    second_moment:
        ``E_T[ξ(x,T)²]`` per demand — the same-suite joint probability of
        eq. (20).
    exact:
        True when integrated exactly (enumeration or closed form), False
        when estimated from sampled suites.
    """

    zeta: np.ndarray
    second_moment: np.ndarray
    exact: bool

    @property
    def variance(self) -> np.ndarray:
        """``Var_T(ξ(x,T))`` per demand — the dependence induced by a common suite."""
        return np.maximum(self.second_moment - self.zeta**2, 0.0)


@dataclass(frozen=True)
class CrossSuiteMoments:
    """Joint moments of ``(ξ_A(x,T), ξ_B(x,T))`` under one shared suite draw.

    Attributes
    ----------
    zeta_a, zeta_b:
        Per-methodology tested difficulty functions.
    cross_moment:
        ``E_T[ξ_A(x,T) ξ_B(x,T)]`` per demand — eq. (21) joint probability.
    exact:
        As in :class:`SuiteMoments`.
    """

    zeta_a: np.ndarray
    zeta_b: np.ndarray
    cross_moment: np.ndarray
    exact: bool

    @property
    def covariance(self) -> np.ndarray:
        """``Cov_T(ξ_A(x,T), ξ_B(x,T))`` per demand — may take either sign."""
        return self.cross_moment - self.zeta_a * self.zeta_b


class TestedPopulationView(object):
    """A version population viewed through a testing process.

    Parameters
    ----------
    population:
        The development measure ``S`` (must compute ``ξ(x, t)`` exactly;
        both provided populations do).
    generator:
        The suite measure ``M``.

    Notes
    -----
    Exactness policy: as in the module docstring — enumerable, then closed
    form, then ``n_suites`` sampled suites; :meth:`varsigma` has no closed
    form.  The returned moment objects record whether they are exact.
    """

    __test__ = False  # prevent pytest collection (library class)

    def __init__(
        self, population: VersionPopulation, generator: SuiteGenerator
    ) -> None:
        population.space.require_same(generator.space)
        self._population = population
        self._generator = generator

    @property
    def population(self) -> VersionPopulation:
        """The underlying development measure ``S``."""
        return self._population

    @property
    def generator(self) -> SuiteGenerator:
        """The underlying suite measure ``M``."""
        return self._generator

    # ------------------------------------------------------------------
    # the paper's per-object quantities
    # ------------------------------------------------------------------
    def xi(self, suite: TestSuite) -> np.ndarray:
        """``ξ(x, t)`` for a fixed suite — eq. (13), exact."""
        return self._population.tested_difficulty(suite.unique_demands)

    def varsigma(
        self,
        version: Version,
        n_suites: int = _DEFAULT_SUITE_SAMPLES,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """``ς(π, x)`` for a fixed version — eq. (12), per demand.

        Exact when the suite measure is enumerable, else a suite-sampling
        estimate with ``n_suites`` draws.
        """
        suites, weights, _ = _suite_measure(self._generator, n_suites, rng)
        accumulator = np.zeros(self._population.space.size, dtype=np.float64)
        for suite, weight in zip(suites, weights):
            outcome = apply_testing(version, suite)
            accumulator += weight * outcome.after.failure_mask
        return accumulator

    def eta(self, version: Version, suite: TestSuite, profile: UsageProfile) -> float:
        """``η(π, t)`` — post-test unreliability of one version, one suite."""
        outcome = apply_testing(version, suite)
        return outcome.after.pfd(profile)

    def suite_moments(
        self,
        n_suites: int = _DEFAULT_SUITE_SAMPLES,
        rng: SeedLike = None,
    ) -> SuiteMoments:
        """``ζ(x)`` and ``E_T[ξ(x,T)²]`` in one pass over the suite measure."""
        (first,), second, exact = _xi_moments(
            (self._population,), self._generator, n_suites, rng
        )
        return SuiteMoments(first, second, exact=exact)

    def zeta(
        self,
        n_suites: int = _DEFAULT_SUITE_SAMPLES,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """``ζ(x)`` — eq. (14), the tested difficulty function."""
        return self.suite_moments(n_suites=n_suites, rng=rng).zeta

    def efficiency(
        self,
        n_suites: int = _DEFAULT_SUITE_SAMPLES,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """``θ(x) − ζ(x)`` per demand — the paper's testing-efficiency gap.

        Non-negative everywhere (testing cannot make a random version worse
        under perfect detection/fixing); identically zero for a useless
        suite measure.
        """
        theta = self._population.difficulty()
        zeta = self.zeta(n_suites=n_suites, rng=rng)
        return theta - zeta

    def marginal_pfd(
        self,
        profile: UsageProfile,
        n_suites: int = _DEFAULT_SUITE_SAMPLES,
        rng: SeedLike = None,
    ) -> float:
        """``E_Q[ζ(X)]`` — mean post-test unreliability of a random version."""
        return profile.expectation(self.zeta(n_suites=n_suites, rng=rng))


def cross_suite_moments(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    generator: SuiteGenerator,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
) -> CrossSuiteMoments:
    """Moments of ``(ξ_A(x,T), ξ_B(x,T))`` under one shared suite draw.

    The eq. (21) ingredients for the same-suite, forced-design-diversity
    regime: both methodologies' tested difficulties are evaluated on the
    *same* suite realisation, which is exactly what couples the channels.
    """
    population_a.space.require_same(generator.space)
    population_b.space.require_same(generator.space)
    (first_a, first_b), cross, exact = _xi_moments(
        (population_a, population_b), generator, n_suites, rng
    )
    return CrossSuiteMoments(first_a, first_b, cross, exact)


def _suite_measure(
    generator: SuiteGenerator, n_suites: int, rng: SeedLike
) -> Tuple[List[TestSuite], np.ndarray, bool]:
    """The suite measure as ``(suites, weights, exact)``.

    The support with its probabilities when ``generator`` is enumerable,
    else ``n_suites`` equally weighted draws from
    :meth:`SuiteGenerator.sample_many` (one spawned stream per suite).
    """
    try:
        pairs = list(generator.enumerate())
    except NotEnumerableError:
        pairs = None
    if pairs is not None:
        suites = [suite for suite, _ in pairs]
        weights = np.array([probability for _, probability in pairs])
        return suites, weights, True
    if n_suites < 1:
        raise ModelError(f"n_suites must be >= 1, got {n_suites}")
    suites = generator.sample_many(n_suites, as_generator(rng))
    return suites, np.full(n_suites, 1.0 / n_suites), False


def _closed_form_moments(
    populations: Sequence[VersionPopulation], generator: SuiteGenerator
) -> Tuple[List[np.ndarray], np.ndarray, bool] | None:
    """:func:`_xi_moments` through :class:`~repro.analytic.BernoulliExactEngine`.

    ``None`` unless the populations are Bernoulli on one universe, the
    generator is exactly an operational or weighted-debug generator (a
    subclass may override the measure) and the engine accepts every
    demand's fault cover.  The engine runs on the generator's draw profile:
    ``ζ`` and the ξ moments depend only on the suite law.
    """
    if type(generator) not in (OperationalSuiteGenerator, WeightedDebugGenerator):
        return None
    universe = populations[0].universe
    if any(
        type(population) is not BernoulliFaultPopulation
        or population.universe is not universe
        for population in populations
    ):
        return None
    engine = BernoulliExactEngine(universe, generator.profile)
    size = generator.size
    try:
        firsts = [engine.zeta(population, size) for population in populations]
        if len(populations) == 1:
            cross = engine.xi_second_moment(populations[0], size)
        else:
            cross = engine.xi_cross_moment(populations[0], populations[-1], size)
    except ModelError:
        # some demand's fault cover exceeds the engine's max_cover
        return None
    return firsts, cross, True


def _xi_moments(
    populations: Sequence[VersionPopulation],
    generator: SuiteGenerator,
    n_suites: int,
    rng: SeedLike,
) -> Tuple[List[np.ndarray], np.ndarray, bool]:
    """Each population's ``E_T[ξ(x,T)]``, ``E_T[ξ_first ξ_last]`` and
    whether they are exact.

    The cross moment is ``E_T[ξ(x,T)²]`` for one population.  The
    closed-form generators never enumerate, so trying the closed form
    first keeps the module's exactness order.  Other measures go through
    :meth:`VersionPopulation.tested_difficulty_matrix` ``_SUITE_BLOCK``
    suites at a time.
    """
    closed = _closed_form_moments(populations, generator)
    if closed is not None:
        return closed
    suites, weights, exact = _suite_measure(generator, n_suites, rng)
    size = populations[0].space.size
    firsts = [np.zeros(size, dtype=np.float64) for _ in populations]
    cross = np.zeros(size, dtype=np.float64)
    for start in range(0, len(suites), _SUITE_BLOCK):
        block = suites[start : start + _SUITE_BLOCK]
        block_weights = weights[start : start + _SUITE_BLOCK]
        masks = np.stack([suite.mask() for suite in block])
        xis = [
            population.tested_difficulty_matrix(masks) for population in populations
        ]
        for first, xi in zip(firsts, xis):
            first += block_weights @ xi
        cross += block_weights @ (xis[0] * xis[-1])
    return firsts, cross, exact
