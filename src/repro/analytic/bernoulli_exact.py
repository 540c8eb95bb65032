"""Closed forms for Bernoulli populations under i.i.d. operational suites.

Setting: a :class:`~repro.populations.BernoulliFaultPopulation` (fault ``f``
present with probability ``p_f``) tested with suites of ``n`` demands drawn
i.i.d. from the usage profile ``Q`` (an
:class:`~repro.testing.OperationalSuiteGenerator`).

Let ``Z_f = 1{suite misses region R_f}``; then ``P(Z_f = 1 for all f in H) =
(1 − Q(∪_{f∈H} R_f))ⁿ`` for any fault set ``H``.  A tested random version
fails on ``x`` iff some fault covering ``x`` is present *and* survives, so
with ``G_x`` the set of faults covering ``x``::

    ξ(x, T) = 1 − Π_{f∈G_x} (1 − p_f Z_f)

Expanding the product and taking expectations over the suite gives, for any
per-fault coefficients ``c_f`` (inclusion–exclusion over subsets ``H``)::

    E_T[ Π_{f∈G_x} (1 − c_f Z_f) ]
        = Σ_{H ⊆ G_x} Π_{f∈H} (−c_f) · (1 − Q(R_H))ⁿ

Three choices of ``c_f`` give every moment the paper's results need:

* ``c_f = p_f``                        → ``ζ(x) = 1 − E[Π]``        (eq. 14)
* ``c_f = 2 p_f − p_f²``               → ``E_T[ξ(x,T)²]``           (eq. 20)
* ``c_f = p_f^A + p_f^B − p_f^A p_f^B`` → ``E_T[ξ_A ξ_B]``          (eq. 21)

(the last two via ``(1 − a Z)(1 − b Z) = 1 − (a + b − ab) Z`` for binary
``Z``).  Demands sharing a cover share every term, so the engine groups
them by ``G_x`` and builds each distinct cover's ``2^k`` union masses
``Q(R_H)`` once, with a ``k``-step subset-sum transform: ``O(k·2^k)`` per
distinct cover of ``k`` faults, then ``O(2^k)`` per moment — exponential
only in the number of faults covering a single demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from ..demand import UsageProfile
from ..errors import ModelError
from ..faults import FaultUniverse
from ..populations import BernoulliFaultPopulation

__all__ = ["suite_miss_probability", "BernoulliExactEngine"]

_MAX_COVER = 22


def suite_miss_probability(
    profile: UsageProfile, region: Sequence[int] | np.ndarray, n_tests: int
) -> float:
    """``P(an n-demand i.i.d. suite misses the region) = (1 − Q(R))ⁿ``."""
    if n_tests < 0:
        raise ModelError(f"n_tests must be >= 0, got {n_tests}")
    mass = profile.mass_of(region)
    return float((1.0 - mass) ** n_tests)


class BernoulliExactEngine(object):
    """Exact suite-moment computations for one fault universe and profile.

    Parameters
    ----------
    universe:
        The fault universe shared by the populations of interest.
    profile:
        The usage profile ``Q`` from which suites draw demands i.i.d. and
        on which marginal quantities integrate.

    Notes
    -----
    The engine groups demands by cover and caches each distinct cover's
    ``1 − Q(R_H)`` for every ``H`` (see the module docstring).  Demands
    covered by more than ``max_cover`` faults with non-zero coefficients
    raise :class:`ModelError` — reformulate the model (fewer overlapping
    faults) or use Monte Carlo for such structures.
    """

    def __init__(
        self,
        universe: FaultUniverse,
        profile: UsageProfile,
        max_cover: int = _MAX_COVER,
    ) -> None:
        universe.space.require_same(profile.space)
        self._universe = universe
        self._profile = profile
        self._max_cover = max_cover
        # non-zero pattern -> [(demands, cover, 1 − Q(R_H) for every H ⊆ cover)],
        # which depends on neither the coefficients' values nor on ``n``
        self._groups: dict = {}

    def _expected_product(
        self, coefficients: np.ndarray, n_tests: int
    ) -> np.ndarray:
        """``E_T[Π_{f∈G_x}(1 − c_f Z_f)]`` per demand, for coefficients ``c``.

        Faults with zero coefficient are skipped (their factor is 1).  Per
        distinct cover: the signed products ``Π_{f∈H}(−c_f)``, built by
        doubling, dotted with ``(1 − Q(R_H))ⁿ``.
        """
        if n_tests < 0:
            raise ModelError(f"n_tests must be >= 0, got {n_tests}")
        out = np.ones(self._universe.space.size, dtype=np.float64)
        for demands, cover, miss_base in self._cover_groups(coefficients != 0.0):
            signed = np.ones(1 << len(cover), dtype=np.float64)
            for i, fault in enumerate(cover):
                signed[1 << i : 2 << i] = signed[: 1 << i] * -coefficients[fault]
            out[demands] = signed @ miss_base**n_tests
        return out

    def _cover_groups(self, nonzero: np.ndarray) -> list:
        """Demands grouped by their cover among the ``nonzero`` faults."""
        key = nonzero.tobytes()
        if key not in self._groups:
            cover_matrix = self._universe.coverage & nonzero[:, None]
            sizes = cover_matrix.sum(axis=0)
            if sizes.size and sizes.max() > self._max_cover:
                x = int(np.argmax(sizes > self._max_cover))
                raise ModelError(
                    f"demand {x} is covered by {sizes[x]} faults with non-zero "
                    f"coefficients; exceeds max_cover={self._max_cover}"
                )
            demands_of: dict = {}
            for x in np.flatnonzero(sizes):
                cover = tuple(np.flatnonzero(cover_matrix[:, x]))
                demands_of.setdefault(cover, []).append(x)
            self._groups[key] = [
                (np.array(demands), cover, self._miss_base(cover))
                for cover, demands in demands_of.items()
            ]
        return self._groups[key]

    def _miss_base(self, cover: tuple) -> np.ndarray:
        """``1 − Q(R_H)`` for every ``H ⊆ cover`` (bit ``i`` ↔ ``cover[i]``)."""
        k = len(cover)
        rows = self._universe.coverage[list(cover)]
        support = rows.any(axis=0)
        # mass[s]: the mass of the demands covered by exactly the faults in s
        mass = np.bincount(
            (1 << np.arange(k)) @ rows[:, support],
            weights=self._profile.probabilities[support],
            minlength=1 << k,
        )
        for i in range(k):  # subset-sum (zeta) transform: Σ_{s ⊆ t} mass[s]
            view = mass.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]
        # H misses exactly the support demands whose faults lie in ~H
        return 1.0 - (mass[-1] - mass[::-1])

    # ------------------------------------------------------------------
    # per-demand moments
    # ------------------------------------------------------------------
    def zeta(
        self, population: BernoulliFaultPopulation, n_tests: int
    ) -> np.ndarray:
        """Exact ``ζ(x)`` after an ``n_tests``-demand operational suite."""
        self._check_population(population)
        product = self._expected_product(population.presence_probs, n_tests)
        return np.clip(1.0 - product, 0.0, 1.0)

    def xi_second_moment(
        self, population: BernoulliFaultPopulation, n_tests: int
    ) -> np.ndarray:
        """Exact ``E_T[ξ(x,T)²]`` — the same-suite joint probability (eq. (20))."""
        self._check_population(population)
        p = population.presence_probs
        first = self._expected_product(p, n_tests)
        second = self._expected_product(2.0 * p - p**2, n_tests)
        return np.clip(1.0 - 2.0 * first + second, 0.0, 1.0)

    def xi_variance(
        self, population: BernoulliFaultPopulation, n_tests: int
    ) -> np.ndarray:
        """Exact ``Var_T(ξ(x,T))`` — the same-suite dependence excess."""
        zeta = self.zeta(population, n_tests)
        second = self.xi_second_moment(population, n_tests)
        return np.maximum(second - zeta**2, 0.0)

    def xi_cross_moment(
        self,
        population_a: BernoulliFaultPopulation,
        population_b: BernoulliFaultPopulation,
        n_tests: int,
    ) -> np.ndarray:
        """Exact ``E_T[ξ_A(x,T) ξ_B(x,T)]`` under one shared suite (eq. (21))."""
        self._check_population(population_a)
        self._check_population(population_b)
        pa = population_a.presence_probs
        pb = population_b.presence_probs
        first_a = self._expected_product(pa, n_tests)
        first_b = self._expected_product(pb, n_tests)
        mixed = self._expected_product(pa + pb - pa * pb, n_tests)
        return np.clip(1.0 - first_a - first_b + mixed, 0.0, 1.0)

    def xi_power_moment(
        self,
        population: BernoulliFaultPopulation,
        n_tests: int,
        power: int,
    ) -> np.ndarray:
        """Exact ``E_T[ξ(x,T)^k]`` — the ``k``-version same-suite joint.

        Generalises eq. (20) to a 1-out-of-``k`` system whose ``k`` channels
        are all drawn from this population and tested on one shared suite:
        conditionally on the suite the channels fail independently with
        probability ``ξ(x,t)`` each, so the joint is the ``k``-th moment of
        ``ξ`` over the suite measure.  Uses the binomial expansion
        ``(1-P)^k`` with ``E[P^j]`` evaluated via per-fault coefficients
        ``1 − (1−p_f)^j`` (since ``Z_f`` is binary).
        """
        if power < 1:
            raise ModelError(f"power must be >= 1, got {power}")
        self._check_population(population)
        p = population.presence_probs
        total = np.zeros(self._universe.space.size, dtype=np.float64)
        for j in range(power + 1):
            coefficients = 1.0 - (1.0 - p) ** j
            term = self._expected_product(coefficients, n_tests)
            total += comb(power, j) * (-1.0) ** j * term
        return np.clip(total, 0.0, 1.0)

    def xi_covariance(
        self,
        population_a: BernoulliFaultPopulation,
        population_b: BernoulliFaultPopulation,
        n_tests: int,
    ) -> np.ndarray:
        """Exact ``Cov_T(ξ_A(x,T), ξ_B(x,T))`` per demand — either sign."""
        cross = self.xi_cross_moment(population_a, population_b, n_tests)
        zeta_a = self.zeta(population_a, n_tests)
        zeta_b = self.zeta(population_b, n_tests)
        return cross - zeta_a * zeta_b

    # ------------------------------------------------------------------
    # marginal (system-level) quantities: eqs. (22)-(25)
    # ------------------------------------------------------------------
    def version_pfd(
        self, population: BernoulliFaultPopulation, n_tests: int
    ) -> float:
        """``E_Q[ζ(X)]`` — mean post-test pfd of one tested version."""
        return self._profile.expectation(self.zeta(population, n_tests))

    def system_pfd_independent_suites(
        self,
        population_a: BernoulliFaultPopulation,
        n_tests: int,
        population_b: BernoulliFaultPopulation | None = None,
    ) -> float:
        """Eq. (22)/(24): system pfd with independently drawn suites."""
        population_b = population_b if population_b is not None else population_a
        zeta_a = self.zeta(population_a, n_tests)
        zeta_b = (
            zeta_a
            if population_b is population_a
            else self.zeta(population_b, n_tests)
        )
        return self._profile.expectation(zeta_a * zeta_b)

    def system_pfd_same_suite(
        self,
        population_a: BernoulliFaultPopulation,
        n_tests: int,
        population_b: BernoulliFaultPopulation | None = None,
    ) -> float:
        """Eq. (23)/(25): system pfd with one shared suite."""
        population_b = population_b if population_b is not None else population_a
        if population_b is population_a:
            joint = self.xi_second_moment(population_a, n_tests)
        else:
            joint = self.xi_cross_moment(population_a, population_b, n_tests)
        return self._profile.expectation(joint)

    def system_pfd_same_suite_n_versions(
        self,
        population: BernoulliFaultPopulation,
        n_tests: int,
        n_versions: int,
    ) -> float:
        """Marginal 1-out-of-``n`` system pfd under one shared suite.

        ``E_Q[E_T[ξ(X,T)^n]]`` — the n-channel generalisation of eq. (23).
        """
        return self._profile.expectation(
            self.xi_power_moment(population, n_tests, n_versions)
        )

    def system_pfd_independent_suites_n_versions(
        self,
        population: BernoulliFaultPopulation,
        n_tests: int,
        n_versions: int,
    ) -> float:
        """Marginal 1-out-of-``n`` system pfd with per-channel suites.

        ``E_Q[ζ(X)^n]`` — the n-channel generalisation of eq. (22).
        """
        if n_versions < 1:
            raise ModelError(f"n_versions must be >= 1, got {n_versions}")
        zeta = self.zeta(population, n_tests)
        return self._profile.expectation(zeta**n_versions)

    def _check_population(self, population: BernoulliFaultPopulation) -> None:
        if population.universe is not self._universe:
            raise ModelError(
                "population is defined over a different fault universe"
            )
