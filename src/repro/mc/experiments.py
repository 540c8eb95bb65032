"""Full-pipeline Monte-Carlo experiments.

Each function simulates the complete generative story of the paper — the
randomness of development (``S``), of test generation (``M``) with the
regime's coupling, and (optionally) of usage (``Q``) — and estimates the
probability the analytic layer predicts.  Nothing here reuses the analytic
shortcuts: versions are actually drawn, actually tested, and actually
scored, so agreement with :mod:`repro.core` / :mod:`repro.analytic` is a
genuine end-to-end validation.

Every estimator runs on the chunked replication blocks of
:mod:`repro.mc.batch`: whole blocks of versions, suites and scores as
matrix kernels, deterministic in ``(rng, chunk_size)`` and invariant to
``n_jobs``.  The oracle/fixing pair selects the testing plan: the §3
perfect closure, the §4.1 binomial-detection kernel for
:class:`~repro.testing.ImperfectOracle` /
:class:`~repro.testing.ImperfectFixing`, the blind-spot and coverage
closures for their matched pairs, and for any other pair the per-row plan,
which runs the pair's own :func:`~repro.testing.apply_testing` on each row
of the same drawn blocks.

Every estimator also accepts ``precision=`` — a
:class:`repro.adaptive.PrecisionTarget` (or a mapping of its fields).
When set, the fixed ``n_replications`` becomes a *budget default* and the
adaptive precision engine (:mod:`repro.adaptive`) runs escalating rounds
of the same chunks until the target half-width is met, returning the same
estimator type (with the :class:`~repro.adaptive.AdaptiveReport` attached
as an ``adaptive`` attribute).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence, Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import ModelError
from ..populations import VersionPopulation
from ..testing import FixingPolicy, Oracle, SuiteGenerator
from ..types import SeedLike
from ..core.regimes import TestingRegime
from .batch import (
    _accumulate_mean,
    _accumulate_proportion,
    _chunk_marginal,
    _chunk_tested_joint,
    _chunk_untested_joint,
    _chunk_version_pfd,
    _run_budget,
    _testing_plan,
)
from .estimator import MeanEstimator, ProportionEstimator

__all__ = [
    "simulate_untested_joint_on_demand",
    "simulate_joint_on_demand",
    "simulate_marginal_system_pfd",
    "simulate_version_pfd",
]

_DEFAULT_REPLICATIONS = 2000


def _check_replications(n_replications: int) -> None:
    if n_replications < 1:
        raise ModelError(f"n_replications must be >= 1, got {n_replications}")


def _coerce_precision(precision):
    """Normalise a ``precision=`` argument (``None`` stays ``None``)."""
    from ..adaptive.targets import PrecisionTarget

    return PrecisionTarget.coerce(precision)


def simulate_untested_joint_on_demand(
    population_a: VersionPopulation,
    demand: int,
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> ProportionEstimator:
    """Estimate ``P(both untested versions fail on x)`` — eq. (4) check.

    Version pairs are drawn as two fault-matrix blocks and scored on the
    fixed demand by one boolean gather each.  The analytic prediction is
    ``θ_A(x) θ_B(x)`` (and ``E[Θ²] ≥ E[Θ]²``, the Eckhardt–Lee inequality
    of eqs. (6)–(7)).
    """
    target = _coerce_precision(precision)
    if target is not None:
        from ..adaptive.controller import adaptive_untested_joint_on_demand

        report = adaptive_untested_joint_on_demand(
            population_a,
            demand,
            target,
            population_b=population_b,
            rng=rng,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
            default_budget=n_replications,
        )
        return report.only.as_estimator(report)
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    kernel = partial(_chunk_untested_joint, population_a, population_b, demand)
    return _accumulate_proportion(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )


def simulate_joint_on_demand(
    regime: TestingRegime,
    population_a: VersionPopulation,
    demand: int | Sequence[int],
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> ProportionEstimator | Tuple[ProportionEstimator, ...]:
    """Estimate ``P(both tested versions fail on x)`` — eqs. (16)–(21) check.

    Each replication: draw a version pair, draw the suite pair per the
    regime's coupling (shared for :class:`~repro.core.SameSuite`,
    independent otherwise — precisely the coupling that separates
    eqs. (20)/(21) from (16)–(19)), test each channel (perfect testing
    unless an oracle or fixing policy is supplied), then score both tested
    versions on the fixed demand.

    A sequence of demands returns a tuple of (dependent) estimators from
    the same replications, estimator ``j`` equal to the single-demand run
    on ``demand[j]`` at the same ``rng``; ``precision=`` takes one demand.
    """
    target = _coerce_precision(precision)
    single = np.ndim(demand) == 0
    if target is not None:
        if not single:
            raise ModelError("precision= takes one demand, not a sequence")
        from ..adaptive.controller import adaptive_joint_on_demand

        report = adaptive_joint_on_demand(
            regime,
            population_a,
            demand,
            target,
            population_b=population_b,
            oracle=oracle,
            fixing=fixing,
            rng=rng,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
            default_budget=n_replications,
        )
        return report.only.as_estimator(report)
    demands = [population_a.space.validate_demand(d) for d in np.atleast_1d(demand)]
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    kernel = partial(
        _chunk_tested_joint,
        regime,
        population_a,
        population_b,
        demands,
        _testing_plan(oracle, fixing),
    )
    results = _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    estimators = tuple(
        _accumulate_proportion([(hits[j], n) for hits, n in results])
        for j in range(len(demands))
    )
    return estimators[0] if single else estimators


def simulate_marginal_system_pfd(
    regime: TestingRegime,
    population_a: VersionPopulation,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    rao_blackwell: bool = True,
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> MeanEstimator:
    """Estimate the marginal system pfd — eqs. (22)–(25) check.

    Per chunk, both channels' post-test failure matrices give the joint
    failure mask.  With ``rao_blackwell=True`` (default) the random demand
    is integrated out exactly given the realised tested pair: the
    per-replication observation is ``Q(joint failure set)``, which
    estimates the same quantity with strictly smaller variance than
    drawing ``X`` (a standard conditioning argument).  Set it to ``False``
    to simulate the raw 0/1 outcome on a drawn demand instead.
    """
    population_a.space.require_same(profile.space)
    if population_b is not None:
        population_b.space.require_same(profile.space)
    target = _coerce_precision(precision)
    if target is not None:
        if not rao_blackwell:
            raise ModelError(
                "precision-targeted estimation is always Rao-Blackwellised; "
                "rao_blackwell=False cannot be combined with precision="
            )
        from ..adaptive.controller import adaptive_marginal_system_pfd

        report = adaptive_marginal_system_pfd(
            regime,
            population_a,
            profile,
            target,
            population_b=population_b,
            oracle=oracle,
            fixing=fixing,
            rng=rng,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
            default_budget=n_replications,
        )
        return report.only.as_estimator(report)
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    kernel = partial(
        _chunk_marginal,
        regime,
        population_a,
        population_b,
        profile,
        rao_blackwell,
        _testing_plan(oracle, fixing),
    )
    return _accumulate_mean(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )


def simulate_version_pfd(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> MeanEstimator:
    """Estimate the mean post-test pfd of a single tested version.

    Each chunk tests a fault-matrix block against a suite block and scores
    the survivors against ``Q`` in one matrix-vector product.  The
    analytic prediction under perfect testing is ``E_Q[ζ(X)]`` (eq. (14)
    integrated over the usage profile).
    """
    target = _coerce_precision(precision)
    if target is not None:
        from ..adaptive.controller import adaptive_version_pfd

        report = adaptive_version_pfd(
            population,
            generator,
            profile,
            target,
            oracle=oracle,
            fixing=fixing,
            rng=rng,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
            default_budget=n_replications,
        )
        return report.only.as_estimator(report)
    _check_replications(n_replications)
    population.space.require_same(profile.space)
    kernel = partial(
        _chunk_version_pfd,
        population,
        generator,
        profile,
        _testing_plan(oracle, fixing),
    )
    return _accumulate_mean(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )
