"""Full-pipeline Monte-Carlo experiments.

Each function simulates the complete generative story of the paper — the
randomness of development (``S``), of test generation (``M``) with the
regime's coupling, and (optionally) of usage (``Q``) — and estimates the
probability the analytic layer predicts.  Nothing here reuses the analytic
shortcuts: versions are actually drawn, actually tested, and actually
scored, so agreement with :mod:`repro.core` / :mod:`repro.analytic` is a
genuine end-to-end validation.

Each estimator runs on one of two backends:

* ``"batch"`` — the vectorized replication engine of
  :mod:`repro.mc.batch`: whole blocks of versions, suites and scores as
  matrix kernels.  Covers the §3 perfect process, the §4.1
  :class:`~repro.testing.ImperfectOracle` /
  :class:`~repro.testing.ImperfectFixing` relaxations (binomial detection
  counts + Bernoulli survival masks) and matched blind-spot and coverage
  pairs.
* ``"scalar"`` — the original per-replication Python loop: the reference
  implementation the batch path is validated against, and the only engine
  for *custom* oracle/fixing policies, whose per-demand dynamics the batch
  kernels cannot introspect.

The ``engine=`` argument takes one of the three names in :data:`ENGINES`,
and one seam, :func:`resolve_engine`, maps a name to a backend for every
driver here and for :func:`repro.core.bounds.back_to_back_envelope` and
:meth:`repro.extensions.DevelopmentCampaign.mean_final_system_pfd_estimator`.
The two backend names select themselves (``"batch"`` failing loudly when
the call's model has no batch kernel).  The default ``"auto"`` picks the
batch path whenever :func:`repro.mc.batch.batch_supported` accepts the
testing process and the scalar loop otherwise.

Every estimator also accepts ``precision=`` — a
:class:`repro.adaptive.PrecisionTarget` (or a mapping of its fields).
When set, the fixed ``n_replications`` becomes a *budget default* and the
adaptive precision engine (:mod:`repro.adaptive`) runs escalating rounds
until the target half-width is met, returning the same estimator type
(with the :class:`~repro.adaptive.AdaptiveReport` attached as an
``adaptive`` attribute).  Adaptive runs always use the batch kernels, so
``engine="scalar"`` and custom oracle/fixing policies are rejected with
``precision=``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import ModelError
from ..populations import VersionPopulation
from ..rng import as_generator, spawn_many
from ..testing import FixingPolicy, Oracle, SuiteGenerator, apply_testing
from ..types import SeedLike
from ..core.regimes import TestingRegime
from .estimator import MeanEstimator, ProportionEstimator

__all__ = [
    "ENGINES",
    "check_engine",
    "simulate_untested_joint_on_demand",
    "simulate_joint_on_demand",
    "simulate_marginal_system_pfd",
    "simulate_version_pfd",
]

_DEFAULT_REPLICATIONS = 2000

#: every ``engine=`` value the simulation entry points, the experiment
#: CLI, sweeps and the service accept
ENGINES = ("auto", "batch", "scalar")


def check_engine(engine: str, n_jobs: int = 1, batch_only: str | None = None) -> str:
    """``engine`` unchanged if the run's engine settings are valid.

    ``engine`` must name an engine and ``n_jobs`` be at least 1.
    ``batch_only`` names a run that only the batch kernels can serve (the
    adaptive precision engine rides them exclusively); the scalar engine
    is then rejected.  Raises ModelError otherwise.
    """
    if engine not in ENGINES:
        raise ModelError(f"engine must be one of {ENGINES}, got {engine!r}")
    if n_jobs < 1:
        raise ModelError(f"n_jobs must be >= 1, got {n_jobs}")
    if batch_only is not None and engine == "scalar":
        raise ModelError(
            f"{batch_only} runs on the batch kernels; "
            f"engine={engine!r} cannot be combined with a precision target"
        )
    return engine


def resolve_engine(engine: str, batch_ok: bool, model: str = "this model") -> str:
    """Resolve ``engine=`` to the backend one call runs on.

    Returns ``"batch"`` or ``"scalar"``.  ``batch_ok`` says whether the
    batch backend has kernels for the call; ``model`` names what the call
    models in the error raised when ``engine="batch"`` has none.  An
    unknown name raises before anything else.
    """
    check_engine(engine)
    if engine == "batch" and not batch_ok:
        raise ModelError(
            f"engine={engine!r} runs on the batch kernels, which cannot "
            f"model {model}; use engine='auto' for the automatic scalar "
            "fallback, or engine='scalar'"
        )
    if engine == "scalar" or not batch_ok:
        return "scalar"
    return "batch"


def _check_replications(n_replications: int) -> None:
    if n_replications < 1:
        raise ModelError(f"n_replications must be >= 1, got {n_replications}")


def _coerce_precision(precision, engine: str):
    """Normalise a ``precision=`` argument, rejecting non-batch engines.

    Validates the engine name first, so an unknown name fails even when
    ``precision=`` routes the call to the adaptive engine.
    """
    from ..adaptive.targets import PrecisionTarget

    adaptive = None if precision is None else "precision-targeted estimation"
    check_engine(engine, batch_only=adaptive)
    return PrecisionTarget.coerce(precision)


def _twin(driver: str, choice: str):
    """The batch twin ``_<driver>_batch`` of ``driver``, or ``None``.

    The twin takes the driver's arguments minus ``engine=`` and
    ``precision=``.  ``None`` for ``"scalar"``: the driver's own loop.
    """
    if choice == "scalar":
        return None
    from . import batch

    return getattr(batch, f"_{driver}_batch")


def _backend(driver: str, engine: str, oracle=None, fixing=None):
    """:func:`_twin` of a ``simulate_*`` driver for its testing pair."""
    from .batch import batch_supported

    choice = resolve_engine(
        engine,
        batch_supported(oracle, fixing),
        model=f"{type(oracle).__name__}/{type(fixing).__name__} testing",
    )
    return _twin(driver, choice)


def simulate_untested_joint_on_demand(
    population_a: VersionPopulation,
    demand: int,
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    engine: str = "auto",
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> ProportionEstimator:
    """Estimate ``P(both untested versions fail on x)`` — eq. (4) check.

    Draws independent version pairs and scores them on the fixed demand.
    The analytic prediction is ``θ_A(x) θ_B(x)``.
    """
    target = _coerce_precision(precision, engine)
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
    backend = _backend("simulate_untested_joint_on_demand", engine)
    if backend is not None:
        return backend(
            population_a,
            demand,
            population_b,
            n_replications=n_replications,
            rng=rng,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    rng = as_generator(rng)
    estimator = ProportionEstimator()
    for replication in spawn_many(rng, n_replications):
        stream_a, stream_b = spawn_many(replication, 2)
        version_a = population_a.sample(stream_a)
        version_b = population_b.sample(stream_b)
        estimator.add(version_a.fails_on(demand) and version_b.fails_on(demand))
    return estimator


def simulate_joint_on_demand(
    regime: TestingRegime,
    population_a: VersionPopulation,
    demand: int | Sequence[int],
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> ProportionEstimator | Tuple[ProportionEstimator, ...]:
    """Estimate ``P(both tested versions fail on x)`` — eqs. (16)–(21) check.

    Each replication: draw a version pair, draw the suite pair per the
    regime's coupling, test each channel (perfect testing unless an oracle
    or fixing policy is supplied), then score both tested versions on the
    fixed demand.

    A sequence of demands returns a tuple of (dependent) estimators from
    the same replications, estimator ``j`` equal to the single-demand run
    on ``demand[j]`` at the same ``rng``; ``precision=`` takes one demand.
    """
    target = _coerce_precision(precision, engine)
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
    backend = _backend("simulate_joint_on_demand", engine, oracle, fixing)
    if backend is not None:
        estimators = backend(
            regime,
            population_a,
            demands,
            population_b,
            n_replications=n_replications,
            rng=rng,
            oracle=oracle,
            fixing=fixing,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
        return estimators[0] if single else estimators
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    rng = as_generator(rng)
    estimators = tuple(ProportionEstimator() for _ in demands)
    for replication in spawn_many(rng, n_replications):
        streams = spawn_many(replication, 5)
        version_a = population_a.sample(streams[0])
        version_b = population_b.sample(streams[1])
        suite_a, suite_b = regime.draw_suites(streams[2])
        tested_a = apply_testing(
            version_a, suite_a, oracle, fixing, rng=streams[3]
        ).after
        tested_b = apply_testing(
            version_b, suite_b, oracle, fixing, rng=streams[4]
        ).after
        for estimator, each in zip(estimators, demands):
            estimator.add(tested_a.fails_on(each) and tested_b.fails_on(each))
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
    engine: str = "auto",
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> MeanEstimator:
    """Estimate the marginal system pfd — eqs. (22)–(25) check.

    With ``rao_blackwell=True`` (default) the random demand is integrated
    out exactly given the realised tested pair: the per-replication
    observation is ``Q(joint failure set)``, which estimates the same
    quantity with strictly smaller variance than drawing ``X`` (a standard
    conditioning argument).  Set it to ``False`` to simulate the raw 0/1
    outcome on a drawn demand instead.
    """
    population_a.space.require_same(profile.space)
    if population_b is not None:
        population_b.space.require_same(profile.space)
    target = _coerce_precision(precision, engine)
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
    backend = _backend("simulate_marginal_system_pfd", engine, oracle, fixing)
    if backend is not None:
        return backend(
            regime,
            population_a,
            profile,
            population_b,
            n_replications=n_replications,
            rng=rng,
            oracle=oracle,
            fixing=fixing,
            rao_blackwell=rao_blackwell,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    rng = as_generator(rng)
    estimator = MeanEstimator()
    for replication in spawn_many(rng, n_replications):
        streams = spawn_many(replication, 6)
        version_a = population_a.sample(streams[0])
        version_b = population_b.sample(streams[1])
        suite_a, suite_b = regime.draw_suites(streams[2])
        tested_a = apply_testing(
            version_a, suite_a, oracle, fixing, rng=streams[3]
        ).after
        tested_b = apply_testing(
            version_b, suite_b, oracle, fixing, rng=streams[4]
        ).after
        joint_mask = tested_a.failure_mask & tested_b.failure_mask
        if rao_blackwell:
            estimator.add(float(profile.probabilities[joint_mask].sum()))
        else:
            demand = profile.sample(streams[5])
            estimator.add(float(joint_mask[demand]))
    return estimator


def simulate_version_pfd(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> MeanEstimator:
    """Estimate the mean post-test pfd of a single tested version.

    The analytic prediction under perfect testing is ``E_Q[ζ(X)]``
    (eq. (14) integrated over the usage profile).
    """
    target = _coerce_precision(precision, engine)
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
    backend = _backend("simulate_version_pfd", engine, oracle, fixing)
    if backend is not None:
        return backend(
            population,
            generator,
            profile,
            n_replications=n_replications,
            rng=rng,
            oracle=oracle,
            fixing=fixing,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    _check_replications(n_replications)
    population.space.require_same(profile.space)
    rng = as_generator(rng)
    estimator = MeanEstimator()
    for replication in spawn_many(rng, n_replications):
        streams = spawn_many(replication, 3)
        version = population.sample(streams[0])
        suite = generator.sample(streams[1])
        tested = apply_testing(version, suite, oracle, fixing, rng=streams[2]).after
        estimator.add(tested.pfd(profile))
    return estimator
