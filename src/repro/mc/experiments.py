"""Full-pipeline Monte-Carlo experiments.

Each function simulates the complete generative story of the paper — the
randomness of development (``S``), of test generation (``M``) with the
regime's coupling, and (optionally) of usage (``Q``) — and estimates the
probability the analytic layer predicts.  Nothing here reuses the analytic
shortcuts: versions are actually drawn, actually tested, and actually
scored, so agreement with :mod:`repro.core` / :mod:`repro.analytic` is a
genuine end-to-end validation.

Each estimator can run on one of three **engines**:

* ``"batch"`` — the vectorized replication engine of
  :mod:`repro.mc.batch`: whole blocks of versions, suites and scores as
  matrix kernels.  Covers the §3 perfect process, the §4.1
  :class:`~repro.testing.ImperfectOracle` /
  :class:`~repro.testing.ImperfectFixing` relaxations (binomial detection
  counts + Bernoulli survival masks) and matched blind-spot pairs.
* ``"compiled"`` — the native-code kernels of :mod:`repro.mc.kernels`
  (numba ``@njit``) on counter-based RNG, so results are bit-identical
  for every ``chunk_size`` / ``n_jobs``.  Requires the ``[compiled]``
  extra (numba); raises a did-you-mean :class:`~repro.errors.ModelError`
  when it is absent.  Supports Bernoulli populations and the concrete
  suite generators/regimes — see :doc:`docs/kernels`.
* ``"scalar"`` — the original per-replication Python loop: the reference
  implementation the batch path is validated against, and the only engine
  for *custom* oracle/fixing policies, whose per-demand dynamics the batch
  kernels cannot introspect.

The default ``engine="auto"`` picks the batch path whenever
:func:`repro.mc.batch.batch_supported` accepts the testing process and
falls back to the scalar loop otherwise, so existing callers transparently
get the fast path.  ``auto`` deliberately never resolves to ``compiled``:
the compiled backend draws from a different (counter-based) random stream,
and a default that silently depends on whether numba is installed would
make results machine-dependent.  Opt in explicitly with
``engine="compiled"``.

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

from ..demand import UsageProfile
from ..errors import ModelError
from ..populations import VersionPopulation
from ..rng import as_generator, spawn_many
from ..testing import FixingPolicy, Oracle, SuiteGenerator, apply_testing
from ..types import SeedLike
from ..core.regimes import TestingRegime
from .estimator import MeanEstimator, ProportionEstimator

__all__ = [
    "simulate_untested_joint_on_demand",
    "simulate_joint_on_demand",
    "simulate_marginal_system_pfd",
    "simulate_version_pfd",
]

_DEFAULT_REPLICATIONS = 2000
_ENGINES = ("auto", "batch", "compiled", "fastest", "scalar")


def resolve_fastest(
    oracle: Oracle | None = None, fixing: FixingPolicy | None = None
) -> str:
    """Resolve the ``"fastest"`` alias to a concrete engine for one call.

    The compiled backend when numba is importable *and* the testing pair
    has compiled kernels, else the batch path.  Unlike ``"auto"``, the
    alias trades bit-stability across machines for speed: the same call
    can run different backends depending on what is installed.
    """
    from .kernels import HAVE_NUMBA, compiled_supported

    if HAVE_NUMBA and compiled_supported(oracle, fixing):
        return "compiled"
    return "batch"


def _check_replications(n_replications: int) -> None:
    if n_replications < 1:
        raise ModelError(f"n_replications must be >= 1, got {n_replications}")


def _coerce_precision(precision, engine: str):
    """Normalise a ``precision=`` argument, rejecting non-batch engines."""
    from ..adaptive.targets import PrecisionTarget

    target = PrecisionTarget.coerce(precision)
    if target is not None and engine in ("scalar", "compiled"):
        raise ModelError(
            "precision-targeted estimation runs on the batch kernels; "
            f"engine={engine!r} cannot be combined with precision="
        )
    return target


def _engine_choice(
    engine: str,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
) -> str:
    """Resolve ``engine=`` to the concrete backend for one call.

    ``"compiled"`` is only ever an explicit choice (and requires numba or
    the fallback env var — :func:`repro.mc.kernels.require_compiled`);
    ``"auto"`` resolves between batch and scalar exactly as before the
    compiled backend existed, so default results never depend on what is
    installed.
    """
    if engine not in _ENGINES:
        raise ModelError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if engine == "fastest":
        engine = resolve_fastest(oracle, fixing)
    if engine == "compiled":
        from .kernels import require_compiled

        require_compiled()
        return "compiled"
    return "batch" if _use_batch(engine, oracle, fixing) else "scalar"


def _use_batch(
    engine: str,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
) -> bool:
    """Resolve the engine choice for one call."""
    if engine not in _ENGINES:
        raise ModelError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if engine == "fastest":
        # never resolves to scalar: the alias fails as loudly as "batch"
        # on pairs the vectorized engines cannot model
        engine = "batch"
    if engine == "scalar":
        return False
    from .batch import batch_supported

    supported = batch_supported(oracle, fixing)
    if engine == "batch":
        if not supported:
            raise ModelError(
                "engine='batch' cannot model custom oracle/fixing policies "
                f"({type(oracle).__name__}/{type(fixing).__name__}); "
                "supported: Perfect/Imperfect oracles and fixing, and "
                "matched blind-spot or coverage pairs.  Use engine='auto' "
                "for automatic scalar fallback or engine='scalar'"
            )
        return True
    return supported


def _regime_policies(
    regime: TestingRegime,
    oracle: Oracle | None,
    fixing: FixingPolicy | None,
) -> tuple:
    """Resolve the effective (oracle, fixing) pair for one simulate call.

    A :class:`~repro.core.regimes.CoverageAwareRegime` carries its matched
    coverage pair as the experiment's default testing policies; explicit
    ``oracle=``/``fixing=`` arguments always win (even half-supplied —
    overriding one half of a matched pair is a deliberate, scalar-path
    choice).
    """
    if oracle is None and fixing is None:
        policies = getattr(regime, "testing_policies", None)
        if policies is not None:
            return policies
    return oracle, fixing


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
    choice = _engine_choice(engine)
    if choice == "compiled":
        from .kernels import simulate_untested_joint_on_demand_compiled

        return simulate_untested_joint_on_demand_compiled(
            population_a,
            demand,
            population_b,
            n_replications=n_replications,
            rng=rng,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    if choice == "batch":
        from .batch import simulate_untested_joint_on_demand_batch

        return simulate_untested_joint_on_demand_batch(
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
    demand: int,
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
    n_jobs: int = 1,
    precision=None,
) -> ProportionEstimator:
    """Estimate ``P(both tested versions fail on x)`` — eqs. (16)–(21) check.

    Each replication: draw a version pair, draw the suite pair per the
    regime's coupling, test each channel (perfect testing unless an oracle
    or fixing policy is supplied), then score both tested versions on the
    fixed demand.
    """
    oracle, fixing = _regime_policies(regime, oracle, fixing)
    target = _coerce_precision(precision, engine)
    if target is not None:
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
    choice = _engine_choice(engine, oracle, fixing)
    if choice == "compiled":
        from .kernels import simulate_joint_on_demand_compiled

        return simulate_joint_on_demand_compiled(
            regime,
            population_a,
            demand,
            population_b,
            n_replications=n_replications,
            rng=rng,
            oracle=oracle,
            fixing=fixing,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    if choice == "batch":
        from .batch import simulate_joint_on_demand_batch

        return simulate_joint_on_demand_batch(
            regime,
            population_a,
            demand,
            population_b,
            n_replications=n_replications,
            rng=rng,
            oracle=oracle,
            fixing=fixing,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        )
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    rng = as_generator(rng)
    estimator = ProportionEstimator()
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
        estimator.add(tested_a.fails_on(demand) and tested_b.fails_on(demand))
    return estimator


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
    oracle, fixing = _regime_policies(regime, oracle, fixing)
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
    choice = _engine_choice(engine, oracle, fixing)
    if choice == "compiled":
        from .kernels import simulate_marginal_system_pfd_compiled

        return simulate_marginal_system_pfd_compiled(
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
    if choice == "batch":
        from .batch import simulate_marginal_system_pfd_batch

        return simulate_marginal_system_pfd_batch(
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
    choice = _engine_choice(engine, oracle, fixing)
    if choice == "compiled":
        from .kernels import simulate_version_pfd_compiled

        return simulate_version_pfd_compiled(
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
    if choice == "batch":
        from .batch import simulate_version_pfd_batch

        return simulate_version_pfd_batch(
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
