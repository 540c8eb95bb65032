"""Section 4 bounds: imperfect testing and back-to-back testing.

§4.1 — with an imperfect oracle and/or imperfect fixing (and no new faults
introduced), per-demand scores are sandwiched between the perfect-testing
scores and the untested scores, so every failure probability is too:

    perfect-testing value  ≤  imperfect-testing value  ≤  untested value.

§4.2 — back-to-back testing is bracketed by two output-model extremes:
the *optimistic* model (coincident failures never identical) reproduces the
perfect-oracle results exactly, and the *pessimistic* score-level worst
case leaves the system pfd at its untested value ("back-to-back testing
does not improve system reliability at all").

These bounds are verified by simulation: the measured quantity must lie in
the analytic envelope.  :class:`BoundsReport` packages one such check.

The measured quantities run on the Monte-Carlo layer's replication
blocks: imperfect oracles and fixing on the vectorized §4.1 kernel of
:mod:`repro.mc.batch`, and back-to-back testing on its demand-ordered
block kernel; custom policies run on the same blocks' per-row plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..demand import UsageProfile
from ..populations import VersionPopulation
from ..rng import as_generator, spawn_many
from ..testing import FixingPolicy, Oracle, SuiteGenerator
from ..types import SeedLike
from .regimes import TestingRegime
from .marginal import marginal_system_pfd
from .tested import TestedPopulationView

__all__ = [
    "BoundsReport",
    "imperfect_version_envelope",
    "imperfect_system_envelope",
    "imperfect_testing_bounds",
    "imperfect_system_bounds",
    "BackToBackEnvelope",
    "back_to_back_envelope",
]

_DEFAULT_REPLICATIONS = 400
_DEFAULT_SUITE_SAMPLES = 256


@dataclass(frozen=True)
class BoundsReport:
    """An analytic envelope together with a measured value.

    Attributes
    ----------
    lower:
        Perfect-testing prediction (best achievable under the §3 model).
    upper:
        Untested prediction (testing at its most ineffective).
    measured:
        Monte-Carlo estimate of the imperfect-testing quantity.
    n_replications:
        Replications behind the measurement.
    label:
        What quantity is being bounded.
    """

    lower: float
    upper: float
    measured: float
    n_replications: int
    label: str

    def holds(self, slack: float = 0.0) -> bool:
        """True iff ``lower − slack ≤ measured ≤ upper + slack``.

        ``slack`` absorbs Monte-Carlo noise; scale it to the standard error
        of the measurement.
        """
        return self.lower - slack <= self.measured <= self.upper + slack

    @property
    def width(self) -> float:
        """Envelope width ``upper − lower``."""
        return self.upper - self.lower


def imperfect_version_envelope(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
) -> tuple:
    """The §4.1 version-level envelope ``(perfect, untested)``.

    The analytic bracket every imperfect-testing measurement must respect:
    lower bound ``E_Q[ζ(X)]`` (perfect testing, via the tested-population
    view), upper bound ``E_Q[θ(X)]`` (no testing, exact).
    Shared by :func:`imperfect_testing_bounds` and the adaptive
    measurement path, so the two can never disagree on the envelope.
    """
    population.space.require_same(profile.space)
    view = TestedPopulationView(population, generator)
    lower = view.marginal_pfd(profile, n_suites=n_suites, rng=rng)
    return lower, population.pfd(profile)


def imperfect_system_envelope(
    regime: TestingRegime,
    population_a: VersionPopulation,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
) -> tuple:
    """The §4.1 system-level envelope ``(perfect, untested)``.

    Lower bound: the regime's perfect-testing 1-out-of-2 system pfd
    (eqs. (22)–(25)); upper bound: the untested system pfd
    ``E_Q[θ_A θ_B]`` (exact).  Shared by :func:`imperfect_system_bounds`
    and the adaptive measurement path.
    """
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    lower = marginal_system_pfd(
        regime,
        population_a,
        profile,
        population_b,
        n_suites=n_suites,
        rng=rng,
    ).system_pfd
    theta_a = population_a.difficulty()
    theta_b = population_b.difficulty()
    return lower, profile.expectation(theta_a * theta_b)


def imperfect_testing_bounds(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    oracle: Oracle,
    fixing: FixingPolicy,
    n_replications: int = _DEFAULT_REPLICATIONS,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> BoundsReport:
    """Version-level §4.1 bound: mean post-test pfd under imperfect testing.

    The measured value averages, over random (version, suite) pairs, the
    pfd of the version after testing with the given imperfect oracle and
    fixing policy — estimated by :func:`repro.mc.simulate_version_pfd`
    (the vectorized §4.1 kernel for the built-in policies).  The envelope
    is ``[E_Q[ζ(X)], E_Q[θ(X)]]``.
    """
    from ..mc.experiments import _check_replications, simulate_version_pfd

    _check_replications(n_replications)
    population.space.require_same(profile.space)
    rng = as_generator(rng)
    bound_stream, sim_stream = spawn_many(rng, 2)

    lower, upper = imperfect_version_envelope(
        population, generator, profile, n_suites=n_suites, rng=bound_stream
    )

    measured = simulate_version_pfd(
        population,
        generator,
        profile,
        n_replications=n_replications,
        rng=sim_stream,
        oracle=oracle,
        fixing=fixing,
        chunk_size=chunk_size,
        n_jobs=n_jobs,
    ).mean
    return BoundsReport(
        lower=lower,
        upper=upper,
        measured=measured,
        n_replications=n_replications,
        label="version pfd under imperfect testing",
    )


def imperfect_system_bounds(
    regime: TestingRegime,
    population_a: VersionPopulation,
    profile: UsageProfile,
    oracle: Oracle,
    fixing: FixingPolicy,
    population_b: VersionPopulation | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    n_suites: int = _DEFAULT_SUITE_SAMPLES,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> BoundsReport:
    """System-level §4.1 bound: 1-out-of-2 pfd under imperfect testing.

    Envelope: perfect-testing system pfd of the regime (eqs. (22)–(25)) as
    the lower bound, untested system pfd (eq. (6)/(9)) as the upper bound.
    The measurement routes through
    :func:`repro.mc.simulate_marginal_system_pfd` (Rao–Blackwellised).
    """
    from ..mc.experiments import _check_replications
    from ..mc.experiments import simulate_marginal_system_pfd as simulate_marginal

    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    rng = as_generator(rng)
    bound_stream, sim_stream = spawn_many(rng, 2)

    lower, upper = imperfect_system_envelope(
        regime,
        population_a,
        profile,
        population_b,
        n_suites=n_suites,
        rng=bound_stream,
    )

    measured = simulate_marginal(
        regime,
        population_a,
        profile,
        population_b,
        n_replications=n_replications,
        rng=sim_stream,
        oracle=oracle,
        fixing=fixing,
        chunk_size=chunk_size,
        n_jobs=n_jobs,
    ).mean
    return BoundsReport(
        lower=lower,
        upper=upper,
        measured=measured,
        n_replications=n_replications,
        label=f"system pfd under imperfect testing ({regime.label})",
    )


@dataclass(frozen=True)
class BackToBackEnvelope:
    """Back-to-back testing outcomes under the three output models (§4.2).

    All quantities are means over the same replications (version pair and
    suite draws are shared across modes, so differences are purely due to
    the output model).

    Attributes
    ----------
    untested_system_pfd:
        Mean system pfd before any testing (the §4.2 pessimistic bound on
        what back-to-back testing achieves for the system).
    perfect_system_pfd:
        Mean system pfd after same-suite testing with a perfect oracle.
    optimistic_system_pfd / pessimistic_system_pfd / shared_fault_system_pfd:
        Mean system pfd after back-to-back testing under each output model.
    optimistic_version_pfd / pessimistic_version_pfd / shared_fault_version_pfd:
        Mean per-channel (averaged over the two channels) post-test pfd.
    untested_version_pfd:
        Mean per-channel pfd before testing.
    n_replications:
        Number of (version pair, suite) replications.
    """

    untested_system_pfd: float
    perfect_system_pfd: float
    optimistic_system_pfd: float
    pessimistic_system_pfd: float
    shared_fault_system_pfd: float
    untested_version_pfd: float
    optimistic_version_pfd: float
    pessimistic_version_pfd: float
    shared_fault_version_pfd: float
    n_replications: int

    @classmethod
    def from_sums(cls, sums, n_replications: int) -> "BackToBackEnvelope":
        """The envelope from its nine per-replication sums, in field order."""
        scale = 1.0 / n_replications
        return cls(*(value * scale for value in sums), n_replications=n_replications)

    @property
    def optimistic_matches_perfect(self) -> bool:
        """§4.2: the optimistic model must reproduce perfect-oracle results.

        Under "coincident failures are never identical" every failure
        produces a mismatch, so detection coincides with a perfect oracle;
        the equality is exact, not statistical, because the comparison uses
        shared draws.
        """
        return abs(self.optimistic_system_pfd - self.perfect_system_pfd) <= 1e-12

    @property
    def ordering_holds(self) -> bool:
        """Envelope ordering: perfect ≤ {shared-fault, pessimistic} ≤ untested.

        Detection under the pessimistic model is a subset of detection
        under shared-fault, which is a subset of optimistic detection, so
        post-test system pfds are ordered the opposite way (more detection,
        lower pfd) — all within the untested/perfect envelope.
        """
        tol = 1e-12
        return (
            self.perfect_system_pfd
            <= self.optimistic_system_pfd + tol
            <= self.shared_fault_system_pfd + tol
            <= self.pessimistic_system_pfd + tol
            <= self.untested_system_pfd + tol
        )


def back_to_back_envelope(
    population_a: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    fixing: FixingPolicy | None = None,
    n_replications: int = _DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> BackToBackEnvelope:
    """Simulate §4.2: back-to-back testing under all three output models.

    Every replication draws one version pair and one shared suite, then
    runs back-to-back testing three times (optimistic, pessimistic,
    shared-fault comparators) plus a perfect-oracle same-suite run, all on
    identical inputs, so the envelope comparisons are paired.

    The whole envelope runs on the chunked replication blocks of
    :mod:`repro.mc.batch`: its demand-ordered block kernel, or for a custom
    fixing policy the per-row plan of
    :func:`repro.mc.batch.back_to_back_batch`, with one fixing stream per
    comparator either way.
    """
    from ..mc.batch import _chunk_back_to_back_envelope, _run_budget
    from ..mc.experiments import _check_replications

    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    kernel = partial(
        _chunk_back_to_back_envelope,
        population_a,
        population_b,
        generator,
        profile,
        fixing,
    )
    results = _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    merged = [sum(column) for column in zip(*(sums for _n, sums in results))]
    return BackToBackEnvelope.from_sums(
        merged, sum(count for count, _sums in results)
    )
