"""A subclass that overrides only a scalar method is honoured by every driver.

Each extensible class pairs a scalar method with block methods that mirror
it for speed: ``VersionPopulation.sample`` / ``sample_fault_matrix``,
``SuiteGenerator.sample`` / ``sample_demand_masks`` and
``sample_demand_sequences``, ``TestingRegime.draw_suites`` /
``draw_suite_masks`` and ``_draw_suite_sequences``, ``Activity.apply`` /
``apply_batch``.  Each override below has a visible effect: no faults, or
no testing at all.  An inherited block that ignored it would report the
tested pfd, an order of magnitude below the untested one.
"""

import pytest

from repro import (
    BernoulliFaultPopulation,
    DemandSpace,
    ImperfectOracle,
    IndependentSuites,
    OperationalSuiteGenerator,
    TestSuite,
    Version,
    clustered_universe,
    uniform_profile,
)
from repro.extensions import DevelopmentCampaign, SharedTestingActivity
from repro.mc import simulate_marginal_system_pfd, simulate_version_pfd

PROFILE = uniform_profile(DemandSpace(80))
UNIVERSE = clustered_universe(PROFILE.space, 14, 4, rng=3)
POPULATION = BernoulliFaultPopulation.uniform(UNIVERSE, 0.25)
GENERATOR = OperationalSuiteGenerator(PROFILE, 50)
REPLICATIONS, CHUNK = 2000, 500


class FaultFree(BernoulliFaultPopulation):
    def sample(self, rng=None):
        return Version.correct(self.universe)


class NoSuite(OperationalSuiteGenerator):
    def sample(self, rng=None):
        return TestSuite.empty(self.space)


class NoSuites(IndependentSuites):
    def draw_suites(self, rng=None):
        return TestSuite.empty(PROFILE.space), TestSuite.empty(PROFILE.space)


class NoTesting(SharedTestingActivity):
    def apply(self, version_a, version_b, rng):
        return version_a, version_b


def _version_pfd(population, generator, oracle, n_jobs):
    return simulate_version_pfd(
        population, generator, PROFILE, REPLICATIONS, rng=1, oracle=oracle,
        chunk_size=CHUNK, n_jobs=n_jobs,
    ).mean


def _system_pfd(regime, oracle, n_jobs):
    return simulate_marginal_system_pfd(
        regime, POPULATION, PROFILE, n_replications=REPLICATIONS, rng=1,
        oracle=oracle, chunk_size=CHUNK, n_jobs=n_jobs,
    ).mean


def _campaign_pfd(activity, n_jobs):
    return DevelopmentCampaign([activity]).mean_final_system_pfd_estimator(
        POPULATION, PROFILE, n_replications=REPLICATIONS, rng=1, chunk_size=CHUNK,
        n_jobs=n_jobs,
    ).mean


UNTESTED_VERSION = POPULATION.pfd(PROFILE)
UNTESTED_SYSTEM = PROFILE.expectation(POPULATION.difficulty() ** 2)
IMPERFECT = ImperfectOracle(0.9)

CASES = {
    "population.sample_fault_matrix": (
        lambda n: _version_pfd(FaultFree.uniform(UNIVERSE, 0.25), GENERATOR, None, n),
        0.0,
    ),
    "generator.sample_demand_masks": (
        lambda n: _version_pfd(POPULATION, NoSuite(PROFILE, 50), None, n),
        UNTESTED_VERSION,
    ),
    "generator.sample_demand_sequences": (
        lambda n: _version_pfd(POPULATION, NoSuite(PROFILE, 50), IMPERFECT, n),
        UNTESTED_VERSION,
    ),
    "regime.draw_suite_masks": (
        lambda n: _system_pfd(NoSuites(GENERATOR), None, n),
        UNTESTED_SYSTEM,
    ),
    "regime._draw_suite_sequences": (
        lambda n: _system_pfd(NoSuites(GENERATOR), IMPERFECT, n),
        UNTESTED_SYSTEM,
    ),
    "activity.apply_batch": (
        lambda n: _campaign_pfd(NoTesting(GENERATOR), n),
        UNTESTED_SYSTEM,
    ),
}


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("block", sorted(CASES))
def test_block_honours_a_scalar_only_override(block, n_jobs):
    run, expected = CASES[block]
    assert run(n_jobs) == pytest.approx(expected, rel=0.1, abs=1e-12)


def test_a_subclass_that_overrides_both_keeps_its_block():
    class Both(NoSuite):
        def sample_demand_masks(self, count, rng=None):
            return GENERATOR.sample_demand_masks(count, rng)

    assert Both.sample_demand_masks is not NoSuite.sample_demand_masks
    assert Both.sample_demand_sequences is NoSuite.sample_demand_sequences
