"""Tests for the variance-reduction layer: exact pmfs, vr resolution,
and the effectiveness gate (VR must not cost replications on the
estimands it claims to help)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.adaptive import (
    PrecisionTarget,
    adaptive_version_pfd,
    fault_count_pmf,
    pair_fault_count_pmf,
    resolve_vr,
)
from repro.demand import DemandSpace, uniform_profile
from repro.errors import ModelError
from repro.experiments.models import standard_scenario, tiny_enumerable_scenario
from repro.extensions import Activity
from repro.faults import uniform_random_universe
from repro.populations import BernoulliFaultPopulation
from repro.testing import ImperfectFixing, ImperfectOracle


class TestFaultCountPmf:
    def test_uniform_bernoulli_matches_binomial(self):
        space = DemandSpace(20)
        universe = uniform_random_universe(
            space, n_faults=9, region_size=3, rng=0
        )
        population = BernoulliFaultPopulation.uniform(universe, 0.3)
        pmf = fault_count_pmf(population)
        assert pmf is not None
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        for k, mass in pmf.items():
            assert mass == pytest.approx(
                float(stats.binom.pmf(k, 9, 0.3)), abs=1e-12
            )

    def test_heterogeneous_probabilities_poisson_binomial(self):
        space = DemandSpace(10)
        universe = uniform_random_universe(
            space, n_faults=3, region_size=2, rng=1
        )
        probs = [0.1, 0.5, 0.9]
        population = BernoulliFaultPopulation(universe, probs)
        pmf = fault_count_pmf(population)
        # brute force over the 2^3 presence patterns
        expected = {k: 0.0 for k in range(4)}
        for bits in range(8):
            mass = 1.0
            k = 0
            for fault, p in enumerate(probs):
                if bits >> fault & 1:
                    mass *= p
                    k += 1
                else:
                    mass *= 1.0 - p
            expected[k] += mass
        for k, mass in expected.items():
            assert pmf[k] == pytest.approx(mass, abs=1e-12)

    def test_enumerable_population_supported(self):
        scenario = tiny_enumerable_scenario()
        pmf = fault_count_pmf(scenario.population)
        assert pmf is not None
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)

    def test_pair_pmf_is_convolution(self):
        space = DemandSpace(10)
        universe = uniform_random_universe(
            space, n_faults=4, region_size=2, rng=2
        )
        population = BernoulliFaultPopulation.uniform(universe, 0.5)
        single = fault_count_pmf(population)
        pair = pair_fault_count_pmf(population, population)
        for k, mass in pair.items():
            expected = sum(
                single[i] * single.get(k - i, 0.0) for i in single
            )
            assert mass == pytest.approx(expected, abs=1e-12)


class TestResolveVr:
    def test_auto_prefers_strongest(self):
        assert resolve_vr("auto", True, True) == "stratified+control"
        assert resolve_vr("auto", False, True) == "control"
        assert resolve_vr("auto", True, False) == "stratified"
        assert resolve_vr("auto", False, False) == "none"

    def test_explicit_unsupported_raises(self):
        with pytest.raises(ModelError):
            resolve_vr("stratified", has_strata=False, has_anchor=True)
        with pytest.raises(ModelError):
            resolve_vr("control", has_strata=True, has_anchor=False)

    def test_unknown_mode_raises(self):
        with pytest.raises(ModelError):
            resolve_vr("quantum", True, True)
        with pytest.raises(ModelError):
            resolve_vr("antithetic", True, True)  # retired


class TestVrEffectiveness:
    """The issue's headline: VR must reduce replications-to-target on the
    noisy imperfect-testing estimand (this same ratio is what
    benchmarks/bench_adaptive.py records and CI gates on)."""

    @pytest.mark.slow
    def test_stratified_control_beats_plain_on_e11_style_point(self):
        scenario = standard_scenario(0)
        kwargs = dict(
            oracle=ImperfectOracle(0.25),
            fixing=ImperfectFixing(0.25),
            rng=31,
        )

        def replications(vr):
            target = PrecisionTarget(
                rel_hw=0.05, budget=60_000, initial=256, vr=vr
            )
            report = adaptive_version_pfd(
                scenario.population,
                scenario.generator,
                scenario.profile,
                target,
                **kwargs,
            )
            assert report.only.converged
            return report.only.replications

        plain = replications("none")
        reduced = replications("stratified+control")
        assert reduced <= plain


# ---------------------------------------------------------------------------
# stream identity: a vr="none" chunk draws exactly the batch engine's block
# ---------------------------------------------------------------------------


def _identity_model():
    from repro.demand import zipf_profile
    from repro.faults import clustered_universe
    from repro.testing import OperationalSuiteGenerator

    space = DemandSpace(30)
    profile = zipf_profile(space, exponent=0.8)
    universe = clustered_universe(space, n_faults=12, region_size=4, rng=5)
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    other = BernoulliFaultPopulation.uniform(universe, 0.45)
    generator = OperationalSuiteGenerator(profile, 6)
    return universe, profile, population, other, generator


def _plan(kind, universe):
    from repro.coverage import (
        ComponentModel,
        coverage_testing_pair,
        synthetic_coverage,
    )
    from repro.extensions import SpecificationMistake
    from repro.mc.batch import _testing_plan

    if kind == "perfect":
        pair = (None, None)
    elif kind == "bernoulli":
        pair = (ImperfectOracle(0.6), ImperfectFixing(0.7))
    elif kind == "blind":
        mistake = SpecificationMistake((1, 4))
        pair = (mistake.blind_oracle(), mistake.blind_fixing())
    else:
        matrix = synthetic_coverage(10, 4, density=0.5, rng=2)
        pair = coverage_testing_pair(
            ComponentModel.round_robin(universe, 4), matrix
        )
    plan = _testing_plan(*pair)
    assert plan is not None and plan[0] == kind
    return plan


def _version_chunks(plan_kind, count, seed):
    from repro.adaptive.variance import version_pfd_chunk
    from repro.mc.batch import _chunk_version_pfd

    universe, profile, population, _other, generator = _identity_model()
    plan = _plan(plan_kind, universe)
    batch = _chunk_version_pfd(population, generator, profile, plan, (count, seed))
    adaptive = version_pfd_chunk(
        population, generator, profile, plan, "none", (0, count, seed)
    )
    return batch, adaptive


def _marginal_chunks(regime_name, plan_kind, count, seed):
    from repro.adaptive.variance import marginal_system_pfd_chunk
    from repro.core import ForcedTestingDiversity, IndependentSuites, SameSuite
    from repro.mc.batch import _chunk_marginal
    from repro.testing import OperationalSuiteGenerator

    universe, profile, population, other, generator = _identity_model()
    plan = _plan(plan_kind, universe)
    regime = {
        "same": lambda: SameSuite(generator),
        "independent": lambda: IndependentSuites(generator),
        "forced": lambda: ForcedTestingDiversity(
            generator, OperationalSuiteGenerator(profile, 9)
        ),
    }[regime_name]()
    batch = _chunk_marginal(
        regime, population, other, profile, True, plan, (count, seed)
    )
    adaptive = marginal_system_pfd_chunk(
        regime, population, other, profile, plan, "none", (0, count, seed)
    )
    return batch, adaptive


class _CoinRepair(Activity):
    """A custom campaign activity: a fair coin per pair decides whether
    channel A is rewritten fault-free."""

    kind = "coin repair"

    def apply(self, version_a, version_b, rng):
        if rng.random() < 0.5:
            return version_a.without_faults(version_a.fault_ids), version_b
        return version_a, version_b


def _campaign_chunks(custom, count, seed):
    from repro.adaptive.variance import campaign_pfd_chunk
    from repro.extensions import (
        BackToBackActivity,
        DevelopmentCampaign,
        IndependentTestingActivity,
        MistakeActivity,
        SharedTestingActivity,
        SpecificationMistake,
    )
    from repro.extensions.campaign import _campaign_chunk
    from repro.testing import BackToBackComparator
    from repro.versions import shared_fault_outputs

    _universe, profile, population, other, generator = _identity_model()
    campaign = DevelopmentCampaign(
        [
            SharedTestingActivity(generator),
            IndependentTestingActivity(
                generator, ImperfectOracle(0.6), ImperfectFixing(0.7)
            ),
            MistakeActivity(SpecificationMistake((2,))),
            BackToBackActivity(
                generator, BackToBackComparator(shared_fault_outputs())
            ),
        ]
        + ([_CoinRepair()] if custom else [])
    )
    batch = _campaign_chunk(campaign, population, other, profile, (count, seed))
    adaptive = campaign_pfd_chunk(
        campaign, population, other, profile, "none", (0, count, seed)
    )
    return batch, adaptive


_IDENTITY_CASES = (
    [
        pytest.param(_version_chunks, (kind,), id=f"version-{kind}")
        for kind in ("perfect", "bernoulli", "blind", "coverage")
    ]
    + [
        pytest.param(_marginal_chunks, (regime, kind), id=f"marginal-{regime}-{kind}")
        for regime in ("same", "independent", "forced")
        for kind in ("perfect", "bernoulli")
    ]
    + [
        pytest.param(_campaign_chunks, (False,), id="campaign"),
        pytest.param(_campaign_chunks, (True,), id="campaign-custom"),
    ]
)


@pytest.mark.parametrize("chunks, args", _IDENTITY_CASES)
def test_vr_none_chunk_draws_the_batch_block(chunks, args):
    """For the same ``(count, seed)`` the adaptive ``vr="none"`` chunk and
    the fixed-n batch chunk draw one block: their moments agree bit for
    bit, so only the reducer tells the two layers apart."""
    count, seed = 257, 12345
    batch, adaptive = chunks(*args, count, seed)
    index, replications, payload = adaptive
    assert (index, replications) == (0, count)
    (moments,) = payload.values()
    assert (moments.count, moments.mean_y, moments.m2_y) == batch
    assert batch[0] == count and batch[1] > 0.0
