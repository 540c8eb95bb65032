"""Property-based tests for the §5 extension invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand import DemandSpace, uniform_profile
from repro.extensions import (
    ClarificationProcess,
    DevelopmentCampaign,
    MistakeActivity,
    SharedTestingActivity,
    SpecificationMistake,
    classical_pfd_upper_bound,
    clarification_effect,
    tests_needed_for_target,
)
from repro.faults import FaultUniverse
from repro.populations import BernoulliFaultPopulation
from repro.testing import OperationalSuiteGenerator
from repro.versions import Version


@st.composite
def small_models(draw):
    n_demands = draw(st.integers(min_value=4, max_value=12))
    space = DemandSpace(n_demands)
    n_faults = draw(st.integers(min_value=1, max_value=4))
    regions = []
    for _ in range(n_faults):
        region = draw(
            st.sets(
                st.integers(min_value=0, max_value=n_demands - 1),
                min_size=1,
                max_size=n_demands,
            )
        )
        regions.append(sorted(region))
    universe = FaultUniverse.from_regions(space, regions)
    probs = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.95),
            min_size=n_faults,
            max_size=n_faults,
        )
    )
    return universe, BernoulliFaultPopulation(universe, np.array(probs))


class TestClarificationInvariants:
    @given(model=small_models(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_penalty_never_negative_and_always_helps(self, model, data):
        """Shared clarifications cannot beat per-team ones (eq. (20)), and
        any clarification weakly improves on none."""
        universe, population = model
        space = universe.space
        n_regions = data.draw(st.integers(min_value=1, max_value=3))
        regions = []
        for _ in range(n_regions):
            region = data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=space.size - 1),
                    min_size=1,
                    max_size=space.size,
                )
            )
            regions.append(sorted(region))
        mass = data.draw(st.floats(min_value=0.2, max_value=1.0))
        probabilities = [mass / n_regions] * n_regions
        process = ClarificationProcess(space, regions, probabilities)
        effect = clarification_effect(
            process, population, uniform_profile(space)
        )
        assert effect.dependence_penalty >= -1e-12
        assert effect.clarification_helps
        assert effect.per_team_pfd <= effect.untested_pfd + 1e-12

    @given(model=small_models())
    @settings(max_examples=30, deadline=None)
    def test_deterministic_clarification_zero_penalty(self, model):
        universe, population = model
        space = universe.space
        process = ClarificationProcess(space, [[0]], [1.0])
        effect = clarification_effect(
            process, population, uniform_profile(space)
        )
        assert abs(effect.dependence_penalty) <= 1e-12


class TestMistakeInvariants:
    @given(model=small_models(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mistake_raises_difficulty_everywhere_on_region(self, model, data):
        universe, population = model
        fault_id = data.draw(
            st.integers(min_value=0, max_value=len(universe) - 1)
        )
        mistake = SpecificationMistake((fault_id,))
        mistaken = mistake.apply_to(population)
        theta_before = population.difficulty()
        theta_after = mistaken.difficulty()
        region = universe.faults[fault_id].mask
        assert np.all(theta_after >= theta_before - 1e-12)
        assert np.all(theta_after[region] == 1.0)

    @given(model=small_models(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_blind_testing_never_removes_mistake(self, model, data):
        universe, population = model
        space = universe.space
        fault_id = data.draw(
            st.integers(min_value=0, max_value=len(universe) - 1)
        )
        mistake = SpecificationMistake((fault_id,))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = np.random.default_rng(seed)
        version = mistake.apply_to(population).sample(rng)
        from repro.testing import TestSuite, apply_testing

        outcome = apply_testing(
            version,
            TestSuite(space, space.demands),
            mistake.blind_oracle(),
            mistake.blind_fixing(),
            rng=rng,
        )
        assert fault_id in outcome.after.fault_ids.tolist()


class TestCampaignInvariants:
    @given(model=small_models(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_only_mistakes_degrade(self, model, data):
        universe, population = model
        space = universe.space
        profile = uniform_profile(space)
        generator = OperationalSuiteGenerator(profile, 3)
        mistake_id = data.draw(
            st.integers(min_value=0, max_value=len(universe) - 1)
        )
        campaign = DevelopmentCampaign(
            [
                SharedTestingActivity(generator),
                MistakeActivity(SpecificationMistake((mistake_id,))),
                SharedTestingActivity(generator),
            ]
        )
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = np.random.default_rng(seed)
        version_a = population.sample(rng)
        version_b = population.sample(rng)
        trajectory = campaign.run(version_a, version_b, profile, rng=seed)
        for step in trajectory.degrading_steps():
            assert step.kind == "common mistake"


class TestStoppingInvariants:
    @given(
        target=st.floats(min_value=1e-5, max_value=0.2),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_tests_needed_round_trip(self, target, confidence):
        n = tests_needed_for_target(target, confidence)
        assert classical_pfd_upper_bound(n, confidence) <= target + 1e-12
        if n > 1:
            assert classical_pfd_upper_bound(n - 1, confidence) > target
