"""Tests for the combined-activities campaign simulator."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.extensions import (
    Activity,
    BackToBackActivity,
    ClarificationActivity,
    ClarificationProcess,
    DevelopmentCampaign,
    IndependentTestingActivity,
    MistakeActivity,
    PerTeamClarificationActivity,
    SharedTestingActivity,
    SpecificationMistake,
)
from repro.testing import BackToBackComparator, OperationalSuiteGenerator
from repro.versions import Version, shared_fault_outputs


@pytest.fixture
def generator(profile):
    return OperationalSuiteGenerator(profile, 4)


@pytest.fixture
def version_pair(universe):
    return (
        Version(universe, np.array([0, 1])),
        Version(universe, np.array([1, 2])),
    )


class TestConstruction:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ModelError):
            DevelopmentCampaign([])

    def test_non_activity_rejected(self, generator):
        with pytest.raises(ModelError):
            DevelopmentCampaign([SharedTestingActivity(generator), "tea break"])


class TestRun:
    def test_trajectory_structure(self, generator, version_pair, profile):
        campaign = DevelopmentCampaign(
            [SharedTestingActivity(generator), IndependentTestingActivity(generator)]
        )
        a, b = version_pair
        trajectory = campaign.run(a, b, profile, rng=0)
        assert len(trajectory) == 3
        assert trajectory[0].kind == "initial"
        assert trajectory[1].kind == "shared testing"
        assert trajectory[2].kind == "independent testing"

    def test_testing_activities_never_degrade(
        self, generator, version_pair, profile, space
    ):
        comparator = BackToBackComparator(shared_fault_outputs())
        process = ClarificationProcess(space, [[0, 1], [4, 5]], [0.5, 0.5])
        campaign = DevelopmentCampaign(
            [
                SharedTestingActivity(generator),
                BackToBackActivity(generator, comparator),
                ClarificationActivity(process),
                PerTeamClarificationActivity(process),
                IndependentTestingActivity(generator),
            ]
        )
        a, b = version_pair
        trajectory = campaign.run(a, b, profile, rng=1)
        assert not trajectory.degrading_steps()
        pfds = trajectory.system_pfds()
        assert np.all(np.diff(pfds) <= 1e-15)

    def test_mistake_degrades(self, generator, version_pair, profile, universe):
        mistake = SpecificationMistake((2,))
        campaign = DevelopmentCampaign(
            [SharedTestingActivity(generator), MistakeActivity(mistake)]
        )
        a = Version(universe, np.array([0]))
        b = Version(universe, np.array([1]))
        trajectory = campaign.run(a, b, profile, rng=2)
        degrading = trajectory.degrading_steps()
        assert len(degrading) == 1
        assert degrading[0].kind == "common mistake"
        # both channels now contain the mistake fault
        assert trajectory.final.faults_a >= 1
        assert trajectory.final.faults_b >= 1

    def test_mistake_injects_into_both(self, version_pair, profile, universe):
        mistake = SpecificationMistake((2,))
        activity = MistakeActivity(mistake)
        a = Version(universe, np.array([0]))
        b = Version.correct(universe)
        after_a, after_b = activity.apply(a, b, np.random.default_rng(0))
        assert 2 in after_a.fault_ids.tolist()
        assert 2 in after_b.fault_ids.tolist()

    def test_deterministic_under_seed(self, generator, version_pair, profile):
        campaign = DevelopmentCampaign([SharedTestingActivity(generator)])
        a, b = version_pair
        first = campaign.run(a, b, profile, rng=5)
        second = campaign.run(a, b, profile, rng=5)
        assert first.final == second.final


class TestMeanFinalPfd:
    def test_shared_worse_than_independent(
        self, bernoulli_population, generator, profile
    ):
        shared = DevelopmentCampaign([SharedTestingActivity(generator)])
        independent = DevelopmentCampaign(
            [IndependentTestingActivity(generator)]
        )
        shared_pfd = shared.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=400, rng=3
        )
        independent_pfd = independent.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=400, rng=3
        )
        assert shared_pfd >= independent_pfd - 0.01

    def test_replication_validation(self, bernoulli_population, generator, profile):
        campaign = DevelopmentCampaign([SharedTestingActivity(generator)])
        with pytest.raises(ModelError):
            campaign.mean_final_system_pfd(
                bernoulli_population, profile, n_replications=0
            )


class _LoopOnly(Activity):
    """A do-nothing activity without a batch form."""

    kind = "loop only"

    def apply(self, version_a, version_b, rng):
        return version_a, version_b


class TestBatchPath:
    @pytest.fixture
    def full_campaign(self, generator, space):
        process = ClarificationProcess(space, [[0, 1]], [1.0])
        return DevelopmentCampaign(
            [
                SharedTestingActivity(generator),
                ClarificationActivity(process),
                PerTeamClarificationActivity(process),
                BackToBackActivity(
                    generator, BackToBackComparator(shared_fault_outputs())
                ),
                MistakeActivity(SpecificationMistake((0,))),
                IndependentTestingActivity(generator),
            ]
        )

    def test_all_builtin_activities_support_batch(self, full_campaign):
        assert full_campaign.supports_batch

    def test_batch_agrees_with_scalar(
        self, full_campaign, bernoulli_population, profile
    ):
        batch = full_campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=600, rng=7
        )
        # one activity without a batch form sends the whole campaign to
        # the per-replication trajectory loop
        looped = DevelopmentCampaign(full_campaign.activities + [_LoopOnly()])
        assert not looped.supports_batch
        scalar = looped.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=600, rng=7
        )
        assert batch == pytest.approx(scalar, abs=0.03)

    def test_batch_deterministic_and_n_jobs_invariant(
        self, full_campaign, bernoulli_population, profile
    ):
        kwargs = dict(n_replications=300, rng=11, chunk_size=100)
        serial = full_campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_jobs=1, **kwargs
        )
        sharded = full_campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_jobs=2, **kwargs
        )
        assert serial == sharded

    def test_custom_activity_falls_back_to_scalar(
        self, generator, bernoulli_population, profile
    ):
        class NoOpActivity(SharedTestingActivity):
            @property
            def supports_batch(self):
                return False

        campaign = DevelopmentCampaign([NoOpActivity(generator)])
        assert not campaign.supports_batch
        # the campaign silently takes the per-replication loop
        value = campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=20, rng=13
        )
        assert 0.0 <= value <= 1.0
        assert value == campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_replications=20, rng=13
        )

    def test_compiled_engine_rejected(
        self, full_campaign, bernoulli_population, profile
    ):
        # engine= is retired: every name is an unknown keyword
        for engine in ("compiled", "gpu", "scalar"):
            with pytest.raises(TypeError, match="engine"):
                full_campaign.mean_final_system_pfd(
                    bernoulli_population, profile, n_replications=20, engine=engine
                )
