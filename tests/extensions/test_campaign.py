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


class _Idle(Activity):
    """A do-nothing custom activity: it runs on the per-row plan."""

    kind = "idle"

    def apply(self, version_a, version_b, rng):
        return version_a, version_b


class _SilentComparator(BackToBackComparator):
    """A comparator that never flags a demand."""

    def mismatch(self, first, second, demand):
        return False


class _CoinRepair(Activity):
    """A custom activity: a fair coin per pair decides whether channel A
    is rewritten fault-free."""

    kind = "coin repair"

    def apply(self, version_a, version_b, rng):
        if rng.random() < 0.5:
            return version_a.without_faults(version_a.fault_ids), version_b
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
        # every built-in activity has its own block form; only custom
        # activities take the per-row default
        for activity in full_campaign.activities:
            assert type(activity).apply_batch is not Activity.apply_batch

    def test_batch_agrees_with_scalar(
        self, full_campaign, bernoulli_population, profile
    ):
        # an appended custom activity runs on the per-row plan with the
        # next child stream: the activities before it draw the same bits
        idled = DevelopmentCampaign(full_campaign.activities + [_Idle()])
        for kwargs in (dict(), dict(chunk_size=70, n_jobs=2)):
            batch, rows = (
                campaign.mean_final_system_pfd(
                    bernoulli_population, profile, n_replications=600, rng=7, **kwargs
                )
                for campaign in (full_campaign, idled)
            )
            assert batch == rows, kwargs

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

    def test_custom_activity_runs_per_row(self, bernoulli_population, profile):
        # each pair's apply draws from its own child stream: the result is
        # seeded, worker-count invariant, and about half the pairs (those
        # whose channel A was rewritten) deliver a system pfd of 0
        kwargs = dict(n_replications=400, rng=13, chunk_size=50)
        campaign = DevelopmentCampaign([_CoinRepair()])
        value = campaign.mean_final_system_pfd(
            bernoulli_population, profile, **kwargs
        )
        assert value == campaign.mean_final_system_pfd(
            bernoulli_population, profile, n_jobs=2, **kwargs
        )
        untested = DevelopmentCampaign([_Idle()]).mean_final_system_pfd(
            bernoulli_population, profile, **kwargs
        )
        assert 0.3 * untested < value < 0.7 * untested

    def test_back_to_back_comparator_subclass_honoured(
        self, generator, bernoulli_population, profile
    ):
        # the block path models only the exact comparator from its output
        # model; a subclass runs per row, as it does in run()
        kwargs = dict(n_replications=200, rng=17)
        silent = DevelopmentCampaign(
            [BackToBackActivity(generator, _SilentComparator(shared_fault_outputs()))]
        )
        untested = DevelopmentCampaign([_Idle()]).mean_final_system_pfd(
            bernoulli_population, profile, **kwargs
        )
        assert silent.mean_final_system_pfd(
            bernoulli_population, profile, **kwargs
        ) == untested

    def test_compiled_engine_rejected(
        self, full_campaign, bernoulli_population, profile
    ):
        # engine= is retired: every name is an unknown keyword
        for engine in ("compiled", "gpu", "scalar"):
            with pytest.raises(TypeError, match="engine"):
                full_campaign.mean_final_system_pfd(
                    bernoulli_population, profile, n_replications=20, engine=engine
                )
