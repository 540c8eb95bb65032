"""Combined development activities (paper §5, closing paragraph).

"In practical software development a combination of different activities is
utilised which introduce sources of dependence between the channels.  We
intend to study the effect of applying more than one activity to the
diverse channels and the interplay between their individual characteristics
(e.g. efficacy) and mutual diversity."

A :class:`DevelopmentCampaign` is an ordered sequence of *activities*
applied to a concrete two-channel system: shared or independent testing
stages, back-to-back sessions, clarification broadcasts, and mistake
injections.  Running a campaign yields a step-by-step trajectory of channel
and system reliability, making the interplay the paper asks about directly
observable; averaging over version pairs gives the population view.

The population view (:meth:`DevelopmentCampaign.mean_final_system_pfd`)
runs on the batch Monte-Carlo engine: every built-in activity implements
:meth:`Activity.apply_batch`, transforming whole fault-matrix blocks with
the kernels of :mod:`repro.mc.batch`, so a campaign sweep costs a handful
of matrix operations per activity instead of a Python loop per version
pair.  Testing stages with custom oracle/fixing policies, and custom
activities, run on the blocks' per-row plan.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import ModelError
from ..mc import batch as _batch
from ..mc.experiments import _check_replications
from ..rng import as_generator, spawn_many
from ..testing import (
    BackToBackComparator,
    FixingPolicy,
    Oracle,
    SuiteGenerator,
    apply_testing,
    back_to_back_testing,
)
from ..types import SeedLike
from ..versions import Version
from ..populations import VersionPopulation
from .clarification import ClarificationProcess
from .mistakes import SpecificationMistake

__all__ = [
    "Activity",
    "SharedTestingActivity",
    "IndependentTestingActivity",
    "BackToBackActivity",
    "ClarificationActivity",
    "PerTeamClarificationActivity",
    "MistakeActivity",
    "CampaignStep",
    "CampaignTrajectory",
    "DevelopmentCampaign",
]


class Activity(abc.ABC):
    """One step of a development campaign, acting on a version pair."""

    @property
    @abc.abstractmethod
    def kind(self) -> str:
        """Short label for trajectory reports."""

    @abc.abstractmethod
    def apply(
        self,
        version_a: Version,
        version_b: Version,
        rng: np.random.Generator,
    ) -> Tuple[Version, Version]:
        """Run the activity; return the evolved version pair."""

    def apply_batch(
        self,
        faults_a: np.ndarray,
        faults_b: np.ndarray,
        universe_a,
        universe_b,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the activity on whole ``(R, F)`` fault-matrix blocks.

        The block counterpart of :meth:`apply`: row ``r`` of the two
        matrices is replication ``r``'s version pair.  Overrides must
        preserve :meth:`apply`'s randomness *structure* (what is
        shared between channels vs drawn independently), not its exact
        stream consumption.  The default is the per-row plan
        (:func:`repro.mc.batch._per_row`): :meth:`apply` on each row's
        version pair, with child ``r`` of ``rng``.
        """
        return _batch._per_row(
            lambda _row, stream, version_a, version_b: self.apply(
                version_a, version_b, stream
            ),
            (faults_a, faults_b),
            (universe_a, universe_b),
            rng,
        )


class _TestingActivity(Activity):
    """A testing stage: suites drawn from ``M``, one oracle/fixing pair.

    Both channels run one shared suite when ``_shares_suite``, else one
    suite each.
    """

    _shares_suite: bool

    def __init__(
        self,
        generator: SuiteGenerator,
        oracle: Oracle | None = None,
        fixing: FixingPolicy | None = None,
    ) -> None:
        self._generator = generator
        self._oracle = oracle
        self._fixing = fixing

    def _streams(self, rng):
        """``(suite_streams, test_a, test_b)``: one or two suite streams,
        then one testing stream per channel."""
        streams = spawn_many(rng, 3 if self._shares_suite else 4)
        return streams[:-2], streams[-2], streams[-1]

    def apply(self, version_a, version_b, rng):
        suite_streams, test_a, test_b = self._streams(rng)
        suites = [self._generator.sample(stream) for stream in suite_streams]
        after_a = apply_testing(
            version_a, suites[0], self._oracle, self._fixing, rng=test_a
        ).after
        after_b = apply_testing(
            version_b, suites[-1], self._oracle, self._fixing, rng=test_b
        ).after
        return after_a, after_b

    def apply_batch(self, faults_a, faults_b, universe_a, universe_b, rng):
        plan = _batch._testing_plan(self._oracle, self._fixing)
        suite_streams, test_a, test_b = self._streams(rng)
        suites = [
            _batch._draw_plan_suites(plan, self._generator, faults_a.shape[0], stream)
            for stream in suite_streams
        ]
        return (
            _batch._apply_plan_batch(plan, faults_a, suites[0], universe_a, test_a),
            _batch._apply_plan_batch(plan, faults_b, suites[-1], universe_b, test_b),
        )


class SharedTestingActivity(_TestingActivity):
    """One suite drawn from ``M`` and run against both channels."""

    _shares_suite = True

    @property
    def kind(self) -> str:
        return "shared testing"


class IndependentTestingActivity(_TestingActivity):
    """Each channel tested on its own draw from ``M``."""

    _shares_suite = False

    @property
    def kind(self) -> str:
        return "independent testing"


class BackToBackActivity(Activity):
    """A cross-checking session on one shared suite (no external oracle)."""

    def __init__(
        self,
        generator: SuiteGenerator,
        comparator: BackToBackComparator,
        fixing: FixingPolicy | None = None,
    ) -> None:
        self._generator = generator
        self._comparator = comparator
        self._fixing = fixing

    @property
    def kind(self) -> str:
        return "back-to-back"

    def apply(self, version_a, version_b, rng):
        streams = spawn_many(rng, 2)
        suite = self._generator.sample(streams[0])
        outcome_a, outcome_b = back_to_back_testing(
            version_a,
            version_b,
            suite,
            self._comparator,
            self._fixing,
            rng=streams[1],
        )
        return outcome_a.after, outcome_b.after

    def apply_batch(self, faults_a, faults_b, universe_a, universe_b, rng):
        streams = spawn_many(rng, 2)
        sequences = self._generator.sample_demand_sequences(
            faults_a.shape[0], streams[0]
        )
        return _batch.back_to_back_batch(
            faults_a,
            faults_b,
            sequences,
            universe_a,
            universe_b,
            self._comparator,
            self._fixing,
            rng=streams[1],
        )


class ClarificationActivity(Activity):
    """A clarification drawn from the process and broadcast to both teams."""

    def __init__(self, process: ClarificationProcess) -> None:
        self._process = process

    @property
    def kind(self) -> str:
        return "clarification"

    def apply(self, version_a, version_b, rng):
        suite = self._process.generator.sample(rng)
        after_a = apply_testing(version_a, suite).after
        after_b = apply_testing(version_b, suite).after
        return after_a, after_b

    def apply_batch(self, faults_a, faults_b, universe_a, universe_b, rng):
        masks = self._process.generator.sample_demand_masks(
            faults_a.shape[0], rng
        )
        return (
            _batch.apply_testing_batch(faults_a, masks, universe_a),
            _batch.apply_testing_batch(faults_b, masks, universe_b),
        )


class PerTeamClarificationActivity(Activity):
    """Each team independently discovers and resolves its own ambiguity.

    The diversity-preserving counterfactual to
    :class:`ClarificationActivity`: two independent draws from the same
    clarification process, one per channel.
    """

    def __init__(self, process: ClarificationProcess) -> None:
        self._process = process

    @property
    def kind(self) -> str:
        return "per-team clarification"

    def apply(self, version_a, version_b, rng):
        streams = spawn_many(rng, 2)
        suite_a = self._process.generator.sample(streams[0])
        suite_b = self._process.generator.sample(streams[1])
        after_a = apply_testing(version_a, suite_a).after
        after_b = apply_testing(version_b, suite_b).after
        return after_a, after_b

    def apply_batch(self, faults_a, faults_b, universe_a, universe_b, rng):
        streams = spawn_many(rng, 2)
        masks_a = self._process.generator.sample_demand_masks(
            faults_a.shape[0], streams[0]
        )
        masks_b = self._process.generator.sample_demand_masks(
            faults_b.shape[0], streams[1]
        )
        return (
            _batch.apply_testing_batch(faults_a, masks_a, universe_a),
            _batch.apply_testing_batch(faults_b, masks_b, universe_b),
        )


class MistakeActivity(Activity):
    """A wrong common instruction: the mistake's faults enter both channels."""

    def __init__(self, mistake: SpecificationMistake) -> None:
        self._mistake = mistake

    @property
    def kind(self) -> str:
        return "common mistake"

    def apply(self, version_a, version_b, rng):
        ids = np.asarray(self._mistake.fault_ids, dtype=np.int64)
        return version_a.with_faults(ids), version_b.with_faults(ids)

    def apply_batch(self, faults_a, faults_b, universe_a, universe_b, rng):
        after_a = np.array(faults_a, dtype=bool)
        after_b = np.array(faults_b, dtype=bool)
        after_a[:, universe_a.validate_fault_ids(np.asarray(self._mistake.fault_ids))] = True
        after_b[:, universe_b.validate_fault_ids(np.asarray(self._mistake.fault_ids))] = True
        return after_a, after_b


@dataclass(frozen=True)
class CampaignStep:
    """System state after one campaign activity.

    ``step`` 0 is the initial state with ``kind = "initial"``.
    """

    step: int
    kind: str
    pfd_a: float
    pfd_b: float
    system_pfd: float
    faults_a: int
    faults_b: int


@dataclass(frozen=True)
class CampaignTrajectory:
    """The per-step history of one campaign run."""

    steps: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> CampaignStep:
        return self.steps[index]

    @property
    def final(self) -> CampaignStep:
        """State after the last activity."""
        return self.steps[-1]

    def system_pfds(self) -> np.ndarray:
        """System pfd by step."""
        return np.array([step.system_pfd for step in self.steps])

    def degrading_steps(self) -> List[CampaignStep]:
        """Steps that made the *system* worse (only mistakes can)."""
        out = []
        for previous, current in zip(self.steps, self.steps[1:]):
            if current.system_pfd > previous.system_pfd + 1e-15:
                out.append(current)
        return out


class DevelopmentCampaign(object):
    """An ordered sequence of activities applied to a two-channel system."""

    def __init__(self, activities: Sequence[Activity]) -> None:
        activities = list(activities)
        if not activities:
            raise ModelError("a campaign needs at least one activity")
        for index, activity in enumerate(activities):
            if not isinstance(activity, Activity):
                raise ModelError(f"item {index} is not an Activity")
        self._activities = activities

    @property
    def activities(self) -> List[Activity]:
        """The campaign plan (copy)."""
        return list(self._activities)

    def run(
        self,
        version_a: Version,
        version_b: Version,
        profile: UsageProfile,
        rng: SeedLike = None,
    ) -> CampaignTrajectory:
        """Run the campaign on one concrete version pair."""
        rng = as_generator(rng)

        def snapshot(step: int, kind: str, a: Version, b: Version) -> CampaignStep:
            joint = a.failure_mask & b.failure_mask
            return CampaignStep(
                step=step,
                kind=kind,
                pfd_a=a.pfd(profile),
                pfd_b=b.pfd(profile),
                system_pfd=float(profile.probabilities[joint].sum()),
                faults_a=a.n_faults,
                faults_b=b.n_faults,
            )

        current_a, current_b = version_a, version_b
        steps = [snapshot(0, "initial", current_a, current_b)]
        for index, activity in enumerate(self._activities, start=1):
            current_a, current_b = activity.apply(
                current_a, current_b, as_generator(rng)
            )
            steps.append(snapshot(index, activity.kind, current_a, current_b))
        return CampaignTrajectory(tuple(steps))

    def mean_final_system_pfd_estimator(
        self,
        population_a: VersionPopulation,
        profile: UsageProfile,
        population_b: VersionPopulation | None = None,
        n_replications: int = 200,
        rng: SeedLike = None,
        chunk_size: int | None = None,
        n_jobs: int = 1,
    ):
        """The final-system-pfd average as a full
        :class:`~repro.mc.MeanEstimator`.

        The estimator form carries the spread alongside the mean, so sweep
        records and experiment tables can report confidence half-widths
        for campaign comparisons, not just point values.

        The whole average is computed on fault-matrix blocks — each
        activity transforms the entire replication block at once
        (:meth:`Activity.apply_batch`).
        """
        _check_replications(n_replications)
        population_b = population_b if population_b is not None else population_a
        kernel = partial(_campaign_chunk, self, population_a, population_b, profile)
        return _batch._accumulate_mean(
            _batch._run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
        )

    def mean_final_system_pfd(
        self,
        population_a: VersionPopulation,
        profile: UsageProfile,
        population_b: VersionPopulation | None = None,
        n_replications: int = 200,
        rng: SeedLike = None,
        chunk_size: int | None = None,
        n_jobs: int = 1,
    ) -> float:
        """Average final system pfd over random version pairs.

        Point-value form of :meth:`mean_final_system_pfd_estimator` (same
        randomness: a given ``rng`` yields the identical mean).
        """
        return self.mean_final_system_pfd_estimator(
            population_a,
            profile,
            population_b=population_b,
            n_replications=n_replications,
            rng=rng,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
        ).mean


def _campaign_block(
    campaign: DevelopmentCampaign,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    count: int,
    root: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` version pairs and run the whole campaign on them.

    Returns ``(faults_a, faults_b, evolved_a, evolved_b)``: the drawn and
    the delivered fault blocks.  Mirrors the per-pair randomness structure:
    one child of ``root`` per channel's version block, then one child
    stream per activity in plan order.
    """
    streams = spawn_many(root, 3)
    faults_a = population_a.sample_fault_matrix(count, streams[0])
    faults_b = population_b.sample_fault_matrix(count, streams[1])
    evolved_a, evolved_b = faults_a, faults_b
    activities = campaign.activities
    for activity, stream in zip(activities, spawn_many(streams[2], len(activities))):
        evolved_a, evolved_b = activity.apply_batch(
            evolved_a,
            evolved_b,
            population_a.universe,
            population_b.universe,
            stream,
        )
    return faults_a, faults_b, evolved_a, evolved_b


def _campaign_chunk(
    campaign: DevelopmentCampaign,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile: UsageProfile,
    task: Tuple[int, int],
) -> Tuple[int, float, float]:
    """One chunk of whole-campaign replications → Welford ``(n, mean, m2)``.

    Module level so process pools can pickle it.
    """
    count, seed = task
    _faults_a, _faults_b, evolved_a, evolved_b = _campaign_block(
        campaign, population_a, population_b, count, as_generator(seed)
    )
    return _batch._reduce_values(
        _batch._joint_masses(profile, population_a, population_b, evolved_a, evolved_b)
    )
