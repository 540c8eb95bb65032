"""Staged testing of concrete versions.

Where :mod:`repro.growth.curves` averages over the generative measures,
this module follows *one realised system* through a sequence of test
campaigns — the practitioner's view: submit the pair to acceptance testing,
fix what is found, submit again.  Each stage may use its own suite (and,
optionally, imperfect oracle/fixing); the trajectory records per-stage
reliability of both channels and of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.systems import OneOutOfTwoSystem
from ..demand import UsageProfile
from ..errors import ModelError
from ..rng import as_generator, spawn_many
from ..testing import FixingPolicy, Oracle, TestSuite, apply_testing
from ..types import SeedLike
from ..versions import Version

__all__ = ["StageRecord", "TestingTrajectory", "run_staged_testing"]


@dataclass(frozen=True)
class StageRecord:
    """State after one testing stage.

    Attributes
    ----------
    stage:
        Stage index (0 = before any testing).
    pfd_a, pfd_b:
        Channel pfds after the stage.
    system_pfd:
        1-out-of-2 system pfd after the stage.
    faults_a, faults_b:
        Fault counts remaining in each channel.
    detected_a, detected_b:
        Failures detected during the stage (0 for the initial record).
    """

    stage: int
    pfd_a: float
    pfd_b: float
    system_pfd: float
    faults_a: int
    faults_b: int
    detected_a: int
    detected_b: int


@dataclass(frozen=True)
class TestingTrajectory:
    """The full staged-testing history of one version pair."""

    __test__ = False  # prevent pytest collection (library class)

    records: Tuple[StageRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def system_pfds(self) -> np.ndarray:
        """System pfd per stage, as an array."""
        return np.array([record.system_pfd for record in self.records])

    def version_pfds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel pfd arrays ``(pfd_a_by_stage, pfd_b_by_stage)``."""
        return (
            np.array([record.pfd_a for record in self.records]),
            np.array([record.pfd_b for record in self.records]),
        )

    def is_monotone(self, tolerance: float = 1e-12) -> bool:
        """True iff no pfd ever increases across stages.

        Guaranteed under any oracle/fixing combination in this library,
        because fixing never introduces faults.
        """
        system = self.system_pfds()
        pfd_a, pfd_b = self.version_pfds()
        return bool(
            np.all(np.diff(system) <= tolerance)
            and np.all(np.diff(pfd_a) <= tolerance)
            and np.all(np.diff(pfd_b) <= tolerance)
        )


def run_staged_testing(
    version_a: Version,
    version_b: Version,
    suites: Sequence[Tuple[TestSuite, TestSuite]],
    profile: UsageProfile,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    rng: SeedLike = None,
) -> TestingTrajectory:
    """Run a version pair through successive testing stages.

    Parameters
    ----------
    version_a, version_b:
        The initial channels.
    suites:
        One ``(suite_for_a, suite_for_b)`` pair per stage; pass the same
        suite twice for a shared-suite stage.
    profile:
        Usage measure for the recorded pfds.
    oracle, fixing, rng:
        Optional imperfect-testing components (perfect by default).
    """
    if not suites:
        raise ModelError("at least one testing stage is required")
    rng = as_generator(rng)

    def record(stage: int, a: Version, b: Version, da: int, db: int) -> StageRecord:
        system = OneOutOfTwoSystem(a, b)
        pfd_a, pfd_b = system.channel_pfds(profile)
        return StageRecord(
            stage=stage,
            pfd_a=pfd_a,
            pfd_b=pfd_b,
            system_pfd=system.pfd(profile),
            faults_a=a.n_faults,
            faults_b=b.n_faults,
            detected_a=da,
            detected_b=db,
        )

    current_a = version_a
    current_b = version_b
    records: List[StageRecord] = [record(0, current_a, current_b, 0, 0)]
    for stage, (suite_a, suite_b) in enumerate(suites, start=1):
        stream_a, stream_b = spawn_many(rng, 2)
        outcome_a = apply_testing(current_a, suite_a, oracle, fixing, rng=stream_a)
        outcome_b = apply_testing(current_b, suite_b, oracle, fixing, rng=stream_b)
        current_a = outcome_a.after
        current_b = outcome_b.after
        records.append(
            record(
                stage,
                current_a,
                current_b,
                outcome_a.detected_failures,
                outcome_b.detected_failures,
            )
        )
    return TestingTrajectory(tuple(records))
