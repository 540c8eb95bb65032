"""The testing engine: run versions through suites and evolve them.

This module turns the paper's narrative testing process into code.  For the
perfect case the outcome is order-independent and computed set-wise (every
fault whose region the suite hits is removed); for imperfect oracles or
fixing, and for back-to-back testing, demands are processed in suite order
because detection and repair depend on the evolving state.

The central guarantee — the paper's score monotonicity
``υ(π, x, ∅) ≥ υ(π, x, t)`` — holds for every policy combination here
because no policy can add faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..rng import as_generator
from ..types import SeedLike
from ..versions import Version
from .fixing import FixingPolicy, PerfectFixing
from .oracle import BackToBackComparator, Oracle, PerfectOracle
from .suite import TestSuite

__all__ = ["TestingOutcome", "apply_testing", "back_to_back_testing"]


@dataclass(frozen=True)
class TestingOutcome:
    """The result of running one version through one suite.

    Attributes
    ----------
    before:
        The version as submitted to testing.
    after:
        The version with detected-and-fixed faults removed.
    detected_failures:
        Number of (demand-execution, detection) events; a demand executed
        twice and failing twice with detection both times counts twice.
    removed_fault_ids:
        Identifiers of faults removed over the whole run.
    """

    __test__ = False  # prevent pytest collection (library class)

    before: Version
    after: Version
    detected_failures: int
    removed_fault_ids: np.ndarray

def apply_testing(
    version: Version,
    suite: TestSuite,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    rng: SeedLike = None,
) -> TestingOutcome:
    """Test ``version`` with ``suite``; return the evolved version.

    Parameters
    ----------
    version:
        The program version submitted to testing.
    suite:
        The test suite to execute (in order).
    oracle:
        Failure-detection mechanism; defaults to :class:`PerfectOracle`.
    fixing:
        Fault-removal policy; defaults to :class:`PerfectFixing`.
    rng:
        Randomness for imperfect oracles/fixing; unused in the perfect case.

    Notes
    -----
    With the default perfect oracle and perfect fixing this implements the
    paper's §3 process exactly, and a fast set-wise path is taken: the
    outcome is the version minus every fault triggered by the suite.  With
    imperfect components, demands are executed in order, re-evaluating the
    current version each time — a fault missed once can be caught by a
    later demand in its region.
    """
    oracle = oracle if oracle is not None else PerfectOracle()
    fixing = fixing if fixing is not None else PerfectFixing()

    if isinstance(oracle, PerfectOracle) and isinstance(fixing, PerfectFixing):
        triggered = version.universe.triggered_by(suite.unique_demands)
        removed = np.intersect1d(triggered, version.fault_ids, assume_unique=True)
        after = version.without_faults(removed)
        detected = int(np.count_nonzero(version.failure_mask[suite.demands]))
        return TestingOutcome(version, after, detected, removed)

    generator = as_generator(rng)
    current = version
    removed_ids: List[int] = []
    detected = 0
    for demand in suite:
        if not current.fails_on(demand):
            continue
        if not oracle.detects(current, demand, generator):
            continue
        detected += 1
        removed = fixing.faults_removed(current, demand, generator)
        if removed.size:
            removed_ids.extend(int(f) for f in removed)
            current = current.without_faults(removed)
    removed_array = np.unique(np.asarray(removed_ids, dtype=np.int64))
    return TestingOutcome(version, current, detected, removed_array)


def back_to_back_testing(
    first: Version,
    second: Version,
    suite: TestSuite,
    comparator: BackToBackComparator,
    fixing: FixingPolicy | None = None,
    rng: SeedLike = None,
) -> Tuple[TestingOutcome, TestingOutcome]:
    """Test a version pair back-to-back on one suite (§4.2).

    Both versions execute each demand in order; a demand is flagged only if
    the comparator sees a mismatch, in which case every failing version has
    its causing faults submitted to the fixing policy.  Coincident
    *identical* failures (per the comparator's output model) pass silently
    — the mechanism by which back-to-back testing can leave system
    reliability untouched while version reliability improves.

    Returns the pair of per-version outcomes.
    """
    fixing = fixing if fixing is not None else PerfectFixing()
    generator = as_generator(rng)
    current_first = first
    current_second = second
    removed_first: List[int] = []
    removed_second: List[int] = []
    detected_first = 0
    detected_second = 0
    for demand in suite:
        flag_first, flag_second = comparator.detected_failures(
            current_first, current_second, demand
        )
        if flag_first:
            detected_first += 1
            removed = fixing.faults_removed(current_first, demand, generator)
            if removed.size:
                removed_first.extend(int(f) for f in removed)
                current_first = current_first.without_faults(removed)
        if flag_second:
            detected_second += 1
            removed = fixing.faults_removed(current_second, demand, generator)
            if removed.size:
                removed_second.extend(int(f) for f in removed)
                current_second = current_second.without_faults(removed)
    outcome_first = TestingOutcome(
        first,
        current_first,
        detected_first,
        np.unique(np.asarray(removed_first, dtype=np.int64)),
    )
    outcome_second = TestingOutcome(
        second,
        current_second,
        detected_second,
        np.unique(np.asarray(removed_second, dtype=np.int64)),
    )
    return outcome_first, outcome_second
