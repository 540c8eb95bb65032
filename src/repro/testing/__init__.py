"""Testing substrate: suites, generation measures ``M(·)``, oracles, fixing.

Section 2 of the paper decomposes testing into (i) a test suite, (ii) a
judging mechanism and (iii) fault-removal actions.  Those are, in order,
:class:`TestSuite` objects produced by :class:`SuiteGenerator` subclasses
(the measure ``M(·)``), :class:`Oracle` implementations (perfect /
imperfect / back-to-back), and :class:`FixingPolicy` implementations
(perfect / imperfect).  :func:`apply_testing` runs one version through one
suite under a chosen oracle and fixing policy; :func:`back_to_back_testing`
runs a version *pair* through one suite with mismatch-based detection.
"""

from .suite import TestSuite
from .generators import (
    EnumerableSuiteGenerator,
    ExhaustiveSuiteGenerator,
    OperationalSuiteGenerator,
    SuiteGenerator,
    WeightedDebugGenerator,
    WithoutReplacementGenerator,
)
from .oracle import BackToBackComparator, ImperfectOracle, Oracle, PerfectOracle
from .fixing import FixingPolicy, ImperfectFixing, PerfectFixing
from .engine import TestingOutcome, apply_testing, back_to_back_testing

__all__ = [
    "TestSuite",
    "SuiteGenerator",
    "OperationalSuiteGenerator",
    "WithoutReplacementGenerator",
    "WeightedDebugGenerator",
    "ExhaustiveSuiteGenerator",
    "EnumerableSuiteGenerator",
    "Oracle",
    "PerfectOracle",
    "ImperfectOracle",
    "BackToBackComparator",
    "FixingPolicy",
    "PerfectFixing",
    "ImperfectFixing",
    "apply_testing",
    "back_to_back_testing",
    "TestingOutcome",
]
