"""repro — reproduction of Popov & Littlewood, DSN 2004.

*The Effect of Testing on Reliability of Fault-Tolerant Software* models how
debugging changes the reliability of multi-version (design-diverse)
fault-tolerant software.  This library implements the paper's full
probabilistic framework plus the generative substrates needed to exercise
it: demand spaces and usage profiles, fault universes with failure regions,
version populations (the development measures ``S``), test-suite generators
(the testing measures ``M``), perfect and imperfect oracles and fixing,
back-to-back testing, exact analytics, Monte-Carlo estimation, and
reliability-growth studies.

Quickstart
----------
>>> import repro
>>> space = repro.DemandSpace(200)
>>> profile = repro.uniform_profile(space)
>>> universe = repro.clustered_universe(space, n_faults=30, region_size=6, rng=1)
>>> population = repro.BernoulliFaultPopulation.uniform(universe, 0.2)
>>> model = repro.ELModel.from_population(population, profile)
>>> model.prob_both_fail() >= model.prob_fail() ** 2  # Eckhardt-Lee inequality
True

See ``examples/`` for complete scenario scripts and ``DESIGN.md`` for the
paper-to-module map.
"""

from ._version import __version__
from .errors import (
    EmptyPopulationError,
    IncompatibleSpaceError,
    ModelError,
    NotEnumerableError,
    ProbabilityError,
    ReproError,
)
from .demand import (
    DemandSpace,
    UsageProfile,
    uniform_profile,
    zipf_profile,
)
from .faults import (
    Fault,
    FaultUniverse,
    clustered_universe,
    difficulty_from_bernoulli,
    disjoint_universe,
    overlapping_pair,
    tested_difficulty_given_suite,
    uniform_random_universe,
    zipf_sized_universe,
)
from .versions import (
    FailureOutputModel,
    Version,
    optimistic_outputs,
    pessimistic_outputs,
    shared_fault_outputs,
)
from .populations import (
    BernoulliFaultPopulation,
    FinitePopulation,
    Methodology,
    MethodologyPair,
    VersionPopulation,
)
from .testing import (
    BackToBackComparator,
    EnumerableSuiteGenerator,
    ExhaustiveSuiteGenerator,
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    Oracle,
    PerfectFixing,
    PerfectOracle,
    SuiteGenerator,
    TestSuite,
    TestingOutcome,
    WeightedDebugGenerator,
    WithoutReplacementGenerator,
    apply_testing,
    back_to_back_testing,
)
from .core import (
    BoundsReport,
    ELModel,
    ForcedTestingDiversity,
    IndependentSuites,
    LMModel,
    OneOutOfTwoSystem,
    SameSuite,
    TestedPopulationView,
    TestingRegime,
    imperfect_testing_bounds,
    joint_failure_probability,
    marginal_system_pfd,
)
from .adaptive import AdaptiveReport, PrecisionTarget

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ModelError",
    "ProbabilityError",
    "IncompatibleSpaceError",
    "NotEnumerableError",
    "EmptyPopulationError",
    # demand
    "DemandSpace",
    "UsageProfile",
    "uniform_profile",
    "zipf_profile",
    # faults
    "Fault",
    "FaultUniverse",
    "uniform_random_universe",
    "clustered_universe",
    "disjoint_universe",
    "zipf_sized_universe",
    "overlapping_pair",
    "difficulty_from_bernoulli",
    "tested_difficulty_given_suite",
    # versions
    "Version",
    "FailureOutputModel",
    "optimistic_outputs",
    "pessimistic_outputs",
    "shared_fault_outputs",
    # populations
    "VersionPopulation",
    "BernoulliFaultPopulation",
    "FinitePopulation",
    "Methodology",
    "MethodologyPair",
    # testing
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
    "PerfectFixing",
    "ImperfectFixing",
    "apply_testing",
    "back_to_back_testing",
    "TestingOutcome",
    # core
    "ELModel",
    "LMModel",
    "TestedPopulationView",
    "TestingRegime",
    "IndependentSuites",
    "SameSuite",
    "ForcedTestingDiversity",
    "OneOutOfTwoSystem",
    "joint_failure_probability",
    "marginal_system_pfd",
    # adaptive precision engine
    "AdaptiveReport",
    "PrecisionTarget",
    "BoundsReport",
    "imperfect_testing_bounds",
]
