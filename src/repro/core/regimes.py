"""Testing regimes as first-class objects.

The paper's §3 case analysis enumerates how the two channels' test suites
are related:

* :class:`IndependentSuites` — each channel tested on its own draw from the
  same measure ``M`` (§3.1);
* :class:`ForcedTestingDiversity` — each channel tested on a draw from its
  *own* measure ``M_TA`` / ``M_TB`` (§3.2);
* :class:`SameSuite` — both channels tested on one shared draw (§3.3), the
  acceptance-testing / back-to-back situation that induces dependence.

A regime knows how to draw the pair of suites for one replication of the
generative process — singly or as mask/count blocks — for the Monte-Carlo
layer.  The analytic layer reads the same regime's generators in
:func:`repro.core.joint.joint_failure_probability`, the one place the
per-demand joint failure probability of eqs. (16)–(21) is assembled, so
both layers describe the same experiment.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from ..errors import ModelError
from ..rng import as_generator, spawn_many
from ..testing import SuiteGenerator, TestSuite
from ..types import SeedLike

__all__ = [
    "TestingRegime",
    "IndependentSuites",
    "SameSuite",
    "ForcedTestingDiversity",
    "CoverageAwareRegime",
]


class TestingRegime(abc.ABC):
    """How the two channels' test suites are generated and shared."""

    __test__ = False  # prevent pytest collection (library class)

    @abc.abstractmethod
    def draw_suites(self, rng: SeedLike = None) -> Tuple[TestSuite, TestSuite]:
        """Draw the suite pair ``(t₁, t₂)`` for one replication."""

    def draw_suite_masks(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` suite pairs as two ``[count, space]`` mask blocks.

        Row ``r`` of the two returned boolean matrices is the demand mask of
        the pair ``(t₁, t₂)`` for replication ``r``, preserving the regime's
        coupling (a shared-suite regime returns the *same* block twice).
        This is the regime's contribution to the batch Monte-Carlo engine;
        the default loops :meth:`draw_suites`, concrete regimes override
        with block draws through their generators.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        generator = as_generator(rng)
        if count == 0:
            # size the empty blocks from a throwaway draw, matching the
            # (0, space) shape the concrete overrides return
            suite_a, _ = self.draw_suites(generator)
            empty = np.zeros((0, suite_a.space.size), dtype=bool)
            return empty, empty
        first = None
        second = None
        for row, stream in enumerate(spawn_many(generator, count)):
            suite_a, suite_b = self.draw_suites(stream)
            if first is None:
                first = np.zeros((count, suite_a.space.size), dtype=bool)
                second = np.zeros((count, suite_a.space.size), dtype=bool)
            first[row] = suite_a.mask()
            second[row] = suite_b.mask()
        return first, second

    def draw_suite_counts(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` suite pairs as two ``[count, space]`` count blocks.

        The occurrence-count analogue of :meth:`draw_suite_masks`: entry
        ``(r, x)`` is how often suite ``r`` executes demand ``x``, with the
        regime's coupling preserved (a shared-suite regime returns the same
        block twice).  This is the suite representation of the
        imperfect-oracle/imperfect-fixing batch kernels, where repeated
        executions are repeated detection opportunities.  The default loops
        :meth:`draw_suites`; concrete regimes override with block draws.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        generator = as_generator(rng)
        if count == 0:
            suite_a, _ = self.draw_suites(generator)
            empty = np.zeros((0, suite_a.space.size), dtype=np.int64)
            return empty, empty
        first = None
        second = None
        for row, stream in enumerate(spawn_many(generator, count)):
            suite_a, suite_b = self.draw_suites(stream)
            if first is None:
                first = np.zeros((count, suite_a.space.size), dtype=np.int64)
                second = np.zeros((count, suite_a.space.size), dtype=np.int64)
            np.add.at(first[row], suite_a.demands, 1)
            np.add.at(second[row], suite_b.demands, 1)
        return first, second

    @property
    @abc.abstractmethod
    def shares_suite(self) -> bool:
        """True iff both channels receive the same suite realisation."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable regime name for reports."""


class CoverageAwareRegime(TestingRegime):
    """A regime whose testing is limited by structural coverage.

    Decorates any base regime: suite drawing is delegated unchanged, but
    the regime carries a matched coverage (oracle, fixing) pair — e.g. from
    :func:`repro.coverage.coverage_testing_pair` — as the *default testing
    policies* of the experiment.  The Monte-Carlo entry points pick the
    pair up whenever the caller supplies no explicit oracle/fixing, so
    "test under regime R with coverage C" is a single object.

    The pair is only validated structurally (both members must expose the
    same ``fault_detection_probs`` tuple, the batch planner's recognition
    contract) — this module never imports :mod:`repro.coverage`.
    """

    def __init__(self, base: TestingRegime, oracle, fixing) -> None:
        if not isinstance(base, TestingRegime):
            raise ModelError(
                f"base must be a TestingRegime, got {type(base).__name__}"
            )
        oracle_probs = getattr(oracle, "fault_detection_probs", None)
        fixing_probs = getattr(fixing, "fault_detection_probs", None)
        if oracle_probs is None or fixing_probs is None or (
            tuple(float(p) for p in oracle_probs)
            != tuple(float(p) for p in fixing_probs)
        ):
            raise ModelError(
                "CoverageAwareRegime needs a matched coverage pair: oracle "
                "and fixing exposing the same fault_detection_probs (see "
                "repro.coverage.coverage_testing_pair)"
            )
        self._base = base
        self._oracle = oracle
        self._fixing = fixing

    @property
    def base(self) -> TestingRegime:
        """The decorated suite-drawing regime."""
        return self._base

    @property
    def testing_policies(self):
        """The default ``(oracle, fixing)`` pair for this regime."""
        return self._oracle, self._fixing

    @property
    def shares_suite(self) -> bool:
        return self._base.shares_suite

    @property
    def label(self) -> str:
        return f"coverage-aware {self._base.label}"

    def draw_suites(self, rng: SeedLike = None) -> Tuple[TestSuite, TestSuite]:
        return self._base.draw_suites(rng)

    def draw_suite_masks(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._base.draw_suite_masks(count, rng)

    def draw_suite_counts(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._base.draw_suite_counts(count, rng)


class IndependentSuites(TestingRegime):
    """Both channels tested on independent draws from one measure ``M``.

    Paper §3.1: conditional independence of version failures survives
    testing — eq. (16) (same population) / eq. (17) (forced design
    diversity).
    """

    def __init__(self, generator: SuiteGenerator) -> None:
        self._generator = generator

    @property
    def generator(self) -> SuiteGenerator:
        """The shared suite measure ``M``."""
        return self._generator

    @property
    def shares_suite(self) -> bool:
        return False

    @property
    def label(self) -> str:
        return "independent suites"

    def draw_suites(self, rng: SeedLike = None) -> Tuple[TestSuite, TestSuite]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return self._generator.sample(stream_a), self._generator.sample(stream_b)

    def draw_suite_masks(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator.sample_demand_masks(count, stream_a),
            self._generator.sample_demand_masks(count, stream_b),
        )

    def draw_suite_counts(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator.sample_demand_counts(count, stream_a),
            self._generator.sample_demand_counts(count, stream_b),
        )


class SameSuite(TestingRegime):
    """Both channels tested on one shared suite draw.

    Paper §3.3: "the use of a common test suite has induced dependence in
    their failure behaviour" — eq. (20) (same population, excess
    ``Var_T(ξ)``) / eq. (21) (forced design diversity, excess
    ``Cov_T(ξ_A, ξ_B)``).
    """

    def __init__(self, generator: SuiteGenerator) -> None:
        self._generator = generator

    @property
    def generator(self) -> SuiteGenerator:
        """The suite measure ``M`` both channels share."""
        return self._generator

    @property
    def shares_suite(self) -> bool:
        return True

    @property
    def label(self) -> str:
        return "same suite"

    def draw_suites(self, rng: SeedLike = None) -> Tuple[TestSuite, TestSuite]:
        suite = self._generator.sample(as_generator(rng))
        return suite, suite

    def draw_suite_masks(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        masks = self._generator.sample_demand_masks(count, as_generator(rng))
        return masks, masks

    def draw_suite_counts(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        counts = self._generator.sample_demand_counts(count, as_generator(rng))
        return counts, counts


class ForcedTestingDiversity(TestingRegime):
    """Each channel tested on an independent draw from its own measure.

    Paper §3.2: two generation procedures ``M_TA`` and ``M_TB``;
    conditional independence is again preserved — eq. (18) / eq. (19).
    """

    def __init__(
        self, generator_a: SuiteGenerator, generator_b: SuiteGenerator
    ) -> None:
        generator_a.space.require_same(generator_b.space)
        self._generator_a = generator_a
        self._generator_b = generator_b

    @property
    def generator_a(self) -> SuiteGenerator:
        """Channel A's suite measure ``M_TA``."""
        return self._generator_a

    @property
    def generator_b(self) -> SuiteGenerator:
        """Channel B's suite measure ``M_TB``."""
        return self._generator_b

    @property
    def shares_suite(self) -> bool:
        return False

    @property
    def label(self) -> str:
        return "forced testing diversity"

    def draw_suites(self, rng: SeedLike = None) -> Tuple[TestSuite, TestSuite]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator_a.sample(stream_a),
            self._generator_b.sample(stream_b),
        )

    def draw_suite_masks(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator_a.sample_demand_masks(count, stream_a),
            self._generator_b.sample_demand_masks(count, stream_b),
        )

    def draw_suite_counts(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator_a.sample_demand_counts(count, stream_a),
            self._generator_b.sample_demand_counts(count, stream_b),
        )
