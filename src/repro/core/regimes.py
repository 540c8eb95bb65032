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
generative process — singly or as mask/sequence blocks — for the
Monte-Carlo layer.  The analytic layer reads the same regime's generators in
:func:`repro.core.joint.joint_failure_probability`, the one place the
per-demand joint failure probability of eqs. (16)–(21) is assembled, so
both layers describe the same experiment.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from .._hooks import honour_scalar
from ..errors import ModelError
from ..rng import as_generator, spawn_many
from ..testing import SuiteGenerator, TestSuite
from ..testing.generators import _sequence_block
from ..types import SeedLike

__all__ = [
    "TestingRegime",
    "IndependentSuites",
    "SameSuite",
    "ForcedTestingDiversity",
]


class TestingRegime(abc.ABC):
    """How the two channels' test suites are generated and shared."""

    __test__ = False  # prevent pytest collection (library class)

    def __init_subclass__(cls) -> None:
        blocks = ("draw_suite_masks", "_draw_suite_sequences")
        honour_scalar(cls, TestingRegime, "draw_suites", *blocks)

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

    def _draw_suite_sequences(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` suite pairs as two ``-1``-padded sequence blocks.

        The ordered analogue of :meth:`draw_suite_masks`, with the same
        streams and the regime's coupling (a shared-suite regime returns
        the *same* block twice).  The batch engine sorts these into demand
        runs for the imperfect-oracle/imperfect-fixing kernels, where
        repeated executions are repeated detection opportunities.  The
        default loops :meth:`draw_suites`; concrete regimes override with
        block draws.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        pairs = [
            self.draw_suites(stream)
            for stream in spawn_many(as_generator(rng), count)
        ]
        return _sequence_block([a for a, _ in pairs]), _sequence_block(
            [b for _, b in pairs]
        )

    @property
    @abc.abstractmethod
    def shares_suite(self) -> bool:
        """True iff both channels receive the same suite realisation."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable regime name for reports."""


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

    def _draw_suite_sequences(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator.sample_demand_sequences(count, stream_a),
            self._generator.sample_demand_sequences(count, stream_b),
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

    def _draw_suite_sequences(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        sequences = self._generator.sample_demand_sequences(count, as_generator(rng))
        return sequences, sequences


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

    def _draw_suite_sequences(
        self, count: int, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        generator = as_generator(rng)
        stream_a, stream_b = spawn_many(generator, 2)
        return (
            self._generator_a.sample_demand_sequences(count, stream_a),
            self._generator_b.sample_demand_sequences(count, stream_b),
        )
