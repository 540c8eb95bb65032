"""Test-suite generation procedures — the measure ``M(·)`` over ``Ξ``.

"Clearly, with a given selection criterion a multitude of test suites can be
generated, each being a particular realisation of a given test suite
generation procedure" (§2).  A :class:`SuiteGenerator` is such a procedure:
``sample`` draws a suite with the procedure's probability law.  Generators
that can also *enumerate* their law exactly (finite support with known
probabilities) additionally implement ``enumerate``, unlocking the exact
analytics; the rest raise :class:`NotEnumerableError` and are handled by
Monte Carlo.

Forced *testing* diversity (paper §3.2) is simply using two different
generator objects for the two channels.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .._hooks import honour_scalar
from ..demand import DemandSpace, UsageProfile
from ..errors import ModelError, NotEnumerableError, ProbabilityError
from ..rng import as_generator, inverse_cdf_indices, spawn_many
from ..types import SeedLike
from .suite import TestSuite

__all__ = [
    "SuiteGenerator",
    "OperationalSuiteGenerator",
    "WithoutReplacementGenerator",
    "WeightedDebugGenerator",
    "ExhaustiveSuiteGenerator",
    "EnumerableSuiteGenerator",
]

_SUM_TOLERANCE = 1e-9

#: padding value marking unused tail positions in a demand-sequence block
SEQUENCE_PAD = -1


def _sequence_block(suites: Sequence[TestSuite]) -> np.ndarray:
    """The suites' demand sequences as one ``-1``-right-padded int64 block."""
    width = max((len(suite) for suite in suites), default=0)
    block = np.full((len(suites), width), SEQUENCE_PAD, dtype=np.int64)
    for row, suite in enumerate(suites):
        block[row, : len(suite)] = suite.demands
    return block


class _SuiteRuns(NamedTuple):
    """``R`` suites over ``D`` demands as sorted runs: ``flat`` holds
    ``r * D + x`` for every demand ``x`` suite ``r`` executes, ascending (the
    C order of ``np.flatnonzero`` on the occurrence-count block), and
    ``counts`` how often — the imperfect-testing kernels' representation."""

    shape: Tuple[int, int]
    flat: np.ndarray
    counts: np.ndarray

    def masks(self) -> np.ndarray:
        """Boolean ``(R, D)`` demand-membership block."""
        masks = np.zeros(self.shape[0] * self.shape[1], dtype=bool)
        masks[self.flat] = True
        return masks.reshape(self.shape)


def _suite_runs(sequences: np.ndarray, n_demands: int) -> _SuiteRuns:
    """Sorted demand runs of a ``-1``-padded demand-sequence block.

    Sorting each row groups a demand's repeats; with the row offset
    ``r * n_demands`` added, keys ascend across the block.  Entries outside
    the space or below the ``-1`` padding raise :class:`ModelError`.
    """
    seqs = np.asarray(sequences, dtype=np.int64)
    if seqs.ndim != 2:
        raise ModelError(f"sequence block must be 2-D, got shape {seqs.shape}")
    low, high = (seqs.min(), seqs.max()) if seqs.size else (0, 0)
    if low < SEQUENCE_PAD or high >= n_demands:
        raise ModelError(
            f"sequence block contains demands outside space of size "
            f"{n_demands} (or invalid padding < -1)"
        )
    ordered = np.sort(seqs, axis=1)
    keys = ordered + (np.arange(seqs.shape[0]) * n_demands)[:, None]
    keys = keys[ordered >= 0] if low < 0 else keys.ravel()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = keys.size - starts[-1:]
    return _SuiteRuns((seqs.shape[0], n_demands), keys[starts], counts)


class SuiteGenerator(abc.ABC):
    """Abstract test-suite generation procedure over a demand space."""

    def __init__(self, space: DemandSpace) -> None:
        self._space = space

    def __init_subclass__(cls) -> None:
        blocks = ("sample_demand_masks", "sample_demand_sequences")
        honour_scalar(cls, SuiteGenerator, "sample", *blocks)

    @property
    def space(self) -> DemandSpace:
        """The demand space suites are drawn from."""
        return self._space

    @abc.abstractmethod
    def sample(self, rng: SeedLike = None) -> TestSuite:
        """Draw one suite according to the generation measure ``M``."""

    def sample_many(self, count: int, rng: SeedLike = None) -> List[TestSuite]:
        """Draw ``count`` independent suites.

        This is the library primitive behind the *independent test suites*
        regimes (paper §3.1): each suite comes from its own spawned stream.
        """
        generator = as_generator(rng)
        return [self.sample(stream) for stream in spawn_many(generator, count)]

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` independent suites as demand-membership masks.

        Returns a boolean ``[count, space.size]`` matrix whose row ``r`` is
        :meth:`TestSuite.mask` of the ``r``-th draw — the suite
        representation of the batch Monte-Carlo engine, sufficient for all
        perfect-oracle analyses (where only demand membership matters).
        The default loops :meth:`sample`; generators with vectorisable
        measures override it with a single block draw.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        masks = np.zeros((count, self._space.size), dtype=bool)
        for row, suite in enumerate(self.sample_many(count, rng)):
            masks[row, suite.unique_demands] = True
        return masks

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` independent suites as ordered demand sequences.

        Returns an int64 ``[count, max_length]`` matrix whose row ``r`` is
        the ``r``-th drawn suite in execution order, right-padded with
        ``-1`` when suites differ in length.  This is the suite
        representation of the *order-dependent* batch kernels — back-to-back
        testing replays demands left to right, so membership masks are not
        enough.  The default loops :meth:`sample`; generators with
        vectorisable measures override it with a single block draw.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        return _sequence_block(self.sample_many(count, rng))

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        """Yield ``(suite, probability)`` when the measure is enumerable.

        Raises
        ------
        NotEnumerableError
            By default; enumerable generators override.
        """
        raise NotEnumerableError(
            f"{type(self).__name__} does not support exact enumeration"
        )


class OperationalSuiteGenerator(SuiteGenerator):
    """Suites of ``n`` i.i.d. draws from the operational profile ``Q``.

    The paper's primary test model: "if operational reliability is targeted
    the test suites are generated using the expected operational profile".
    With this law, a fault with region mass ``q = Q(R_f)`` survives a random
    suite with probability ``(1 - q)**n`` — the hook the exact analytics
    use.
    """

    def __init__(self, profile: UsageProfile, size: int) -> None:
        super().__init__(profile.space)
        if size < 0:
            raise ModelError(f"suite size must be >= 0, got {size}")
        self._profile = profile
        self._size = size

    @property
    def profile(self) -> UsageProfile:
        """The profile suites draw their demands from."""
        return self._profile

    @property
    def size(self) -> int:
        """Number of demands per suite."""
        return self._size

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        if self._size == 0:
            return TestSuite.empty(self._space)
        demands = self._profile.sample(generator, size=self._size)
        return TestSuite(self._space, demands)

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites in one ``(count, size)`` i.i.d. profile draw,
        scattered into a boolean ``(count, space)`` membership matrix."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        masks = np.zeros((count, self._space.size), dtype=bool)
        if count and self._size:
            demands = self._profile.sample(
                as_generator(rng), size=(count, self._size)
            )
            np.put_along_axis(masks, demands, True, axis=1)
        return masks

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites as one ``(count, size)`` ordered block draw."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if count == 0 or self._size == 0:
            return np.empty((count, self._size), dtype=np.int64)
        return np.asarray(
            self._profile.sample(as_generator(rng), size=(count, self._size)),
            dtype=np.int64,
        )

class WithoutReplacementGenerator(SuiteGenerator):
    """Suites of ``n`` distinct demands, weighted by a profile.

    Models testers who never repeat a test case.  For ``n`` approaching the
    space size this approaches exhaustive testing.
    """

    def __init__(self, profile: UsageProfile, size: int) -> None:
        super().__init__(profile.space)
        if not 0 <= size <= profile.space.size:
            raise ModelError(
                f"suite size must be in 0..{profile.space.size}, got {size}"
            )
        if size > int(np.count_nonzero(profile.probabilities > 0)):
            raise ModelError(
                "suite size exceeds the number of demands with positive "
                "probability"
            )
        self._profile = profile
        self._size = size

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        if self._size == 0:
            return TestSuite.empty(self._space)
        demands = generator.choice(
            self._space.size,
            size=self._size,
            replace=False,
            p=self._profile.probabilities,
        )
        return TestSuite(self._space, demands)


class WeightedDebugGenerator(OperationalSuiteGenerator):
    """Suites drawn from a debug profile distinct from the usage profile.

    "If debugging is targeted the test suite is generated according to what
    the debugger believes maximises the chances of finding faults" (§2).
    The debug profile typically up-weights suspected failure regions.  The
    draw is the operational one — ``size`` i.i.d. demands — with the debug
    profile in place of ``Q``, so :attr:`profile` is the debug profile.
    """

    def __init__(self, debug_profile: UsageProfile, size: int) -> None:
        super().__init__(debug_profile, size)

    @classmethod
    def biased_towards(
        cls,
        profile: UsageProfile,
        hot_demands: Sequence[int] | np.ndarray,
        boost: float,
        size: int,
    ) -> "WeightedDebugGenerator":
        """Debug profile = usage profile with ``hot_demands`` boosted ×``boost``."""
        if boost <= 0:
            raise ProbabilityError(f"boost must be > 0, got {boost}")
        weights = profile.probabilities.copy()
        hot = profile.space.validate_demands(hot_demands)
        weights[hot] *= boost
        return cls(UsageProfile.normalised(profile.space, weights), size)


class ExhaustiveSuiteGenerator(SuiteGenerator):
    """The degenerate measure putting all mass on the exhaustive suite.

    Under perfect detection and fixing, exhaustive testing removes every
    fault — the limit in which the paper's back-to-back worst case makes
    the versions "fail identically" (here: not at all, unless detection is
    imperfect).
    """

    def sample(self, rng: SeedLike = None) -> TestSuite:
        return TestSuite(self._space, self._space.demands)

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Every suite covers every demand — an all-True block."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        return np.ones((count, self._space.size), dtype=bool)

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Every suite is the full demand space in index order."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        return np.tile(
            np.asarray(self._space.demands, dtype=np.int64), (count, 1)
        )

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        yield TestSuite(self._space, self._space.demands), 1.0


class EnumerableSuiteGenerator(SuiteGenerator):
    """An explicit finite measure ``M`` — suites with listed probabilities.

    The exact-analytics workhorse: expectations over ``Ξ`` (eqs. (12), (14),
    (20), (21)) become finite sums.  Also the natural encoding of scripted
    test campaigns where the possible suites are known in advance.
    """

    def __init__(
        self,
        space: DemandSpace,
        suites: Sequence[TestSuite],
        probabilities: Sequence[float] | np.ndarray,
    ) -> None:
        super().__init__(space)
        suites = list(suites)
        if not suites:
            raise ModelError("enumerable generator needs at least one suite")
        for index, suite in enumerate(suites):
            space.require_same(suite.space)
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (len(suites),):
            raise ModelError(
                f"got {len(suites)} suites but probability vector of shape "
                f"{probs.shape}"
            )
        if np.any(probs < 0.0) or np.any(~np.isfinite(probs)):
            raise ProbabilityError("suite probabilities must be finite and >= 0")
        if abs(float(probs.sum()) - 1.0) > _SUM_TOLERANCE:
            raise ProbabilityError(
                f"suite probabilities must sum to 1, got {probs.sum():.12f}"
            )
        self._suites = suites
        self._probs = probs
        self._cdf = np.cumsum(probs)
        self._mask_table: np.ndarray | None = None
        self._sequence_table: np.ndarray | None = None

    @classmethod
    def uniform_over(
        cls, space: DemandSpace, suites: Sequence[TestSuite]
    ) -> "EnumerableSuiteGenerator":
        """Equal probability over the listed suites."""
        suites = list(suites)
        return cls(space, suites, np.full(len(suites), 1.0 / len(suites)))

    def sample(self, rng: SeedLike = None) -> TestSuite:
        return self._suites[inverse_cdf_indices(self._cdf, rng)]

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Gather ``count`` rows from a cached per-suite mask table."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if self._mask_table is None:
            self._mask_table = np.stack([suite.mask() for suite in self._suites])
        return self._mask_table[inverse_cdf_indices(self._cdf, rng, count)]

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Gather ``count`` rows from a cached padded per-suite sequence table."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if self._sequence_table is None:
            self._sequence_table = _sequence_block(self._suites)
        return self._sequence_table[inverse_cdf_indices(self._cdf, rng, count)]

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        """Yield every ``(suite, probability)`` pair of the measure."""
        return zip(list(self._suites), self._probs.tolist())
