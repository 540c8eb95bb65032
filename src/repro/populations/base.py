"""The population interface.

The abstract contract mirrors how the paper uses the measure ``S(·)``:
independent draws with replacement (the "urn model" of its ref. [4]), plus
expectations of score functions over the measure.  Implementations either
expose exact difficulty functions or raise :class:`NotEnumerableError` and
leave estimation to the Monte-Carlo layer.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .._hooks import honour_scalar
from ..demand import DemandSpace
from ..errors import IncompatibleSpaceError, ModelError, NotEnumerableError
from ..faults import FaultUniverse
from ..rng import as_generator, spawn_many
from ..types import SeedLike
from ..versions import Version

__all__ = ["VersionPopulation"]


class VersionPopulation(abc.ABC):
    """Abstract development measure ``S(·)`` over program versions.

    Concrete populations share a fault universe so that versions drawn from
    *different* populations (forced diversity) remain comparable demand-wise
    and can share faults.
    """

    def __init__(self, universe: FaultUniverse) -> None:
        self._universe = universe

    def __init_subclass__(cls) -> None:
        honour_scalar(cls, VersionPopulation, "sample", "sample_fault_matrix")

    @property
    def universe(self) -> FaultUniverse:
        """The fault universe versions are composed from."""
        return self._universe

    @property
    def space(self) -> DemandSpace:
        """The demand space of the underlying universe."""
        return self._universe.space

    @abc.abstractmethod
    def sample(self, rng: SeedLike = None) -> Version:
        """Draw one version — one independent development effort."""

    def sample_many(self, count: int, rng: SeedLike = None) -> List[Version]:
        """Draw ``count`` independent versions (with replacement).

        Independent child streams are used per draw so that the draws stay
        independent even if a sampler consumes a data-dependent amount of
        randomness.
        """
        generator = as_generator(rng)
        streams = spawn_many(generator, count)
        return [self.sample(stream) for stream in streams]

    def sample_fault_matrix(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` versions as a boolean fault-presence matrix.

        Returns a ``[count, n_faults]`` matrix whose row ``r`` marks the
        faults of the ``r``-th independently drawn version — the batch
        Monte-Carlo engine's representation of a replication block.  The
        default implementation loops :meth:`sample` (correct for any
        population); subclasses with vectorisable measures override it with
        a single array draw.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        matrix = np.zeros((count, len(self._universe)), dtype=bool)
        for row, version in enumerate(self.sample_many(count, rng)):
            matrix[row, version.fault_ids] = True
        return matrix

    @abc.abstractmethod
    def difficulty(self) -> np.ndarray:
        """Exact ``theta(x) = E_S[υ(Π, x)]`` (eq. (1)), per demand.

        Raises
        ------
        NotEnumerableError
            If the population cannot compute this exactly.
        """

    @abc.abstractmethod
    def tested_difficulty(self, suite_demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Exact ``xi(x, t) = E_S[υ(Π, x, t)]`` (eq. (13)) for a fixed suite.

        Under perfect detection/fixing a random version tested on ``t``
        fails on ``x`` iff it contains a fault covering ``x`` whose region
        ``t`` misses.

        Raises
        ------
        NotEnumerableError
            If the population cannot compute this exactly.
        """

    def tested_difficulty_matrix(self, suite_masks: np.ndarray) -> np.ndarray:
        """``xi(·, t_s)`` per row of a boolean ``[n_suites, n_demands]`` block.

        The default loops :meth:`tested_difficulty` over the rows;
        populations with a closed form override it with one block product.
        """
        masks = np.asarray(suite_masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.space.size:
            raise IncompatibleSpaceError(
                f"suite masks of shape {masks.shape} do not match demand "
                f"space size {self.space.size}"
            )
        xi = np.zeros(masks.shape, dtype=np.float64)
        for row, mask in enumerate(masks):
            xi[row] = self.tested_difficulty(np.flatnonzero(mask))
        return xi

    def enumerate(self) -> Iterable[Tuple[Version, float]]:
        """Yield ``(version, probability)`` pairs when finitely enumerable.

        Raises
        ------
        NotEnumerableError
            By default; finite populations override.
        """
        raise NotEnumerableError(
            f"{type(self).__name__} does not support exact enumeration"
        )

    def pfd(self, profile) -> float:
        """Marginal untested unreliability ``E_{S,Q}[υ(Π, X)]`` (eq. (2))."""
        return float(profile.expectation(self.difficulty()))
