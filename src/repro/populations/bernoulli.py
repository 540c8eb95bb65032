"""Bernoulli fault population.

A development methodology is summarised by a vector ``p`` of per-fault
inclusion probabilities: one development effort produces a version
containing fault ``f`` with probability ``p_f``, independently across
faults.  This is the simplest generative measure that

* makes independent version draws genuinely i.i.d. (the paper's eq. (3));
* yields **closed forms** for ``theta(x)``, ``xi(x, t)`` and — combined
  with i.i.d. operational suites — every moment the paper's results need
  (see :mod:`repro.analytic.bernoulli_exact`);
* expresses forced design diversity naturally: methodologies differ in
  their ``p`` vectors (possibly over overlapping fault sets).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import ModelError, NotEnumerableError
from ..faults import (
    FaultUniverse,
    difficulty_from_bernoulli,
    tested_difficulty_given_suite,
    tested_difficulty_matrix,
)
from ..faults.difficulty import _validate_presence_probs
from ..rng import as_generator
from ..types import SeedLike
from ..versions import Version
from .base import VersionPopulation

__all__ = ["BernoulliFaultPopulation"]

_MAX_ENUMERABLE_FAULTS = 14


class BernoulliFaultPopulation(VersionPopulation):
    """Versions as independent Bernoulli selections over a fault universe.

    Parameters
    ----------
    universe:
        The fault universe.
    presence_probs:
        Length-``len(universe)`` vector; ``presence_probs[f]`` is the
        probability that a random version contains fault ``f``.  A zero
        entry excludes the fault from this methodology entirely, which is
        how two methodologies over one universe model partially-overlapping
        fault propensities.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.demand import DemandSpace
    >>> from repro.faults import FaultUniverse
    >>> space = DemandSpace(4)
    >>> universe = FaultUniverse.from_regions(space, [[0, 1], [2]])
    >>> pop = BernoulliFaultPopulation(universe, [0.5, 0.25])
    >>> pop.difficulty()
    array([0.5 , 0.5 , 0.25, 0.  ])
    """

    def __init__(
        self,
        universe: FaultUniverse,
        presence_probs: Sequence[float] | np.ndarray,
    ) -> None:
        super().__init__(universe)
        self._probs = _validate_presence_probs(universe, presence_probs)

    @property
    def presence_probs(self) -> np.ndarray:
        """Per-fault inclusion probabilities (read-only copy)."""
        return self._probs.copy()

    @classmethod
    def uniform(
        cls, universe: FaultUniverse, probability: float
    ) -> "BernoulliFaultPopulation":
        """Every fault present with the same probability."""
        probs = np.full(len(universe), float(probability))
        return cls(universe, probs)

    def sample(self, rng: SeedLike = None) -> Version:
        """Draw a version: include each fault independently."""
        generator = as_generator(rng)
        include = generator.random(len(self._universe)) < self._probs
        return Version(self._universe, np.flatnonzero(include).astype(np.int64))

    def sample_fault_matrix(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` versions as one ``[count, n_faults]`` Bernoulli block.

        The whole replication batch is a single uniform draw compared
        against ``p`` — the vectorised form of eq. (3)'s i.i.d. development
        measure and the entry point of the batch Monte-Carlo engine.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        generator = as_generator(rng)
        return generator.random((count, len(self._universe))) < self._probs

    def difficulty(self) -> np.ndarray:
        """Closed-form ``theta(x)`` (see :func:`difficulty_from_bernoulli`)."""
        return difficulty_from_bernoulli(self._universe, self._probs)

    def tested_difficulty(
        self, suite_demands: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Closed-form ``xi(x, t)`` for a fixed suite ``t``."""
        return tested_difficulty_given_suite(
            self._universe, self._probs, suite_demands
        )

    def tested_difficulty_matrix(self, suite_masks: np.ndarray) -> np.ndarray:
        """Closed-form block ``xi`` (:func:`repro.faults.tested_difficulty_matrix`)."""
        return tested_difficulty_matrix(self._universe, self._probs, suite_masks)

    def enumerate(self) -> Iterable[Tuple[Version, float]]:
        """Yield every positive-probability version with its probability.

        The support is the power set of the faults with ``0 < p_f``, so
        enumeration is limited to universes with at most
        ``_MAX_ENUMERABLE_FAULTS`` such faults; beyond that, sample.
        Versions containing only impossible faults are skipped, and the
        yielded probabilities sum to one.
        """
        active = np.flatnonzero(self._probs > 0.0)
        if active.size > _MAX_ENUMERABLE_FAULTS:
            raise NotEnumerableError(
                f"{active.size} faults have positive probability; "
                f"enumeration is capped at {_MAX_ENUMERABLE_FAULTS}"
            )
        certain_mask = self._probs[active] >= 1.0
        for bits in range(1 << int(active.size)):
            probability = 1.0
            included = []
            skip = False
            for position, fault_id in enumerate(active):
                p = float(self._probs[fault_id])
                if bits >> position & 1:
                    probability *= p
                    included.append(int(fault_id))
                else:
                    if certain_mask[position]:
                        skip = True
                        break
                    probability *= 1.0 - p
            if skip or probability <= 0.0:
                continue
            yield Version(
                self._universe, np.asarray(included, dtype=np.int64)
            ), probability

    def expected_fault_count(self) -> float:
        """Mean number of faults per version — a cheap sanity statistic."""
        return float(self._probs.sum())

    def scaled(self, factor: float) -> "BernoulliFaultPopulation":
        """A population with all presence probabilities scaled by ``factor``.

        Clipped to ``[0, 1]``.  Useful for ablations sweeping overall
        fault-proneness at a fixed fault structure.
        """
        if factor < 0:
            raise ModelError(f"factor must be >= 0, got {factor}")
        return BernoulliFaultPopulation(
            self._universe, np.clip(self._probs * factor, 0.0, 1.0)
        )
