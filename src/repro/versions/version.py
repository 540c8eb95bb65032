"""A program version as a set of faults.

The score function of the paper,

    υ(π, x) = 1 if π fails on x, 0 otherwise,

is realised as: π fails on x iff some fault of π covers x.  Debugging is a
*set operation*: removing a fault deletes its whole failure region from the
version's failure set, matching the paper's perfect-fixing mechanics where
"removing a fault will result in many demands ... being transformed into
ones that can [be executed correctly]".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..demand import UsageProfile
from ..faults import FaultUniverse

__all__ = ["Version"]


@dataclass(frozen=True)
class Version:
    """An immutable program version over a fault universe.

    Parameters
    ----------
    universe:
        The fault universe the version draws from.
    fault_ids:
        Identifiers of the faults this version contains.  The empty set is
        a correct program.

    Notes
    -----
    Versions are value objects: equality and hashing follow the fault set,
    so two versions with the same faults are the same version (the paper's
    population ``℘`` is a set of *distinct* programs; measures put
    probability on them).
    """

    universe: FaultUniverse
    fault_ids: np.ndarray
    _failure_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = self.universe.validate_fault_ids(self.fault_ids)
        object.__setattr__(self, "fault_ids", ids)
        object.__setattr__(self, "_failure_mask", self.universe.union_mask(ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self.universe is other.universe and np.array_equal(
            self.fault_ids, other.fault_ids
        )

    def __hash__(self) -> int:
        return hash((id(self.universe), self.fault_ids.tobytes()))

    @classmethod
    def correct(cls, universe: FaultUniverse) -> "Version":
        """The fault-free version."""
        return cls(universe, np.empty(0, dtype=np.int64))

    @classmethod
    def with_all_faults(cls, universe: FaultUniverse) -> "Version":
        """The version containing every fault in the universe."""
        return cls(universe, np.arange(len(universe), dtype=np.int64))

    @property
    def n_faults(self) -> int:
        """Number of faults in the version."""
        return int(self.fault_ids.size)

    @property
    def failure_mask(self) -> np.ndarray:
        """Boolean demand mask: True where the version fails."""
        return self._failure_mask

    @property
    def failure_set(self) -> np.ndarray:
        """Demand indices on which the version fails."""
        return np.flatnonzero(self._failure_mask).astype(np.int64)

    def score(self, demand: int) -> int:
        """The paper's score ``υ(π, x)``: 1 if the version fails on ``x``."""
        return int(self._failure_mask[self.universe.space.validate_demand(demand)])

    def scores(self, demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised scores over many demands (0/1 int array)."""
        demands = self.universe.space.validate_demands(demands)
        return self._failure_mask[demands].astype(np.int64)

    def fails_on(self, demand: int) -> bool:
        """Boolean form of :meth:`score`."""
        return bool(self.score(demand))

    def faults_causing_failure(self, demand: int) -> np.ndarray:
        """The paper's ``O_x`` for this version: its faults covering ``demand``."""
        demand = self.universe.space.validate_demand(demand)
        if self.fault_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        covering = self.universe.coverage[self.fault_ids, demand]
        return self.fault_ids[covering]

    def pfd(self, profile: UsageProfile) -> float:
        """Probability of failure on demand under usage profile ``Q``.

        This is the paper's ``η(π, ∅)`` (per-version unreliability before
        testing): ``sum_x υ(π, x) Q(x)``.
        """
        self.universe.space.require_same(profile.space)
        return float(profile.probabilities[self._failure_mask].sum())

    def without_faults(self, fault_ids: Sequence[int] | np.ndarray) -> "Version":
        """A new version with the given faults removed (perfect fixing).

        Removing faults the version does not contain is a no-op, matching
        the testing engine's semantics: fixing acts on detected faults,
        which are necessarily present.
        """
        removed = self.universe.validate_fault_ids(fault_ids)
        keep = np.setdiff1d(self.fault_ids, removed, assume_unique=True)
        return Version(self.universe, keep)

    def with_faults(self, fault_ids: Sequence[int] | np.ndarray) -> "Version":
        """A new version with additional faults (imperfect-fixing regressions)."""
        added = self.universe.validate_fault_ids(fault_ids)
        merged = np.union1d(self.fault_ids, added)
        return Version(self.universe, merged)
