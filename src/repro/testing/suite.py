"""Test suites.

A test suite ``t ∈ Ξ`` is a finite sequence of demands.  Order matters only
for imperfect processes (an imperfect oracle may miss a failure the first
time; back-to-back detection depends on the evolving version pair), so the
suite keeps its draw order while exposing the demand *set* for the perfect
analyses, where only membership matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..demand import DemandSpace
from ..errors import ModelError

__all__ = ["TestSuite"]


@dataclass(frozen=True)
class TestSuite:
    """An ordered sequence of test demands over a demand space.

    Parameters
    ----------
    space:
        The demand space.
    demands:
        Demand indices in execution order; repeats allowed (a demand drawn
        twice from the operational profile is executed twice — a repeat is
        simply ineffective under a perfect oracle).
    """

    __test__ = False  # prevent pytest collection (library class)

    space: DemandSpace
    demands: np.ndarray
    _unique: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        demands = np.asarray(self.demands, dtype=np.int64).reshape(-1)
        if demands.size and (demands.min() < 0 or demands.max() >= self.space.size):
            raise ModelError(
                f"suite contains demands outside space of size {self.space.size}"
            )
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "_unique", np.unique(demands))

    @classmethod
    def empty(cls, space: DemandSpace) -> "TestSuite":
        """The empty suite — the paper's "before testing" marker ``∅``."""
        return cls(space, np.empty(0, dtype=np.int64))

    @classmethod
    def of(cls, space: DemandSpace, demands: Sequence[int]) -> "TestSuite":
        """Suite from a plain sequence of demand indices."""
        return cls(space, np.asarray(list(demands), dtype=np.int64))

    def __len__(self) -> int:
        return int(self.demands.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.demands.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestSuite):
            return NotImplemented
        return self.space.size == other.space.size and np.array_equal(
            self.demands, other.demands
        )

    def __hash__(self) -> int:
        return hash((self.space.size, self.demands.tobytes()))

    @property
    def unique_demands(self) -> np.ndarray:
        """Sorted distinct demands — the suite as a set."""
        return self._unique

    def contains(self, demand: int) -> bool:
        """True iff ``demand`` is exercised by this suite."""
        demand = self.space.validate_demand(demand)
        index = np.searchsorted(self._unique, demand)
        return bool(index < self._unique.size and self._unique[index] == demand)

    def concatenate(self, other: "TestSuite") -> "TestSuite":
        """This suite followed by ``other`` — the §3.4.1 merged-suite operation.

        Merging two generated suites and running the union against both
        versions is the "twice as long a test" strategy the paper discusses
        in the cheap-execution cost scenario.
        """
        self.space.require_same(other.space)
        return TestSuite(self.space, np.concatenate([self.demands, other.demands]))

    def prefix(self, length: int) -> "TestSuite":
        """The first ``length`` demands — staged/growth analyses slice suites."""
        if length < 0:
            raise ModelError(f"prefix length must be >= 0, got {length}")
        return TestSuite(self.space, self.demands[:length])

    def mask(self) -> np.ndarray:
        """Boolean demand-membership vector over the space."""
        return self.space.indicator(self._unique)
