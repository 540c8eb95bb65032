"""A fault and its failure region.

The paper's testing mechanics (section 3) revolve around the sets
``O_x = {f1, f2, ...}`` (faults causing a failure on demand ``x``) and
``D_X`` (all demands those faults break).  Making the fault-to-region map a
first-class object lets the testing engine implement exactly the described
behaviour: fixing a fault converts *every* demand in its region — "the
tested software will have more demands converted from failures to successes
than the number of failures observed during the testing".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..demand import DemandSpace
from ..errors import ModelError

__all__ = ["Fault"]


@dataclass(frozen=True)
class Fault:
    """A single fault: an identifier plus the demands it breaks.

    Parameters
    ----------
    space:
        Demand space the region lives in.
    region:
        Demand indices on which a version containing this fault fails.
        Must be non-empty — a fault with an empty region would be
        unobservable and irremovable, contributing nothing to any model.
    identifier:
        Index of this fault within its universe.  Also used by the
        back-to-back output model: coincident failures caused by the *same*
        fault are the canonical "identical failure" case.
    """

    space: DemandSpace
    region: np.ndarray
    identifier: int
    _mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        region = self.space.validate_demands(self.region)
        if region.size == 0:
            raise ModelError(f"fault {self.identifier} has an empty failure region")
        if self.identifier < 0:
            raise ModelError(f"fault identifier must be >= 0, got {self.identifier}")
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "_mask", self.space.indicator(region))

    @property
    def mask(self) -> np.ndarray:
        """Boolean indicator of the failure region over the demand space."""
        return self._mask

    @property
    def size(self) -> int:
        """Number of demands in the failure region."""
        return int(self.region.size)

    def covers(self, demand: int) -> bool:
        """True iff this fault causes a failure on ``demand``."""
        return bool(self._mask[self.space.validate_demand(demand)])

    def triggered_by(self, demands: Sequence[int] | np.ndarray) -> bool:
        """True iff any demand in ``demands`` lies in the failure region.

        This is the activation condition of the testing process: a suite
        containing any demand of the region reveals the fault (under a
        perfect oracle), after which perfect fixing removes it entirely.
        """
        demands = self.space.validate_demands(demands)
        return bool(self._mask[demands].any())

    def overlap(self, other: "Fault") -> int:
        """Number of demands in both failure regions."""
        self.space.require_same(other.space)
        return int(np.count_nonzero(self._mask & other._mask))
