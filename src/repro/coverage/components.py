"""Component-structured programs over a fault universe.

A :class:`ComponentModel` partitions the faults of a
:class:`~repro.faults.FaultUniverse` into ``K`` components — the units a
coverage matrix covers and a localization policy repairs.  The demand
space is untouched: a component's *failure footprint* is simply the union
of its faults' regions, so every analytic and Monte-Carlo quantity of the
reproduction keeps its meaning when read per component.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..faults import FaultUniverse

__all__ = ["ComponentModel"]


def _line_buckets(lines: np.ndarray, n_components: int) -> np.ndarray:
    """Bucket source lines into contiguous components.

    Unique lines are sorted and split into ``n_components`` nearly-equal
    contiguous groups (later groups may be empty when there are fewer
    distinct lines than components); each item maps to its line's group.
    """
    unique = np.unique(lines)
    groups = np.array_split(unique, n_components)
    line_to_component = {}
    for component, group in enumerate(groups):
        for line in group:
            line_to_component[int(line)] = component
    return np.asarray(
        [line_to_component[int(line)] for line in lines], dtype=np.int64
    )


class ComponentModel:
    """``K`` components over a fault universe, as a per-fault assignment.

    Parameters
    ----------
    universe:
        The fault universe being structured.
    assignment:
        Length-``len(universe)`` integer vector; ``assignment[f]`` is the
        component (in ``0 .. n_components-1``) fault ``f`` lives in.
    n_components:
        Number of components.  Defaults to ``max(assignment) + 1``;
        passing it explicitly allows trailing empty components.
    """

    def __init__(
        self,
        universe: FaultUniverse,
        assignment: Sequence[int] | np.ndarray,
        n_components: int | None = None,
    ) -> None:
        ids = np.asarray(assignment, dtype=np.int64)
        if ids.shape != (len(universe),):
            raise ModelError(
                f"component assignment of shape {ids.shape} does not match "
                f"universe size {len(universe)}"
            )
        if n_components is None:
            n_components = int(ids.max()) + 1 if ids.size else 1
        if n_components < 1:
            raise ModelError(
                f"n_components must be >= 1, got {n_components}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= n_components):
            raise ModelError(
                f"component ids must lie in [0, {n_components}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        self._universe = universe
        self._assignment = ids
        self._assignment.setflags(write=False)
        self._n_components = int(n_components)

    # -- constructors ----------------------------------------------------

    @classmethod
    def round_robin(
        cls, universe: FaultUniverse, n_components: int
    ) -> "ComponentModel":
        """Fault ``f`` in component ``f % n_components`` — maximal mixing."""
        if n_components < 1:
            raise ModelError(f"n_components must be >= 1, got {n_components}")
        assignment = np.arange(len(universe), dtype=np.int64) % n_components
        return cls(universe, assignment, n_components)

    @classmethod
    def blocked(
        cls, universe: FaultUniverse, n_components: int
    ) -> "ComponentModel":
        """Contiguous fault-id blocks of near-equal size — maximal locality."""
        if n_components < 1:
            raise ModelError(f"n_components must be >= 1, got {n_components}")
        assignment = np.zeros(len(universe), dtype=np.int64)
        for component, block in enumerate(
            np.array_split(np.arange(len(universe)), n_components)
        ):
            assignment[block] = component
        return cls(universe, assignment, n_components)

    @classmethod
    def from_lines(
        cls,
        universe: FaultUniverse,
        lines: Sequence[int] | np.ndarray,
        n_components: int,
    ) -> "ComponentModel":
        """Components as contiguous source-line bands.

        ``lines[f]`` is the source line fault ``f`` was seeded at (for
        measured universes: the mutated line of mutant ``f``); unique
        lines are split into ``n_components`` contiguous bands, so faults
        on nearby lines share a component — the structure an empirical
        coverage matrix (same bucketing) localizes against.
        """
        if n_components < 1:
            raise ModelError(f"n_components must be >= 1, got {n_components}")
        lines = np.asarray(lines, dtype=np.int64)
        if lines.shape != (len(universe),):
            raise ModelError(
                f"line vector of shape {lines.shape} does not match "
                f"universe size {len(universe)}"
            )
        return cls(universe, _line_buckets(lines, n_components), n_components)

    # -- structure -------------------------------------------------------

    @property
    def universe(self) -> FaultUniverse:
        return self._universe

    @property
    def assignment(self) -> np.ndarray:
        """Read-only per-fault component ids, length ``len(universe)``."""
        return self._assignment

    @property
    def n_components(self) -> int:
        return self._n_components

    def faults_in(self, component: int) -> np.ndarray:
        """Fault ids assigned to ``component``, ascending."""
        if not 0 <= component < self._n_components:
            raise ModelError(
                f"component {component} outside [0, {self._n_components})"
            )
        return np.flatnonzero(self._assignment == component)

    def component_sizes(self) -> np.ndarray:
        """Number of faults per component, length ``n_components``."""
        return np.bincount(self._assignment, minlength=self._n_components)

    # -- demand-space footprint ------------------------------------------

    def component_masses(self, probabilities: np.ndarray) -> np.ndarray:
        """Summed per-fault region masses per component.

        The additive (multiplicity-counting) footprint: a demand covered
        by two of a component's faults contributes twice.  This is the
        natural size-bias a localization policy exploits — components
        holding large faults accumulate failing evidence fastest.
        """
        masses = self._universe.region_masses(np.asarray(probabilities))
        return np.bincount(
            self._assignment, weights=masses, minlength=self._n_components
        )

    def union_masses(self, probabilities: np.ndarray) -> np.ndarray:
        """Usage mass of each component's union failure region."""
        probabilities = np.asarray(probabilities, dtype=np.float64)
        out = np.zeros(self._n_components, dtype=np.float64)
        for component in range(self._n_components):
            mask = self._universe.union_mask(self.faults_in(component))
            out[component] = float(probabilities[mask].sum())
        return out

