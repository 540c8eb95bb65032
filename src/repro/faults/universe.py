"""The fault universe: every fault a version might contain.

The Bernoulli population model (``repro.populations.bernoulli``) draws a
version as a random subset of a :class:`FaultUniverse`.  The universe also
precomputes the dense fault-by-demand coverage matrix that all vectorised
analytics (difficulty functions, inclusion-exclusion closed forms, testing
closure) operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

import numpy as np

from ..demand import DemandSpace
from ..errors import IncompatibleSpaceError, ModelError
from ..types import as_index_array
from .fault import Fault

__all__ = ["FaultUniverse"]


def coverage_hits(rows: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """Boolean ``rows @ coverage > 0`` for 0/1 operands, on float32 BLAS.

    Exact at any size: each entry sums 0/1 terms, and a float32 sum of
    non-negative terms is positive iff one of them is.
    """
    return rows.astype(np.float32) @ coverage.astype(np.float32, copy=False) > 0.5


@dataclass(frozen=True)
class FaultUniverse:
    """An immutable, indexed collection of faults over one demand space.

    Parameters
    ----------
    space:
        The shared demand space.
    faults:
        Faults with identifiers ``0 .. len(faults)-1`` in order.  The
        constructor enforces the identifier convention so that boolean
        fault-presence vectors index consistently everywhere.
    """

    space: DemandSpace
    faults: tuple
    _coverage: np.ndarray = field(init=False, repr=False, compare=False)
    _coverage_casts: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for index, fault in enumerate(faults):
            if not isinstance(fault, Fault):
                raise ModelError(f"item {index} is not a Fault: {fault!r}")
            self.space.require_same(fault.space)
            if fault.identifier != index:
                raise ModelError(
                    f"fault at position {index} has identifier "
                    f"{fault.identifier}; identifiers must equal positions"
                )
        object.__setattr__(self, "faults", faults)
        if faults:
            coverage = np.stack([fault.mask for fault in faults])
        else:
            coverage = np.zeros((0, self.space.size), dtype=bool)
        object.__setattr__(self, "_coverage", coverage)

    @classmethod
    def from_regions(
        cls, space: DemandSpace, regions: Sequence[Sequence[int] | np.ndarray]
    ) -> "FaultUniverse":
        """Build a universe from raw failure regions (identifiers assigned)."""
        faults = tuple(
            Fault(space, np.asarray(region), identifier=index)
            for index, region in enumerate(regions)
        )
        return cls(space, faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __getitem__(self, index: int) -> Fault:
        return self.faults[index]

    @property
    def coverage(self) -> np.ndarray:
        """Boolean matrix ``[n_faults, n_demands]``; row ``f`` is fault ``f``'s region."""
        return self._coverage

    def faults_covering(self, demand: int) -> np.ndarray:
        """Identifiers of faults whose region contains ``demand``.

        This is the paper's ``O_x`` for the *maximal* version containing
        every fault; an actual version's ``O_x`` is the intersection with
        its fault set.
        """
        demand = self.space.validate_demand(demand)
        return np.flatnonzero(self._coverage[:, demand]).astype(np.int64)

    def coverage_counts(self) -> np.ndarray:
        """Per-demand count of faults covering each demand."""
        return self._coverage.sum(axis=0).astype(np.int64)

    def triggered_by(self, demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Identifiers of faults triggered by any demand in ``demands``.

        Under a perfect oracle and perfect fixing, these are exactly the
        faults that testing with suite ``demands`` removes from any version
        containing them.
        """
        demands = self.space.validate_demands(demands)
        if demands.size == 0:
            return np.empty(0, dtype=np.int64)
        hit = self._coverage[:, demands].any(axis=1)
        return np.flatnonzero(hit).astype(np.int64)

    def _coverage_float(self, dtype=np.float64) -> np.ndarray:
        """Float copy of the coverage matrix, cached per dtype.

        Chunked batch runs take one coverage product per chunk; converting
        the fixed matrix each time would be pure repeated work.  The 0/1
        products use float32 (:func:`coverage_hits`); the real-valued
        log-space ξ product needs float64.
        """
        cast = self._coverage_casts.get(dtype)
        if cast is None:
            cast = self._coverage_casts[dtype] = self._coverage.astype(dtype)
        return cast

    def triggered_matrix(self, suite_masks: np.ndarray) -> np.ndarray:
        """Batched :meth:`triggered_by`: which faults each suite triggers.

        Parameters
        ----------
        suite_masks:
            Boolean matrix ``[n_suites, n_demands]``; row ``r`` is the
            demand-membership mask of suite ``r``.

        Returns
        -------
        Boolean matrix ``[n_suites, n_faults]`` where entry ``(r, f)`` is
        True iff suite ``r`` exercises at least one demand of fault ``f``'s
        region.  This is the perfect-oracle testing closure as one matrix
        product: the hot kernel of the batch Monte-Carlo engine.
        """
        masks = np.asarray(suite_masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.space.size:
            raise IncompatibleSpaceError(
                f"suite masks of shape {masks.shape} do not match demand "
                f"space size {self.space.size}"
            )
        if not len(self.faults):
            return np.zeros((masks.shape[0], 0), dtype=bool)
        return coverage_hits(masks, self._coverage_float(np.float32).T)

    def failure_matrix(self, presence: np.ndarray) -> np.ndarray:
        """Per-version failure masks from a batch of fault-presence rows.

        Parameters
        ----------
        presence:
            Boolean matrix ``[n_versions, n_faults]``; row ``r`` marks the
            faults version ``r`` contains.

        Returns
        -------
        Boolean matrix ``[n_versions, n_demands]`` where entry ``(r, x)``
        is True iff version ``r`` fails on demand ``x`` — the batched form
        of :attr:`repro.versions.Version.failure_mask`.
        """
        rows = np.asarray(presence, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(self.faults):
            raise ModelError(
                f"presence matrix of shape {rows.shape} does not match "
                f"universe size {len(self.faults)}"
            )
        if not len(self.faults):
            return np.zeros((rows.shape[0], self.space.size), dtype=bool)
        return coverage_hits(rows, self._coverage_float(np.float32))

    def surviving(self, demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Identifiers of faults *not* triggered by the given demands."""
        demands = self.space.validate_demands(demands)
        if demands.size == 0:
            return np.arange(len(self.faults), dtype=np.int64)
        hit = self._coverage[:, demands].any(axis=1)
        return np.flatnonzero(~hit).astype(np.int64)

    def region_masses(self, probabilities: np.ndarray) -> np.ndarray:
        """Usage mass ``Q(R_f)`` of every region under demand probabilities.

        ``(1 - Q(R_f))**n`` is then the survival probability of fault ``f``
        under an i.i.d. operational suite of ``n`` demands — the basic
        quantity of the exact reliability-growth formulas.
        """
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (self.space.size,):
            raise IncompatibleSpaceError(
                f"probability vector length {probs.shape} does not match "
                f"demand space size {self.space.size}"
            )
        return self._coverage @ probs

    def union_mask(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Boolean demand mask of the union of the given faults' regions."""
        ids = as_index_array(fault_ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= len(self.faults)):
            raise ModelError(
                f"fault ids {ids.tolist()} outside universe of size {len(self.faults)}"
            )
        if ids.size == 0:
            return np.zeros(self.space.size, dtype=bool)
        return self._coverage[ids].any(axis=0)

    def validate_fault_ids(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Canonicalise fault identifiers against this universe."""
        ids = as_index_array(fault_ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= len(self.faults)):
            bad = ids[(ids < 0) | (ids >= len(self.faults))]
            raise ModelError(
                f"fault ids {bad.tolist()} outside universe of size {len(self.faults)}"
            )
        return ids

    def presence_mask(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Boolean fault-presence vector from a list of identifiers."""
        mask = np.zeros(len(self.faults), dtype=bool)
        mask[self.validate_fault_ids(fault_ids)] = True
        return mask

    def restrict(self, fault_ids: Sequence[int] | np.ndarray) -> "FaultUniverse":
        """A new universe containing only the given faults (re-identified)."""
        ids = self.validate_fault_ids(fault_ids)
        regions = [self.faults[int(i)].region for i in ids]
        return FaultUniverse.from_regions(self.space, regions)

    def overlap_matrix(self) -> np.ndarray:
        """Pairwise region-overlap counts ``[n_faults, n_faults]``."""
        cov = self._coverage.astype(np.int64)
        return cov @ cov.T

    def describe(self) -> str:
        """One-line human summary used by example scripts."""
        sizes = [fault.size for fault in self.faults] or [0]
        return (
            f"FaultUniverse(n_faults={len(self.faults)}, "
            f"demands={self.space.size}, "
            f"region sizes min/median/max = {min(sizes)}/"
            f"{int(np.median(sizes))}/{max(sizes)})"
        )
