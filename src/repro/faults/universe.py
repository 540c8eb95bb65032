"""The fault universe: every fault a version might contain.

The Bernoulli population model (``repro.populations.bernoulli``) draws a
version as a random subset of a :class:`FaultUniverse`.  The universe also
precomputes the dense fault-by-demand coverage matrix that all vectorised
analytics (difficulty functions, inclusion-exclusion closed forms, testing
closure) operate on, and the batch engine's closure and scoring kernels:
sparse ones over the present faults' regions and dense float32 products,
chosen by :meth:`FaultUniverse._sparse_pays` (``docs/architecture.md``),
plus the per-demand cover bitsets of the §4.2 back-to-back kernel.
Every kernel, and the one scoring reduction :func:`failure_masses`, works
through its block in cache-sized slabs, with the whole block's results.
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

#: Dense float32 multiply-adds worth one gathered region element: the
#: measured break-even (2-core AVX-512 host, no numba) of the sparse
#: kernels against the BLAS products on 300–2000-demand blocks.
_GATHER_COST = 256

#: Elements per slab of the closure and scoring kernels: the measured
#: optimum (2-core AVX-512 host, no numba) on 2000-demand blocks, and below
#: OpenBLAS's ``dgemv`` threading threshold (about 460k elements there).
_SLAB_ELEMENTS = 1 << 18


def _slabs(count: int, width: int) -> List[slice]:
    """Slices of ``count`` items of ``width`` elements, ``_SLAB_ELEMENTS`` a
    slab, starting on 4-row groups, a lone last item joined to the one before:
    each row of a slabbed float64 product takes its whole-block ``dgemv`` kernel."""
    step = max(4, _SLAB_ELEMENTS // max(width, 1) // 4 * 4)
    bounds = list(range(0, max(count - 1, 1), step)) + [count]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def coverage_hits(rows: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """Boolean ``rows @ coverage > 0`` for 0/1 operands, on float32 BLAS slabs.

    Exact at any size: each entry sums 0/1 terms, and a float32 sum of
    non-negative terms is positive iff one of them is.
    """
    cast = coverage.astype(np.float32, copy=False)
    hits = np.empty((rows.shape[0], cast.shape[1]), dtype=bool)
    for slab in _slabs(rows.shape[0], rows.shape[1] + cast.shape[1]):
        np.greater(rows[slab].astype(np.float32) @ cast, 0.5, out=hits[slab])
    return hits


def failure_masses(
    probabilities: np.ndarray, *blocks: tuple, marginals: bool = False
) -> np.ndarray:
    """Each row's failure mass ``Σ_x Q(x)·Π_k fail_k(r, x)`` over one or
    two ``(universe, presence)`` blocks: a version's pfd, or a pair's joint
    failure mass.  ``marginals`` adds each block's own mass, from the same
    pass, as rows 1.. of a ``(1 + k, R)`` array under the joint in row 0.
    Per slab, :meth:`FaultUniverse.failure_matrix` is copied to float64 and
    multiplied by ``probabilities``: each row's dot product is bit for bit
    the whole block's on one BLAS thread (:func:`_slabs`)."""
    n_rows, width = blocks[0][1].shape[0], blocks[0][0].space.size
    masses = np.empty((1 + len(blocks) if marginals else 1, n_rows))
    for rows in _slabs(n_rows, width):
        fails = [universe.failure_matrix(block[rows]) for universe, block in blocks]
        # after the failure block: allocated first, it faulted ~480 pages a call
        slab = np.empty((rows.stop - rows.start, width))
        for mass, fail in zip(masses[1:], fails):
            np.copyto(slab, fail)
            np.matmul(slab, probabilities, out=mass[rows])
        np.logical_and(fails[0], fails[-1], out=slab)  # one block: with itself
        np.matmul(slab, probabilities, out=masses[0, rows])
    return masses if marginals else masses[0]


def _packed_rows(rows: np.ndarray, words: int) -> np.ndarray:
    """``(R, words)`` uint64 bitsets of a boolean ``(R, F)`` block, with
    ``F <= 64 * words``: column ``f`` is bit ``f % 64`` of word ``f // 64``
    (on little-endian hosts; :func:`_unpacked_rows` inverts it on any)."""
    packed = np.zeros((rows.shape[0], 8 * words), dtype=np.uint8)
    row_bytes = np.packbits(rows, axis=1, bitorder="little")
    packed[:, : row_bytes.shape[1]] = row_bytes
    return packed.view(np.uint64)


def _unpacked_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """The boolean ``(R, width)`` block of :func:`_packed_rows`' bitsets."""
    return np.unpackbits(
        bits.view(np.uint8), axis=1, count=width, bitorder="little"
    ).view(bool)


def _sum_dtype(values: np.ndarray):
    """float32 while ``values`` total below 2**24, where it holds every
    (partial) sum of these non-negative integers exactly; else float64."""
    return np.float32 if values.sum() < 1 << 24 else np.float64


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
    _region_tables: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _cover_tables: dict = field(
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
        region, for every pair: one float32 matrix product
        (:func:`coverage_hits`).  The batch closure needs the answer only
        where fault ``f`` is present, and asks :meth:`_cleared` instead.
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
        of :attr:`repro.versions.Version.failure_mask`.  Sparse blocks
        scatter each present fault's region into its row
        (:meth:`_region_scatter`), dense ones take one float32 product.
        """
        rows = np.asarray(presence, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(self.faults):
            raise ModelError(
                f"presence matrix of shape {rows.shape} does not match "
                f"universe size {len(self.faults)}"
            )
        if not len(self.faults):
            return np.zeros((rows.shape[0], self.space.size), dtype=bool)
        if self._sparse_pays(np.count_nonzero(rows), rows.shape[0]):
            return self._region_scatter(np.flatnonzero(rows), rows.shape[0])
        return coverage_hits(rows, self._coverage_float(np.float32))

    # -- region kernels: ``present`` holds ascending flat indices r * F + f
    # of an (R, F) fault block; the sparse ones visit only those regions

    def _region_table(self, sentinel: bool) -> np.ndarray:
        """``(F, W)`` region demand ids, ``W`` the largest region rounded up
        to whole uint32 words of booleans, cached.  Regions are never empty,
        so "any" rows pad with a repeat of their first demand; ``sentinel``
        rows, for sums, with column ``D`` of a zero-extended block."""
        table = self._region_tables.get(sentinel)
        if table is None:
            faults, demands = np.nonzero(self._coverage)
            sizes = np.bincount(faults, minlength=len(self.faults))
            width = -(-int(sizes.max(initial=0)) // 4) * 4
            starts = np.cumsum(sizes) - sizes
            if sentinel:
                table = np.full((len(self.faults), width), self.space.size)
            else:
                table = np.repeat(demands[starts, None], width, axis=1)
            table[faults, np.arange(faults.size) - starts[faults]] = demands
            self._region_tables[sentinel] = table
        return table

    def _cover_table(self, words: int) -> np.ndarray:
        """``(D + 1, words)`` uint64 bitsets of the faults covering each
        demand (:func:`_packed_rows` of the coverage transpose), cached per
        width.  The last row is zero, so the ``-1`` padding demand of a
        sequence block gathers an empty cover."""
        table = self._cover_tables.get(words)
        if table is None:
            covers = np.zeros((self.space.size + 1, len(self.faults)), dtype=bool)
            covers[:-1] = self._coverage.T
            table = self._cover_tables[words] = _packed_rows(covers, words)
        return table

    def _sparse_pays(self, n_present: int, n_rows: int) -> bool:
        """The one dense-or-sparse rule of the closure and scoring kernels:
        ``present pairs × W × _GATHER_COST < R × F × D``."""
        gathered = int(n_present) * self._region_table(False).shape[1]
        return gathered * _GATHER_COST < n_rows * len(self.faults) * self.space.size

    def _region_slabs(self, present: np.ndarray, sentinel: bool) -> Iterator:
        """Per slab of the ``present`` pairs: its slice, and each pair's region
        as flat indices into an ``(R, D)`` block (``(R, D + 1)`` if ``sentinel``)."""
        table = self._region_table(sentinel)
        for pairs in _slabs(present.size, table.shape[1]):
            rows, faults = np.divmod(present[pairs], len(self.faults))
            index = table[faults]
            index += (rows * (self.space.size + int(sentinel)))[:, None]
            yield pairs, index

    def _region_any(self, present: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Sparse :meth:`triggered_matrix` at the ``present`` pairs."""
        flat = masks.ravel()
        hit = np.zeros(present.size, dtype=np.uint32)
        for pairs, index in self._region_slabs(present, False):
            for column in flat[index].view(np.uint32).T:
                hit[pairs] |= column
        return hit != 0

    def _region_scatter(self, present: np.ndarray, n_rows: int) -> np.ndarray:
        """Sparse :meth:`failure_matrix` of a block with ``present`` pairs."""
        failures = np.zeros(n_rows * self.space.size, dtype=bool)
        for _pairs, index in self._region_slabs(present, False):
            failures[index] = True
        return failures.reshape(n_rows, self.space.size)

    def _region_sums(
        self, present: np.ndarray, n_rows: int, flat: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Sparse :meth:`_coverage_sums` at the ``present`` pairs."""
        width = self.space.size + 1
        block = np.zeros(
            n_rows * width, dtype=np.min_scalar_type(values.max(initial=0))
        )
        block[flat + flat // self.space.size] = values
        dtype = _sum_dtype(values)
        ones = np.ones(self._region_table(True).shape[1], dtype=dtype)
        sums = np.empty(present.size)
        for pairs, index in self._region_slabs(present, True):
            sums[pairs] = block[index].astype(dtype) @ ones
        return sums

    def _coverage_sums(
        self, n_rows: int, flat: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Exact float64 ``V @ coverage.T`` on float32 (or float64) BLAS, ``V``
        the ``(n_rows, D)`` block holding ``values`` at flat indices ``flat``."""
        dtype = _sum_dtype(values)
        block = np.zeros(n_rows * self.space.size, dtype=dtype)
        block[flat] = values
        product = block.reshape(n_rows, self.space.size) @ self._coverage_float(dtype).T
        return product.astype(np.float64, copy=False)

    def _cleared(self, faults: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """``faults`` without the pairs whose suite row hits their region."""
        if not self._sparse_pays(np.count_nonzero(faults), masks.shape[0]):
            return faults & ~self.triggered_matrix(masks)
        present = np.flatnonzero(faults)
        cleared = faults.copy()
        cleared.ravel()[present[self._region_any(present, masks)]] = False
        return cleared

    def _sums_at(
        self, present: np.ndarray, n_rows: int, flat: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """:meth:`_coverage_sums` at each present pair, on the cheaper side."""
        if self._sparse_pays(present.size, n_rows):
            return self._region_sums(present, n_rows, flat, values)
        return self._coverage_sums(n_rows, flat, values).ravel()[present]

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

    def describe(self) -> str:
        """One-line human summary used by example scripts."""
        sizes = [fault.size for fault in self.faults] or [0]
        return (
            f"FaultUniverse(n_faults={len(self.faults)}, "
            f"demands={self.space.size}, "
            f"region sizes min/median/max = {min(sizes)}/"
            f"{int(np.median(sizes))}/{max(sizes)})"
        )
