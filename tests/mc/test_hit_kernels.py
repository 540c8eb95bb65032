"""The closure and scoring kernels, on both sides of the size rule.

* :func:`repro.faults.universe.coverage_hits` — "0/1 rows @ 0/1 coverage,
  then ``> 0``" on float32 BLAS — equals a pure-boolean reference on every
  shape, including empty blocks, all-True masks and wide demand spaces, and
  :meth:`FaultUniverse.triggered_matrix` / :meth:`failure_matrix` equal the
  float64 products they replaced;
* the §4.1 / coverage chance counts stay exact integers: float32 only while
  the occurrences total below 2**24, float64 beyond;
* the sparse region kernels (``_region_any``, ``_region_scatter``,
  ``_region_sums``), called directly, equal their dense counterparts bit
  for bit, whichever side the rule would pick;
* sorted demand runs equal the occurrence-count block, in the C order of
  ``np.flatnonzero``, for ragged, empty, overlong, exhaustive and
  enumerable suites, and reject padding below ``-1``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.demand import DemandSpace, uniform_profile
from repro.errors import ModelError
from repro.faults import FaultUniverse
from repro.faults.universe import _sum_dtype, coverage_hits
from repro.mc import simulate_version_pfd
from repro.populations import BernoulliFaultPopulation
from repro.testing import (
    EnumerableSuiteGenerator,
    ExhaustiveSuiteGenerator,
    ImperfectOracle,
    OperationalSuiteGenerator,
    TestSuite,
)
from repro.testing.generators import _suite_runs

_DENSITIES = st.sampled_from([0.0, 0.05, 0.5, 1.0])


def _boolean_hits(rows: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    return (rows[:, :, None] & coverage[None]).any(axis=1)


@st.composite
def _hit_cases(draw):
    n_rows = draw(st.integers(min_value=0, max_value=8))
    n_demands = draw(st.sampled_from([1, 2, 7, 64, 4096]))
    n_faults = draw(st.integers(min_value=0, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # density 0.0 gives all-False blocks, 1.0 all-True ones
    rows = rng.random((n_rows, n_demands)) < draw(_DENSITIES)
    coverage = rng.random((n_demands, n_faults)) < draw(_DENSITIES)
    return rows, coverage


@settings(max_examples=60, deadline=None)
@given(case=_hit_cases())
@example(case=(np.zeros((0, 5), dtype=bool), np.ones((5, 3), dtype=bool)))
@example(case=(np.ones((4, 5), dtype=bool), np.zeros((5, 0), dtype=bool)))
@example(case=(np.ones((3, 4096), dtype=bool), np.ones((4096, 2), dtype=bool)))
def test_coverage_hits_matches_boolean_reference(case):
    rows, coverage = case
    hits = coverage_hits(rows, coverage)
    assert hits.dtype == np.bool_
    np.testing.assert_array_equal(hits, _boolean_hits(rows, coverage))


@st.composite
def _universe_blocks(draw):
    n_demands = draw(st.integers(min_value=1, max_value=300))
    n_faults = draw(st.integers(min_value=0, max_value=20))
    n_rows = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regions = [
        rng.choice(n_demands, size=rng.integers(1, n_demands + 1), replace=False)
        for _ in range(n_faults)
    ]
    if n_faults and draw(st.booleans()):
        regions[0] = np.arange(n_demands)  # a whole-space region
    universe = FaultUniverse.from_regions(DemandSpace(n_demands), regions)
    masks = rng.random((n_rows, n_demands)) < draw(_DENSITIES)
    presence = rng.random((n_rows, n_faults)) < draw(_DENSITIES)
    return universe, masks, presence


@settings(max_examples=60, deadline=None)
@given(case=_universe_blocks())
def test_triggered_and_failure_match_float64_products(case):
    universe, masks, presence = case
    coverage = universe.coverage.astype(np.float64)
    np.testing.assert_array_equal(
        universe.triggered_matrix(masks),
        masks.astype(np.float64) @ coverage.T > 0.5,
    )
    np.testing.assert_array_equal(
        universe.failure_matrix(presence),
        presence.astype(np.float64) @ coverage > 0.5,
    )


@settings(max_examples=80, deadline=None)
@given(case=_universe_blocks())
@example(
    case=(
        FaultUniverse.from_regions(DemandSpace(6), [[0], [1, 2, 3, 4, 5]]),
        np.ones((3, 6), dtype=bool),
        np.ones((3, 2), dtype=bool),
    )
)
def test_sparse_hit_kernels_equal_the_dense_products(case):
    universe, masks, presence = case
    present = np.flatnonzero(presence)
    coverage = universe.coverage
    dense_hits = coverage_hits(masks, coverage.T).ravel()[present]
    np.testing.assert_array_equal(universe._region_any(present, masks), dense_hits)
    np.testing.assert_array_equal(
        universe._cleared(presence, masks),
        presence & ~_boolean_hits(masks, coverage.T),
    )
    np.testing.assert_array_equal(
        universe._region_scatter(present, presence.shape[0]),
        coverage_hits(presence, coverage),
    )


@st.composite
def _sequence_blocks(draw):
    """Ragged ``-1``-padded blocks, zero-length and longer-than-space suites."""
    n_demands = draw(st.integers(min_value=1, max_value=40))
    n_rows = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.sampled_from([0, 1, 3, n_demands, 3 * n_demands + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sequences = rng.integers(0, n_demands, size=(n_rows, width))
    lengths = rng.integers(0, width + 1, size=n_rows)
    sequences[np.arange(width)[None, :] >= lengths[:, None]] = -1
    return n_demands, sequences


def _dense_counts(sequences, n_demands):
    counts = np.zeros((sequences.shape[0], n_demands), dtype=np.int64)
    rows, columns = np.nonzero(sequences >= 0)
    np.add.at(counts, (rows, sequences[rows, columns]), 1)
    return counts


def _assert_runs_equal_counts(runs, counts):
    assert runs.shape == counts.shape
    np.testing.assert_array_equal(runs.flat, np.flatnonzero(counts))
    np.testing.assert_array_equal(runs.counts, counts.ravel()[runs.flat])
    np.testing.assert_array_equal(runs.masks(), counts > 0)


@settings(max_examples=80, deadline=None)
@given(case=_sequence_blocks())
def test_runs_are_the_count_block_in_flatnonzero_order(case):
    n_demands, sequences = case
    runs = _suite_runs(sequences, n_demands)
    _assert_runs_equal_counts(runs, _dense_counts(sequences, n_demands))


def test_runs_of_exhaustive_and_enumerable_generators():
    space = DemandSpace(9)
    exhaustive = ExhaustiveSuiteGenerator(space).sample_demand_sequences(4, rng=0)
    _assert_runs_equal_counts(
        _suite_runs(exhaustive, 9), np.ones((4, 9), dtype=np.int64)
    )
    enumerable = EnumerableSuiteGenerator.uniform_over(
        space,
        [TestSuite(space, [2, 2, 7]), TestSuite(space, [0]), TestSuite.empty(space)],
    )
    sequences = enumerable.sample_demand_sequences(50, rng=1)
    _assert_runs_equal_counts(_suite_runs(sequences, 9), _dense_counts(sequences, 9))


@pytest.mark.parametrize("bad", [[[0, -2, 1]], [[0, 3, 1]]])
def test_runs_reject_invalid_padding_and_out_of_space_demands(bad):
    with pytest.raises(ModelError):
        _suite_runs(np.array(bad), 3)


class _BadPaddingGenerator(OperationalSuiteGenerator):
    """Pads with ``-2``, which earlier releases silently read as padding."""

    def sample_demand_sequences(self, count, rng=None):
        sequences = super().sample_demand_sequences(count, rng)
        sequences[:, -1] = -2
        return sequences


def test_imperfect_engine_rejects_padding_below_minus_one():
    space = DemandSpace(10)
    universe = FaultUniverse.from_regions(space, [[0, 1], [5]])
    generator = _BadPaddingGenerator(uniform_profile(space), 4)
    with pytest.raises(ModelError, match="padding"):
        simulate_version_pfd(
            BernoulliFaultPopulation.uniform(universe, 0.5),
            generator,
            uniform_profile(space),
            n_replications=16,
            rng=0,
            oracle=ImperfectOracle(0.5),
        )


@settings(max_examples=80, deadline=None)
@given(case=_universe_blocks(), data=st.data())
def test_sparse_region_sums_equal_the_dense_chance_counts(case, data):
    universe, _masks, presence = case
    n_rows, n_demands = presence.shape[0], universe.space.size
    width = data.draw(st.sampled_from([0, 1, 5, 2 * n_demands + 3]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sequences = np.random.default_rng(seed).integers(
        -1, n_demands, size=(n_rows, width)
    )
    runs = _suite_runs(sequences, n_demands)
    present = np.flatnonzero(presence)
    reference = _dense_counts(sequences, n_demands) @ universe.coverage.T.astype(
        np.int64
    )
    dense = universe._coverage_sums(n_rows, runs.flat, runs.counts)
    assert dense.dtype == np.float64
    np.testing.assert_array_equal(dense, reference)
    sparse = universe._region_sums(present, n_rows, runs.flat, runs.counts)
    assert sparse.dtype == np.float64
    np.testing.assert_array_equal(sparse, reference.ravel()[present])
    np.testing.assert_array_equal(
        universe._sums_at(present, n_rows, runs.flat, runs.counts), sparse
    )


def _count_universe() -> FaultUniverse:
    return FaultUniverse.from_regions(DemandSpace(3), [[0], [0, 2], [1]])


def _runs_of(counts):
    flat = np.flatnonzero(counts)
    return flat, counts.ravel()[flat]


def test_chance_counts_past_float32_integers_switch_to_float64():
    universe = _count_universe()
    # the covering demand 0 runs 2**24 + 1 times: float32 rounds that to 2**24
    counts = np.array([[2**24 + 1, 0, 3]], dtype=np.int64)
    reference = counts @ universe.coverage.T.astype(np.int64)
    flat, values = _runs_of(counts)
    assert _sum_dtype(values) is np.float64
    chances = universe._coverage_sums(1, flat, values)
    assert chances.dtype == np.float64
    np.testing.assert_array_equal(chances, reference)
    present = np.arange(len(universe))
    np.testing.assert_array_equal(
        universe._region_sums(present, 1, flat, values), reference[0]
    )
    # the guard is what keeps it exact
    single = counts.astype(np.float32) @ universe._coverage_float(np.float32).T
    assert float(single[0, 0]) != 2**24 + 1


def test_chance_counts_below_the_bound_stay_float32_and_exact():
    universe = _count_universe()
    counts = np.array([[2**24 - 4, 1, 2], [0, 0, 0]], dtype=np.int64)
    reference = counts @ universe.coverage.T.astype(np.int64)
    flat, values = _runs_of(counts)
    assert _sum_dtype(values) is np.float32
    np.testing.assert_array_equal(
        universe._coverage_sums(2, flat, values), reference
    )
    present = np.arange(counts.shape[0] * len(universe))
    np.testing.assert_array_equal(
        universe._region_sums(present, 2, flat, values), reference.ravel()
    )


def test_perfbench_sized_models_fall_on_opposite_sides():
    """The 80-demand model of the engine benchmark runs dense, the
    2000-demand one sparse: the rule keeps per-call overhead off the small
    blocks and the R × F × D products off the large ones."""
    for n_demands, n_faults, region, presence, n_rows, sparse in (
        (80, 14, 5, 0.3, 2000, False),
        (2000, 200, 20, 0.1, 8192, True),
    ):
        universe = FaultUniverse.from_regions(
            DemandSpace(n_demands),
            [np.arange(f, f + region) % n_demands for f in range(n_faults)],
        )
        present = round(presence * n_rows * n_faults)
        assert universe._sparse_pays(present, n_rows) is sparse
