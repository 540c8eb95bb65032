"""The single-precision coverage products of the closure and scoring layers.

* :func:`repro.faults.universe.coverage_hits` — "0/1 rows @ 0/1 coverage,
  then ``> 0``" on float32 BLAS — equals a pure-boolean reference on every
  shape, including empty blocks, all-True masks and wide demand spaces, and
  :meth:`FaultUniverse.triggered_matrix` / :meth:`failure_matrix` equal the
  float64 products they replaced;
* the §4.1 / coverage chance counts stay exact integers: float32 only while
  every row's occurrences total below 2**24, float64 beyond.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.demand import DemandSpace
from repro.faults import FaultUniverse
from repro.faults.universe import coverage_hits
from repro.mc.batch import _chance_counts, _chance_dtype

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


def _count_universe() -> FaultUniverse:
    return FaultUniverse.from_regions(DemandSpace(3), [[0], [0, 2], [1]])


def test_chance_counts_past_float32_integers_switch_to_float64():
    universe = _count_universe()
    # the covering demand 0 runs 2**24 + 1 times: float32 rounds that to 2**24
    counts = np.array([[2**24 + 1, 0, 3]], dtype=np.int64)
    reference = counts @ universe.coverage.T.astype(np.int64)
    dtype = _chance_dtype(counts)
    assert dtype is np.float64
    chances = _chance_counts(counts, universe, dtype)
    assert chances.dtype == np.float64
    np.testing.assert_array_equal(chances, reference)
    # the guard is what keeps it exact
    assert _chance_counts(counts, universe, np.float32)[0, 0] != 2**24 + 1


def test_chance_counts_below_the_bound_stay_float32_and_exact():
    universe = _count_universe()
    counts = np.array([[2**24 - 4, 1, 2], [0, 0, 0]], dtype=np.int64)
    reference = counts @ universe.coverage.T.astype(np.int64)
    dtype = _chance_dtype(counts)
    assert dtype is np.float32
    np.testing.assert_array_equal(
        _chance_counts(counts, universe, dtype), reference
    )
