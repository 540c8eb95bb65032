"""Tests for the dense reference kernels (repro.mc.kernels).

Two layers:

* **exact agreement with batch** — on hypothesis-generated universes,
  versions and suites, drawn both where
  :meth:`~repro.faults.FaultUniverse._sparse_pays` sends the batch
  closure to its sparse region kernels and where it keeps them dense:
  ``perfect_closure`` equals :func:`~repro.mc.apply_testing_batch` and
  :func:`~repro.mc.apply_blind_testing_batch`, ``imperfect_closure`` at
  full detection equals :func:`~repro.mc.apply_imperfect_testing_batch`
  on the same survival uniforms, and
  ``back_to_back_counter`` under perfect fixing equals
  :func:`~repro.mc.back_to_back_batch` in all three output models;
* **counter-keyed coins** — with imperfect fixing, the back-to-back
  kernel flips the same coins for every split of the replication axis.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.demand import DemandSpace
from repro.faults import FaultUniverse
from repro.mc import (
    apply_blind_testing_batch,
    apply_imperfect_testing_batch,
    apply_testing_batch,
    back_to_back_batch,
)
from repro.mc.kernels import back_to_back_counter, imperfect_closure, perfect_closure
from repro.rng import counter_key
from repro.testing import BackToBackComparator
from repro.testing.fixing import PerfectFixing
from repro.versions.outputs import (
    OPTIMISTIC,
    PESSIMISTIC,
    SHARED_FAULT,
    FailureOutputModel,
)

# one regime per side of the batch engine's dense-or-sparse size rule:
# (demands, faults, presence probability)
_SIDES = {
    "dense": ((5, 30), (1, 12), (0.3, 0.9)),
    "sparse": ((300, 600), (5, 40), (0.01, 0.08)),
}
_MODES = {0: OPTIMISTIC, 1: PESSIMISTIC, 2: SHARED_FAULT}


@st.composite
def _universes(draw, side):
    (d_low, d_high), (f_low, f_high), _presence = _SIDES[side]
    space = DemandSpace(draw(st.integers(d_low, d_high)))
    n_faults = draw(st.integers(f_low, f_high))
    regions = [
        draw(
            st.lists(
                st.integers(0, space.size - 1), min_size=1, max_size=4, unique=True
            )
        )
        for _ in range(n_faults)
    ]
    return FaultUniverse.from_regions(space, regions)


@st.composite
def _blocks(draw, side):
    """A universe, an ``(R, F)`` fault block on its side of the size rule,
    and a seed for the suites."""
    universe = draw(_universes(side))
    presence = draw(st.floats(*_SIDES[side][2]))
    n_rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    faults = rng.random((n_rows, len(universe))) < presence
    return universe, faults, rng


def _on_side(universe, faults, side) -> bool:
    sparse = universe._sparse_pays(np.count_nonzero(faults), faults.shape[0])
    return sparse == (side == "sparse")


def _coverage(universe) -> np.ndarray:
    return np.ascontiguousarray(universe.coverage, dtype=bool)


@pytest.mark.parametrize("side", sorted(_SIDES))
class TestExactAgainstBatch:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_perfect_closure(self, side, data):
        universe, faults, rng = data.draw(_blocks(side))
        assume(_on_side(universe, faults, side))
        masks = rng.random((faults.shape[0], universe.space.size)) < 0.1
        visible = np.ones(len(universe), dtype=bool)
        np.testing.assert_array_equal(
            perfect_closure(faults, masks, _coverage(universe), visible),
            apply_testing_batch(faults, masks, universe),
        )
        blind = np.flatnonzero(rng.random(len(universe)) < 0.3)
        np.testing.assert_array_equal(
            perfect_closure(
                faults, masks, _coverage(universe), ~universe.presence_mask(blind)
            ),
            apply_blind_testing_batch(faults, masks, universe, blind),
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), fix_p=st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    def test_imperfect_closure_full_detection(self, side, data, fix_p):
        # at d = 1 the batch kernel draws no binomials, so its survival
        # uniforms are the first (R, F) block of its stream
        universe, faults, rng = data.draw(_blocks(side))
        assume(_on_side(universe, faults, side))
        seqs = rng.integers(-1, universe.space.size, size=(faults.shape[0], 12))
        counts = np.zeros((faults.shape[0], universe.space.size), dtype=np.int64)
        rows, cols = np.nonzero(seqs >= 0)
        np.add.at(counts, (rows, seqs[rows, cols]), 1)
        seed = int(rng.integers(2**32))
        np.testing.assert_array_equal(
            imperfect_closure(
                faults,
                seqs,
                _coverage(universe),
                rng.random(seqs.shape),
                np.random.default_rng(seed).random(faults.shape),
                1.0,
                fix_p,
            ),
            apply_imperfect_testing_batch(
                faults, counts, universe, 1.0, fix_p, rng=np.random.default_rng(seed)
            ),
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(sorted(_MODES)))
    def test_back_to_back_perfect_fixing(self, side, data, mode):
        universe_a, faults_a, rng = data.draw(_blocks(side))
        assume(_on_side(universe_a, faults_a, side))
        # channel B: its own universe over the same space, possibly of
        # another width, so shared-fault mode compares padded cause sets
        n_faults_b = data.draw(st.integers(1, len(universe_a) + 3))
        regions_b = [
            rng.choice(universe_a.space.size, size=rng.integers(1, 5), replace=False)
            for _ in range(n_faults_b)
        ]
        universe_b = FaultUniverse.from_regions(universe_a.space, regions_b)
        faults_b = rng.random((faults_a.shape[0], n_faults_b)) < 0.5
        seqs = rng.integers(-1, universe_a.space.size, size=(faults_a.shape[0], 15))
        want_a, want_b = back_to_back_batch(
            faults_a,
            faults_b,
            seqs,
            universe_a,
            universe_b,
            BackToBackComparator(FailureOutputModel(_MODES[mode])),
            fixing=PerfectFixing(),
        )
        got_a, got_b = back_to_back_counter(
            faults_a,
            faults_b,
            seqs,
            _coverage(universe_a),
            _coverage(universe_b),
            mode,
            1.0,
            counter_key(0),
            np.arange(faults_a.shape[0], dtype=np.uint64),
            0,
            len(universe_a) + n_faults_b,
        )
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)


class TestBitInvariance:
    def test_back_to_back_identical_for_any_chunking(self):
        rng = np.random.default_rng(4)
        space = DemandSpace(20)
        universe = FaultUniverse.from_regions(
            space, [rng.choice(20, size=3, replace=False) for _ in range(6)]
        )
        coverage = _coverage(universe)
        faults_a = rng.random((60, 6)) < 0.5
        faults_b = rng.random((60, 6)) < 0.5
        seqs = rng.integers(-1, 20, size=(60, 10))
        streams = np.arange(60, dtype=np.uint64)
        key = counter_key(13)

        def run(rows):
            return back_to_back_counter(
                faults_a[rows], faults_b[rows], seqs[rows], coverage, coverage,
                2, 0.5, key, streams[rows], 100, 12,
            )

        whole_a, whole_b = run(slice(None))
        assert whole_a.sum() < faults_a.sum()  # the coins did remove faults
        for chunk in (1, 7, 59):
            parts = [run(slice(start, start + chunk)) for start in range(0, 60, chunk)]
            np.testing.assert_array_equal(
                np.concatenate([a for a, _b in parts]), whole_a
            )
            np.testing.assert_array_equal(
                np.concatenate([b for _a, b in parts]), whole_b
            )
