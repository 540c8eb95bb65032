"""The §4.2 bitset kernel equals the dense masked loop bit for bit.

:func:`repro.mc.back_to_back_batch` packs fault rows into uint64 words and
gathers per-demand cover bitsets.  The oracle here is the dense loop it
replaced, which gathers ``(R, F)`` boolean blocks from the coverage matrix
at every suite position.  Both draw the imperfect-fixing uniforms in the
same order and shapes, so the post-test blocks and the generator state
after the call must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand import DemandSpace
from repro.errors import ModelError
from repro.faults import FaultUniverse
from repro.mc import back_to_back_batch
from repro.testing import BackToBackComparator, ImperfectFixing, PerfectFixing
from repro.versions.outputs import (
    OPTIMISTIC,
    PESSIMISTIC,
    SHARED_FAULT,
    FailureOutputModel,
)

MODES = (OPTIMISTIC, PESSIMISTIC, SHARED_FAULT)
#: fault counts on both sides of each 64-bit word boundary
WIDTHS = (1, 2, 63, 64, 65, 130)


def _dense_back_to_back(faults_a, faults_b, seqs, cov_a, cov_b, mode, fix_p, generator):
    """The dense masked update loop, one ``(R, F)`` gather per position."""
    faults_a = faults_a.copy()
    faults_b = faults_b.copy()
    width = max(faults_a.shape[1], faults_b.shape[1])

    def padded(block):
        wide = np.zeros((block.shape[0], width), dtype=bool)
        wide[:, : block.shape[1]] = block
        return wide

    for position in range(seqs.shape[1]):
        demands = seqs[:, position]
        valid = demands >= 0
        if not valid.any():
            continue
        clamped = np.where(valid, demands, 0)
        causes_a = faults_a & cov_a[:, clamped].T
        causes_b = faults_b & cov_b[:, clamped].T
        fails_a = causes_a.any(axis=1) & valid
        fails_b = causes_b.any(axis=1) & valid
        if mode == OPTIMISTIC:
            flagged = fails_a | fails_b
        elif mode == PESSIMISTIC:
            flagged = fails_a ^ fails_b
        else:
            coincident = fails_a & fails_b
            identical = coincident & (padded(causes_a) == padded(causes_b)).all(axis=1)
            flagged = (fails_a ^ fails_b) | (coincident & ~identical)
        removal_a = causes_a & (fails_a & flagged)[:, None]
        removal_b = causes_b & (fails_b & flagged)[:, None]
        if fix_p < 1.0:
            removal_a &= generator.random(removal_a.shape) < fix_p
            removal_b &= generator.random(removal_b.shape) < fix_p
        faults_a &= ~removal_a
        faults_b &= ~removal_b
    return faults_a, faults_b


def _universe(space, n_faults, rng):
    """``n_faults`` random non-empty regions; every third fault shares the
    region of the one before, so shared-fault ties occur across sides."""
    regions = []
    for index in range(n_faults):
        if index % 3 == 2:
            regions.append(regions[-1])
            continue
        size = int(rng.integers(1, max(2, space.size // 4)))
        regions.append(rng.choice(space.size, size=size, replace=False))
    return FaultUniverse.from_regions(space, regions)


@st.composite
def _cases(draw):
    n_a = draw(st.sampled_from(WIDTHS))
    n_b = draw(st.sampled_from(WIDTHS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    space = DemandSpace(draw(st.integers(2, 40)))
    n_rows = draw(st.integers(0, 12))
    length = draw(st.integers(0, 16))
    universe_a = _universe(space, n_a, rng)
    # B is A itself (same ids, so shared-fault ties) or its own universe
    universe_b = universe_a if n_b == n_a and draw(st.booleans()) else _universe(space, n_b, rng)
    faults_a = rng.random((n_rows, n_a)) < draw(st.sampled_from((0.1, 0.5, 0.9)))
    faults_b = rng.random((n_rows, n_b)) < draw(st.sampled_from((0.1, 0.5, 0.9)))
    seqs = rng.integers(-1, space.size, size=(n_rows, length))
    if length:
        # whole padding columns, and a right-padded tail
        seqs[:, rng.random(length) < 0.2] = -1
        seqs[:, length - draw(st.integers(0, length)) :] = -1
    return universe_a, universe_b, faults_a, faults_b, seqs


@settings(max_examples=120, deadline=None)
@given(
    case=_cases(),
    mode=st.sampled_from(MODES),
    fix_p=st.sampled_from((None, 1.0, 0.6, 0.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_equals_dense_loop(case, mode, fix_p, seed):
    universe_a, universe_b, faults_a, faults_b, seqs = case
    fixing = None if fix_p is None else ImperfectFixing(fix_p)
    kernel_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    kept_a, kept_b = faults_a.copy(), faults_b.copy()
    got_a, got_b = back_to_back_batch(
        faults_a,
        faults_b,
        seqs,
        universe_a,
        universe_b,
        BackToBackComparator(FailureOutputModel(mode)),
        fixing,
        rng=kernel_rng,
    )
    want_a, want_b = _dense_back_to_back(
        faults_a,
        faults_b,
        seqs,
        universe_a.coverage,
        universe_b.coverage,
        mode,
        1.0 if fix_p is None else fix_p,
        oracle_rng,
    )
    assert got_a.dtype == bool and got_b.dtype == bool
    np.testing.assert_array_equal(got_a, want_a)
    np.testing.assert_array_equal(got_b, want_b)
    assert kernel_rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(faults_a, kept_a)
    np.testing.assert_array_equal(faults_b, kept_b)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fixing", [PerfectFixing(), ImperfectFixing(0.6)], ids=["perfect", "imperfect"])
@pytest.mark.parametrize("widths", [(1, 1), (63, 64), (64, 65), (130, 7), (200, 200)])
def test_word_boundaries(mode, fixing, widths):
    """Fixed word-boundary widths at a block size hypothesis rarely reaches."""
    rng = np.random.default_rng(sum(widths))
    space = DemandSpace(50)
    universe_a = _universe(space, widths[0], rng)
    universe_b = _universe(space, widths[1], rng)
    faults_a = rng.random((300, widths[0])) < 0.3
    faults_b = rng.random((300, widths[1])) < 0.3
    seqs = rng.integers(0, space.size, size=(300, 40))
    seqs[:, 7] = -1
    seqs[150:, 30:] = -1
    got = back_to_back_batch(
        faults_a,
        faults_b,
        seqs,
        universe_a,
        universe_b,
        BackToBackComparator(FailureOutputModel(mode)),
        fixing,
        rng=np.random.default_rng(5),
    )
    fix_p = getattr(fixing, "fix_probability", 1.0)
    want = _dense_back_to_back(
        faults_a,
        faults_b,
        seqs,
        universe_a.coverage,
        universe_b.coverage,
        mode,
        fix_p,
        np.random.default_rng(5),
    )
    for got_block, want_block in zip(got, want):
        np.testing.assert_array_equal(got_block, want_block)
    # the imperfect case must actually remove and keep faults
    assert (got[0] != faults_a).any()


def test_cover_table_rows():
    space = DemandSpace(5)
    universe = FaultUniverse.from_regions(space, [[0, 1], [1], [4]] + [[2]] * 62)
    table = universe._cover_table(2)
    assert table.shape == (space.size + 1, 2) and table.dtype == np.uint64
    assert universe._cover_table(2) is table
    assert not table[-1].any()
    assert table[1, 0] == 0b11 and table[3].sum() == 0
    assert table[2, 1] == 1  # fault 64 sits in bit 0 of word 1


def test_rejects_out_of_space_demands():
    space = DemandSpace(4)
    universe = FaultUniverse.from_regions(space, [[0], [1]])
    faults = np.ones((2, 2), dtype=bool)
    comparator = BackToBackComparator(FailureOutputModel(PESSIMISTIC))
    for bad in (4, -2):
        with pytest.raises(ModelError):
            back_to_back_batch(
                faults, faults, np.full((2, 3), bad), universe, universe, comparator
            )
