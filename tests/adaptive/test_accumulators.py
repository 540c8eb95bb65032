"""Merge laws of the adaptive accumulators.

The controller's correctness rests on one property: chunk results combine
into the *same* estimate no matter how chunks were scheduled across rounds
and worker processes.  The accumulators promise this bit-for-bit (chunks
are keyed, reductions fold in sorted-key order), so the property tests
here assert exact equality, not approximate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    MeanAccumulator,
    ProportionAccumulator,
    StratifiedAccumulator,
    moments_of,
)
from repro.errors import ModelError


def chunk_values(min_chunks=1, max_chunks=6):
    """Strategy: a list of float-array chunks (possibly degenerate)."""
    return st.lists(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False, width=32
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=min_chunks,
        max_size=max_chunks,
    )


def _mean_acc(chunks, order):
    accumulator = MeanAccumulator()
    for index in order:
        accumulator.add_chunk(index, np.asarray(chunks[index]))
    return accumulator


class TestMeanAccumulatorMergeLaws:
    @given(chunks=chunk_values(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_invariant_bitwise(self, chunks, data):
        order = data.draw(st.permutations(range(len(chunks))))
        baseline = _mean_acc(chunks, range(len(chunks)))
        shuffled = _mean_acc(chunks, order)
        a = baseline.estimate(confidence=0.95)
        b = shuffled.estimate(confidence=0.95)
        assert a == b  # exact, not approximate

    @given(chunks=chunk_values())
    @settings(max_examples=30, deadline=None)
    def test_reduction_matches_single_sample_welford(self, chunks):
        pooled = np.concatenate([np.asarray(c) for c in chunks])
        accumulator = _mean_acc(chunks, range(len(chunks)))
        reduced = accumulator.reduced()
        assert reduced.count == pooled.size
        assert reduced.mean_y == pytest.approx(pooled.mean(), rel=1e-12, abs=1e-12)
        assert reduced.m2_y == pytest.approx(
            float(np.square(pooled - pooled.mean()).sum()), rel=1e-9, abs=1e-9
        )

    def test_duplicate_chunk_index_rejected(self):
        accumulator = MeanAccumulator()
        accumulator.add_chunk(0, np.array([1.0]))
        with pytest.raises(ModelError):
            accumulator.add_chunk(0, np.array([2.0]))


class TestProportionAccumulator:
    @given(
        chunks=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
                lambda t: (min(t), max(t))
            ),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_invariant(self, chunks, data):
        order = data.draw(st.permutations(range(len(chunks))))

        def build(indices):
            accumulator = ProportionAccumulator()
            for index in indices:
                successes, count = chunks[index]
                accumulator.add_chunk(index, successes, count)
            return accumulator

        a, b = build(range(len(chunks))), build(order)
        assert (a.successes, a.count) == (b.successes, b.count)
        if a.count:
            assert a.estimate(0.99) == b.estimate(0.99)


class TestDegenerateSamples:
    """The zero-variance / n = 1 regression cases of the issue."""

    def test_all_zero_stratum_zero_half_width_not_nan(self):
        accumulator = MeanAccumulator()
        accumulator.add_chunk(0, np.zeros(1))
        estimate = accumulator.estimate(confidence=0.99)
        assert estimate.half_width == 0.0
        assert estimate.std_error == 0.0
        assert not math.isnan(estimate.mean)

    def test_merged_degenerate_chunks_stay_degenerate(self):
        accumulator = MeanAccumulator()
        for index in range(5):
            accumulator.add_chunk(index, np.zeros(3))
        estimate = accumulator.estimate(confidence=0.99)
        assert estimate.half_width == 0.0
        assert estimate.mean == 0.0

    def test_constant_nonzero_sample_zero_half_width(self):
        accumulator = MeanAccumulator()
        accumulator.add_chunk(0, np.full(4, 0.25))
        estimate = accumulator.estimate(confidence=0.99)
        assert estimate.mean == pytest.approx(0.25)
        assert estimate.half_width == 0.0

    def test_empty_accumulator_infinite_half_width(self):
        estimate = MeanAccumulator().estimate(confidence=0.99)
        assert math.isinf(estimate.half_width)
        assert estimate.count == 0

    def test_degenerate_control_falls_back_to_plain(self):
        accumulator = MeanAccumulator()
        accumulator.add_chunk(
            0, moments_of(np.array([0.1, 0.2, 0.3]), np.zeros(3))
        )
        plain = accumulator.estimate(0.99)
        with_anchor = accumulator.estimate(0.99, anchor=0.0)
        assert with_anchor.mean == plain.mean
        assert with_anchor.half_width == plain.half_width

    def test_proportion_all_zero_keeps_positive_wilson_width(self):
        accumulator = ProportionAccumulator()
        accumulator.add_chunk(0, 0, 100)
        estimate = accumulator.estimate(0.99)
        assert estimate.mean == 0.0
        assert 0.0 < estimate.half_width < 0.1


class TestControlVariate:
    def test_perfectly_correlated_control_collapses_to_anchor(self):
        rng = np.random.default_rng(0)
        values = rng.random(500)
        accumulator = MeanAccumulator()
        accumulator.add_chunk(0, moments_of(values, values))
        estimate = accumulator.estimate(0.99, anchor=0.5)
        assert estimate.mean == pytest.approx(0.5, abs=1e-12)
        assert estimate.half_width == pytest.approx(0.0, abs=1e-9)

    def test_rounding_noise_control_does_not_explode_beta(self):
        # a control that is *mathematically* constant accumulates a few
        # ulps of m2_c through chunk merges; β = cross/m2_c on that noise
        # once produced estimates off by 12 orders of magnitude
        # (regression: e01's disjoint shape under stratified+control)
        rng = np.random.default_rng(5)
        accumulator = MeanAccumulator()
        for index in range(40):
            values = rng.random(64)
            controls = np.full(64, 0.125) + rng.choice(
                [0.0, 1e-17], size=64
            )
            accumulator.add_chunk(index, moments_of(values, controls))
        estimate = accumulator.estimate(0.99, anchor=0.125)
        plain = accumulator.estimate(0.99)
        assert estimate.mean == plain.mean
        assert estimate.half_width == plain.half_width

    def test_stratified_constant_control_per_stratum_is_safe(self):
        # disjoint equal-mass regions make the control *exactly* constant
        # within each fault-count stratum; β must ignore such strata
        from repro.adaptive import StratifiedAccumulator

        rng = np.random.default_rng(6)
        stratified = StratifiedAccumulator()
        for index in range(10):
            payload = {}
            for stratum in (2, 3, 4):
                values = rng.random(32) * stratum
                controls = np.full(32, stratum / 8.0)
                controls[::7] += 2e-17  # merge-noise scale
                payload[stratum] = moments_of(values, controls)
            stratified.add_chunk(index, payload)
        weights = {2: 0.3, 3: 0.4, 4: 0.3}
        anchored = stratified.estimate(weights, 0.99, anchor=3.0 / 8.0)
        plain = stratified.estimate(weights, 0.99)
        assert anchored.mean == pytest.approx(plain.mean, rel=1e-9)
        assert 0.0 < anchored.half_width < 1.0

    def test_control_reduces_variance_on_correlated_data(self):
        rng = np.random.default_rng(1)
        controls = rng.random(2000)
        values = controls + 0.1 * rng.random(2000)
        accumulator = MeanAccumulator()
        accumulator.add_chunk(0, moments_of(values, controls))
        plain = accumulator.estimate(0.99)
        adjusted = accumulator.estimate(0.99, anchor=0.5)
        assert adjusted.half_width < plain.half_width / 3


class TestStratifiedAccumulator:
    def test_single_stratum_matches_plain(self):
        rng = np.random.default_rng(2)
        values = rng.random(300)
        stratified = StratifiedAccumulator()
        stratified.add_chunk(0, {0: moments_of(values)})
        plain = MeanAccumulator()
        plain.add_chunk(0, values)
        assert stratified.estimate({0: 1.0}, 0.99) == plain.estimate(0.99)

    def test_post_stratification_removes_between_strata_variance(self):
        rng = np.random.default_rng(3)
        # two strata with very different means, equal weights
        low = 0.1 + 0.01 * rng.random(400)
        high = 0.9 + 0.01 * rng.random(400)
        stratified = StratifiedAccumulator()
        stratified.add_chunk(0, {0: moments_of(low), 1: moments_of(high)})
        plain = MeanAccumulator()
        plain.add_chunk(0, np.concatenate([low, high]))
        weights = {0: 0.5, 1: 0.5}
        strat_estimate = stratified.estimate(weights, 0.99)
        plain_estimate = plain.estimate(0.99)
        assert strat_estimate.mean == pytest.approx(plain_estimate.mean, abs=1e-3)
        assert strat_estimate.half_width < plain_estimate.half_width / 5

    def test_merge_order_invariant(self):
        rng = np.random.default_rng(4)
        payloads = [
            {int(k): moments_of(rng.random(5)) for k in range(3)}
            for _ in range(4)
        ]
        forward = StratifiedAccumulator()
        for index, payload in enumerate(payloads):
            forward.add_chunk(index, payload)
        backward = StratifiedAccumulator()
        for index in reversed(range(len(payloads))):
            backward.add_chunk(index, payloads[index])
        weights = {0: 0.2, 1: 0.3, 2: 0.5}
        assert forward.estimate(weights, 0.99) == backward.estimate(weights, 0.99)

    def test_unobserved_stratum_weight_collapses_to_neighbour(self):
        stratified = StratifiedAccumulator()
        values = np.array([0.5, 0.6, 0.7])
        stratified.add_chunk(0, {1: moments_of(values)})
        # stratum 2 has weight but no observations: folded into stratum 1
        estimate = stratified.estimate({1: 0.6, 2: 0.4}, 0.99)
        assert estimate.mean == pytest.approx(values.mean())
        assert math.isfinite(estimate.half_width)

    def test_degenerate_stratum_contributes_zero_variance(self):
        stratified = StratifiedAccumulator()
        stratified.add_chunk(
            0,
            {
                0: moments_of(np.zeros(50)),  # zero-fault stratum: never fails
                1: moments_of(np.array([0.2, 0.3, 0.25, 0.22])),
            },
        )
        estimate = stratified.estimate({0: 0.9, 1: 0.1}, 0.99)
        assert not math.isnan(estimate.half_width)
        only_noisy = StratifiedAccumulator()
        only_noisy.add_chunk(
            0, {1: moments_of(np.array([0.2, 0.3, 0.25, 0.22]))}
        )
        noisy_alone = only_noisy.estimate({1: 1.0}, 0.99)
        # the noisy stratum's contribution is scaled by its 0.1 weight
        assert estimate.half_width == pytest.approx(
            0.1 * noisy_alone.half_width
        )
