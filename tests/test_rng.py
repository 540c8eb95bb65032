"""Tests for repro.rng — seed normalisation, stream spawning, counter RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rng
from repro.rng import (
    as_generator,
    counter_key,
    counter_uniforms,
    inverse_cdf_indices,
    philox_uniform,
    spawn,
    spawn_many,
)


class TestInverseCdfIndices:
    def test_scalar_draw_in_range(self):
        cdf = np.array([0.2, 0.7, 1.0])
        for seed in range(20):
            index = inverse_cdf_indices(cdf, seed)
            assert 0 <= index < len(cdf)

    def test_block_shapes(self):
        cdf = np.array([0.5, 1.0])
        assert inverse_cdf_indices(cdf, 0, 7).shape == (7,)
        assert inverse_cdf_indices(cdf, 0, (3, 4)).shape == (3, 4)

    def test_clamped_when_cdf_tops_below_one(self):
        # probability vectors are validated only within a tolerance, so the
        # last CDF entry can sit below 1.0; draws above it must clamp
        cdf = np.array([0.3, 0.6])
        draws = inverse_cdf_indices(cdf, 123, 10_000)
        assert draws.max() == len(cdf) - 1

    def test_deterministic_under_seed(self):
        cdf = np.array([0.1, 0.4, 1.0])
        np.testing.assert_array_equal(
            inverse_cdf_indices(cdf, 9, 50), inverse_cdf_indices(cdf, 9, 50)
        )


def _binary_search(cdf, u):
    """The plain search-and-clamp the guide table must reproduce bit for bit."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


@st.composite
def profile_cdfs(draw):
    """CDFs of uniform, Zipf, heavy-head and random profiles, with zero-mass
    demands and a last entry that may sit a hair below 1."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["uniform", "zipf", "heavy-head", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        weights = np.ones(n)
    elif kind == "zipf":
        weights = np.arange(1, n + 1) ** -draw(st.floats(0.5, 2.5))
    elif kind == "heavy-head":
        weights = np.full(n, 1e-4)
        weights[0] = 1.0
    else:
        weights = rng.random(n)
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    cdf = np.cumsum(weights / weights.sum())
    return cdf * (1.0 - draw(st.sampled_from([0.0, 2**-52, 1e-12, 1e-9])))


def _hard_uniforms(cdf, rng):
    """CDF values, bucket edges, one ulp either side of both, 0.0 and 1.0,
    padded with random draws to at least the guide table's size."""
    buckets = 4 * len(cdf)
    points = np.concatenate([cdf, np.arange(buckets + 1) / buckets])
    special = np.concatenate(
        [points, np.nextafter(points, -1.0), np.nextafter(points, 2.0), [0.0, 1.0]]
    )
    special = special[(special >= 0.0) & (special <= 1.0)]
    uniforms = np.concatenate([special, rng.random(buckets)])
    rng.shuffle(uniforms)
    return uniforms


class TestGuidedSearch:
    """The guide-table search equals the plain binary search bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        cdf=profile_cdfs(),
        seed=st.integers(0, 2**32 - 1),
        columns=st.sampled_from([None, 2, 7]),
        max_steps=st.sampled_from([None, 10**9]),
    )
    def test_equals_binary_search(self, cdf, seed, columns, max_steps):
        uniforms = _hard_uniforms(cdf, np.random.default_rng(seed))
        if columns is not None:
            uniforms = uniforms[: uniforms.size // columns * columns]
            uniforms = uniforms.reshape(-1, columns)
        with pytest.MonkeyPatch.context() as patch:
            # an unbounded step cap forces the table onto skewed profiles too
            if max_steps is not None:
                patch.setattr(repro.rng, "_MAX_GUIDE_STEPS", max_steps)
            indices = inverse_cdf_indices(cdf, None, uniforms=uniforms)
        assert indices.dtype == np.int64
        assert indices.shape == uniforms.shape
        np.testing.assert_array_equal(indices, _binary_search(cdf, uniforms))

    @pytest.mark.parametrize("size", [3, 4000, (500, 9)])
    def test_seeded_blocks_match_binary_search(self, size):
        cdf = np.cumsum(np.full(100, 0.01))
        expected = _binary_search(cdf, np.random.default_rng(5).random(size))
        np.testing.assert_array_equal(inverse_cdf_indices(cdf, 5, size), expected)

    def test_cached_table_equals_a_fresh_one(self):
        cdf = np.cumsum(np.full(50, 0.02))
        other = np.cumsum(np.linspace(1.0, 3.0, 50) / np.linspace(1.0, 3.0, 50).sum())
        uniforms = np.random.default_rng(3).random(4000)
        repro.rng._GUIDES.clear()
        fresh = repro.rng._guide_table(cdf)
        for table in (cdf, other, cdf, other):
            expected = _binary_search(table, uniforms)
            indices = inverse_cdf_indices(table, None, uniforms=uniforms)
            np.testing.assert_array_equal(indices, expected)
        # one entry per cdf of equal length, and the first one is reused
        cached = repro.rng._guide_table(cdf)
        assert len(repro.rng._GUIDES) == 2
        assert cached[0] is fresh[0]
        assert cached[1] == fresh[1]
        np.testing.assert_array_equal(cached[2], np.append(cdf, np.inf))

    def test_cache_is_bounded(self):
        uniforms = np.random.default_rng(4).random(400)
        for index in range(3 * repro.rng._MAX_GUIDES):
            cdf = np.cumsum(np.full(10 + index % 3, 1.0 / (10 + index % 3)))
            indices = inverse_cdf_indices(cdf, None, uniforms=uniforms)
            np.testing.assert_array_equal(indices, _binary_search(cdf, uniforms))
            assert len(repro.rng._GUIDES) <= repro.rng._MAX_GUIDES

    def test_antithetic_one_maps_to_last_demand(self):
        cdf = np.cumsum(np.full(10, 0.1))
        uniforms = np.ones(100)
        indices = inverse_cdf_indices(cdf, None, uniforms=uniforms)
        np.testing.assert_array_equal(indices, np.full(100, 9))


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        generator = as_generator(sequence)
        assert isinstance(generator, np.random.Generator)

    def test_seed_sequence_matches_default_rng(self):
        # the SeedSequence arm is the default_rng fallthrough, not a
        # special case — same entropy, same stream
        a = as_generator(np.random.SeedSequence(7)).random(5)
        b = np.random.default_rng(np.random.SeedSequence(7)).random(5)
        np.testing.assert_array_equal(a, b)


class TestSpawn:
    def test_children_are_deterministic_given_parent_seed(self):
        children_a = spawn_many(as_generator(9), 3)
        children_b = spawn_many(as_generator(9), 3)
        for left, right in zip(children_a, children_b):
            np.testing.assert_array_equal(left.random(4), right.random(4))

    def test_children_are_mutually_different(self):
        children = spawn_many(as_generator(3), 4)
        draws = [tuple(child.random(3)) for child in children]
        assert len(set(draws)) == 4

    def test_spawn_single(self):
        child = spawn(as_generator(5))
        assert isinstance(child, np.random.Generator)

    def test_spawn_zero(self):
        assert spawn_many(as_generator(1), 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_many(as_generator(1), -1)

    def test_uses_seed_sequence_spawning(self):
        # children must come from seed_seq.spawn, not from parent draws
        parent = np.random.default_rng(21)
        expected_children = parent.bit_generator.seed_seq.spawn(3)
        children = spawn_many(np.random.default_rng(21), 3)
        for child, child_seq in zip(children, expected_children):
            np.testing.assert_array_equal(
                child.random(4), np.random.default_rng(child_seq).random(4)
            )

    def test_does_not_consume_the_parent_stream(self):
        parent = as_generator(17)
        untouched = as_generator(17)
        spawn_many(parent, 5)
        np.testing.assert_array_equal(parent.random(6), untouched.random(6))

    def test_repeated_spawns_give_fresh_families(self):
        parent = as_generator(23)
        first = spawn_many(parent, 2)
        second = spawn_many(parent, 2)
        draws = [tuple(g.random(3)) for g in first + second]
        assert len(set(draws)) == 4

    def test_seedless_bit_generator_falls_back_to_parent_draws(self):
        # Philox(key=...) has no seed sequence: the fallback must still
        # produce children, deterministically, by consuming the parent
        def keyed():
            return np.random.Generator(np.random.Philox(key=99))

        children_a = spawn_many(keyed(), 3)
        children_b = spawn_many(keyed(), 3)
        for left, right in zip(children_a, children_b):
            np.testing.assert_array_equal(left.random(4), right.random(4))
        draws = [tuple(child.random(3)) for child in children_a]
        assert len(set(draws)) == 3


class TestCounterKey:
    def test_int_seed_is_deterministic(self):
        assert counter_key(42) == counter_key(42)

    def test_known_values(self):
        # splitmix64-mixed keys, pinned so any change to the mixing
        # function (which would silently re-randomise every counter-keyed
        # result) fails loudly
        assert counter_key(0) == 16294208416658607535
        assert counter_key(42) == 13679457532755275413

    def test_small_seeds_land_far_apart(self):
        keys = [counter_key(seed) for seed in range(64)]
        assert len(set(keys)) == 64
        # mixed keys should not preserve the tiny-integer structure
        assert all(key > 2**32 for key in keys)

    def test_generator_input_consumes_the_stream(self):
        generator = as_generator(5)
        first = counter_key(generator)
        second = counter_key(generator)
        assert first != second
        assert counter_key(as_generator(5)) == first

    def test_seed_sequence_input_is_deterministic(self):
        sequence = np.random.SeedSequence(11)
        assert counter_key(sequence) == counter_key(np.random.SeedSequence(11))

    def test_none_draws_fresh_entropy(self):
        assert counter_key(None) != counter_key(None)


class TestPhiloxUniform:
    def test_known_answers(self):
        # pinned Philox4x32-10 outputs: any change to the round function,
        # constants, or the 53-bit conversion shifts every counter-keyed
        # result (the c-family workload draws from these uniforms)
        cases = [
            ((0, 0, 0), 0.3990464708489645),
            ((42, 0, 0), 0.6129598811894158),
            ((42, 1, 0), 0.01005884472426255),
            ((42, 0, 1), 0.9877186509145105),
            ((2**64 - 1, 2**63, 12345), 0.8050375728590644),
        ]
        for (key, stream_id, lane), expected in cases:
            value = philox_uniform(
                np.uint64(key), np.uint64(stream_id), np.uint64(lane)
            )
            assert value == expected, (key, stream_id, lane)

    def test_unit_interval(self):
        values = [
            philox_uniform(np.uint64(7), np.uint64(s), np.uint64(l))
            for s in range(20)
            for l in range(20)
        ]
        assert all(0.0 <= v < 1.0 for v in values)
        # distinct (stream, lane) pairs must give distinct uniforms
        assert len(set(values)) == len(values)

    def test_vectorized_twin_is_bit_identical(self):
        key = counter_key(3)
        streams = np.arange(7, dtype=np.uint64)
        lanes = np.arange(5, dtype=np.uint64)
        block = counter_uniforms(key, streams[:, None], lanes[None, :])
        assert block.shape == (7, 5)
        for i, s in enumerate(streams):
            for j, l in enumerate(lanes):
                assert block[i, j] == philox_uniform(
                    np.uint64(key), s, l
                )

    def test_counter_uniforms_broadcasts(self):
        key = counter_key(8)
        row = counter_uniforms(key, 3, np.arange(4))
        assert row.shape == (4,)
        np.testing.assert_array_equal(
            row,
            counter_uniforms(
                key, np.full(4, 3, dtype=np.uint64), np.arange(4)
            ),
        )

    def test_distribution_is_roughly_uniform(self):
        key = counter_key(123)
        block = counter_uniforms(key, np.arange(500)[:, None], np.arange(20))
        assert abs(block.mean() - 0.5) < 0.01
        assert abs((block < 0.25).mean() - 0.25) < 0.01


def _whole_array_philox(key, streams, lanes):
    """The former ``counter_uniforms``: each round on whole-array
    temporaries, key schedule advanced inside the loop."""
    mask = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)
    lanes_b, streams_b = np.broadcast_arrays(
        np.asarray(lanes, dtype=np.uint64), np.asarray(streams, dtype=np.uint64)
    )
    c0 = lanes_b & mask
    c1 = (lanes_b >> shift) & mask
    c2 = streams_b & mask
    c3 = (streams_b >> shift) & mask
    key64 = np.uint64(int(key) & ((1 << 64) - 1))
    k0 = key64 & mask
    k1 = (key64 >> shift) & mask
    for _round in range(10):
        p0 = np.uint64(0xD2511F53) * c0
        p1 = np.uint64(0xCD9E8D57) * c2
        c0, c1, c2, c3 = (
            (p1 >> shift) ^ c1 ^ k0,
            p1 & mask,
            (p0 >> shift) ^ c3 ^ k1,
            p0 & mask,
        )
        k0 = (k0 + np.uint64(0x9E3779B9)) & mask
        k1 = (k1 + np.uint64(0xBB67AE85)) & mask
    bits = (c0 << shift) | c1
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


class TestCounterUniformSlabs:
    SLAB = repro.rng._PHILOX_SLAB

    def _check(self, key, streams, lanes, samples=16):
        block = counter_uniforms(key, streams, lanes)
        expected = _whole_array_philox(key, streams, lanes)
        assert block.shape == expected.shape
        assert np.array_equal(block, expected)
        lanes_b, streams_b = np.broadcast_arrays(
            np.asarray(lanes, dtype=np.uint64), np.asarray(streams, dtype=np.uint64)
        )
        flat = np.linspace(0, block.size - 1, min(samples, block.size)).astype(int)
        for position in flat:
            where = np.unravel_index(position, block.shape)
            assert block[where] == philox_uniform(
                np.uint64(key), streams_b[where], lanes_b[where]
            )

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_one_slab(self, offset):
        size = self.SLAB + offset
        self._check(counter_key(4), np.uint64(9), np.arange(size, dtype=np.uint64))

    def test_several_slabs_and_a_ragged_tail(self):
        size = 3 * self.SLAB + 7
        self._check(counter_key(6), np.arange(size, dtype=np.uint64) % 17, np.arange(size))

    def test_two_dimensional_block_crossing_slabs(self):
        streams = np.arange(2 * self.SLAB // 97 + 3, dtype=np.uint64)[:, None]
        lanes = np.arange(97, dtype=np.uint64)[None, :]
        self._check(counter_key(1), streams, lanes)

    def test_counters_at_or_above_two_to_the_32(self):
        high = np.uint64(2**32)
        streams = high - np.uint64(1) + np.arange(5, dtype=np.uint64)[:, None]
        lanes = np.uint64(2**63) + high + np.arange(self.SLAB // 3, dtype=np.uint64)
        self._check(2**64 - 1, streams, lanes[None, :])

    def test_scalar_broadcast(self):
        key = counter_key(2)
        self._check(key, 2**40, 3)
        assert counter_uniforms(key, 2**40, 3).shape == ()
        assert counter_uniforms(key, 2**40, 3) == philox_uniform(
            np.uint64(key), np.uint64(2**40), np.uint64(3)
        )
        self._check(key, np.arange(self.SLAB + 5), 2**33)

    def test_empty_input(self):
        key = counter_key(3)
        for streams, lanes in (
            (np.arange(0), 5),
            (np.arange(4)[:, None], np.arange(0)[None, :]),
        ):
            block = counter_uniforms(key, streams, lanes)
            assert block.dtype == np.float64
            assert block.shape == _whole_array_philox(key, streams, lanes).shape
            assert block.size == 0
