"""Unit tests for the consistent-hash ring: determinism, balance, stability."""

import collections

import pytest

from repro.errors import ModelError
from repro.service import HashRing
from repro.store.records import cache_key

KEYS = [f"key-{index}" for index in range(4000)]


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ModelError, match="at least one shard"):
            HashRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError, match="duplicate"):
            HashRing(["s0", "s0"])

    def test_rejects_nonpositive_vnodes(self):
        with pytest.raises(ModelError, match="vnodes"):
            HashRing(["s0"], vnodes=0)

    def test_membership_and_len(self):
        ring = HashRing(["s1", "s0"])
        assert ring.shards == ("s0", "s1")


def _owner(ring, key):
    """The shard a key routes to first: the head of its preference list."""
    return ring.preference(key)[0]


class TestOwnership:
    def test_single_shard_owns_everything(self):
        ring = HashRing(["only"])
        assert all(_owner(ring, key) == "only" for key in KEYS[:100])

    def test_owner_is_deterministic_and_order_insensitive(self):
        forward = HashRing(["s0", "s1", "s2"])
        shuffled = HashRing(["s2", "s0", "s1"])
        for key in KEYS[:500]:
            assert _owner(forward, key) == _owner(shuffled, key)

    def test_owner_heads_the_preference_list(self):
        ring = HashRing(["s0", "s1", "s2"])
        for key in KEYS[:200]:
            preference = ring.preference(key)
            assert sorted(preference) == ["s0", "s1", "s2"]

    def test_real_cache_keys_balance_within_bounds(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        keys = [
            cache_key("a2", seed, True, {"presence_prob": p}, "1.0")
            for seed in range(250)
            for p in (0.1, 0.2, 0.3, 0.4)
        ]
        counts = collections.Counter(_owner(ring, key) for key in keys)
        expected = len(keys) / len(ring.shards)
        for shard, count in counts.items():
            # 64 vnodes keeps every shard within ~2x of the fair share
            assert expected / 2 < count < expected * 2, counts

    def test_removing_a_shard_only_remaps_its_own_share(self):
        before = HashRing(["s0", "s1", "s2", "s3"])
        after = HashRing(["s0", "s1", "s2"])  # s3 removed
        moved_from_survivors = sum(
            1
            for key in KEYS
            if _owner(before, key) != "s3"
            and _owner(before, key) != _owner(after, key)
        )
        # consistency property: keys owned by survivors stay put
        assert moved_from_survivors == 0
        # and s3's share lands somewhere (everything still owned)
        assert all(_owner(after, key) in after.shards for key in KEYS[:100])

    def test_adding_a_shard_steals_roughly_its_fair_share(self):
        before = HashRing(["s0", "s1", "s2"])
        after = HashRing(["s0", "s1", "s2", "s3"])
        moved = sum(
            1 for key in KEYS if _owner(before, key) != _owner(after, key)
        )
        fair = len(KEYS) / 4
        assert fair * 0.4 < moved < fair * 2.0, moved
        # every moved key moved *to* the new shard, never between old ones
        for key in KEYS:
            if _owner(before, key) != _owner(after, key):
                assert _owner(after, key) == "s3"
