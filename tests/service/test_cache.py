"""Unit tests for the service's two-tier cache."""

import pytest

from repro.errors import ModelError
from repro.experiments import run_experiment
from repro.service import TwoTierCache
from repro.store import ResultStore, make_record


@pytest.fixture(scope="module")
def records():
    return [
        make_record(
            "a5", seed=seed, result=run_experiment("a5", seed=seed, fast=True)
        )
        for seed in range(4)
    ]


class TestTwoTierCache:
    def test_miss_then_memory_hit(self, records):
        cache = TwoTierCache()
        key = records[0]["key"]
        assert cache.get(key) is None
        cache.put(records[0])
        record, source = cache.lookup(key)
        assert record["key"] == key
        assert source == "memory"
        assert cache.stats()["misses"] == 1
        assert cache.stats()["memory_hits"] == 1

    def test_store_hit_promotes_to_memory(self, tmp_path, records):
        store = ResultStore(tmp_path)
        store.put(records[0])
        cache = TwoTierCache(ResultStore(tmp_path))
        record, source = cache.lookup(records[0]["key"])
        assert source == "store"
        assert record["result"]["passed"] is True
        _, source = cache.lookup(records[0]["key"])
        assert source == "memory"
        stats = cache.stats()
        assert stats["store_hits"] == 1
        assert stats["memory_hits"] == 1
        assert stats["hit_ratio"] == 1.0

    def test_put_persists_through_to_store(self, tmp_path, records):
        cache = TwoTierCache(ResultStore(tmp_path))
        cache.put(records[0])
        # a completely fresh store handle sees the record on disk
        assert records[0]["key"] in ResultStore(tmp_path).load()

    def test_lru_eviction_order(self, records):
        cache = TwoTierCache(capacity=2)
        cache.put(records[0])
        cache.put(records[1])
        cache.get(records[0]["key"])  # refresh 0: 1 is now least recent
        cache.put(records[2])
        assert cache.get(records[1]["key"]) is None
        assert cache.get(records[0]["key"]) is not None
        assert cache.stats()["evictions"] == 1

    def test_identity_only_records_are_not_cacheable(self, tmp_path):
        cache = TwoTierCache(ResultStore(tmp_path))
        bare = make_record("a5", seed=99)
        with pytest.raises(ModelError, match="identity-only"):
            cache.put(bare)
        # an identity-only record already in the store is not served
        store = ResultStore(tmp_path)
        store.put(bare)
        cache = TwoTierCache(ResultStore(tmp_path))
        assert cache.get(bare["key"]) is None
        assert bare["key"] not in cache

    def test_contains_checks_both_tiers(self, tmp_path, records):
        store = ResultStore(tmp_path)
        store.put(records[0])
        cache = TwoTierCache(ResultStore(tmp_path))
        assert records[0]["key"] in cache
        assert "not-a-key" not in cache

    def test_capacity_validation(self):
        with pytest.raises(ModelError, match="capacity"):
            TwoTierCache(capacity=0)
