"""Router tests against in-thread shards: affinity, relays, degradation.

Uses :class:`~repro.service.http.ThreadedServer` instances as shards (no
subprocesses — fast), so these cover the routing logic itself; the
process-level chaos path (SIGKILL, restart, ring healing) lives in
``test_shard_failover.py``.
"""

import asyncio

import pytest

from repro.errors import ModelError
from repro.service import (
    Router,
    ServiceClient,
    ServiceError,
    ThreadedRouter,
    ThreadedServer,
)

from .conftest import wait_until


def _probe_health(router):
    """One synchronous health probe on a hosted router's loop, instead of
    sleeping through the probe interval."""
    future = asyncio.run_coroutine_threadsafe(
        router.router.check_health(), router._loop
    )
    return future.result(timeout=30.0)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """Two in-thread shards behind a router, shared by read-mostly tests."""
    root = tmp_path_factory.mktemp("cluster")
    shards = {
        name: ThreadedServer(
            store_path=root / name, procs=0, name=name, queue_limit=8
        )
        for name in ("s0", "s1")
    }
    router = ThreadedRouter({name: s.url for name, s in shards.items()})
    client = ServiceClient(router.url)
    yield {"shards": shards, "router": router, "client": client}
    client.close()
    router.stop()
    for shard in shards.values():
        shard.stop()


class TestRouterConstruction:
    def test_needs_shards(self):
        with pytest.raises(ModelError, match="at least one shard"):
            Router({})

    def test_rejects_bad_shard_names(self):
        with pytest.raises(ModelError, match="shard name"):
            Router({"has space": "http://127.0.0.1:1"})

    def test_rejects_non_http_urls(self):
        with pytest.raises(ModelError, match="http"):
            Router({"s0": "https://127.0.0.1:1"})


class TestRouting:
    def test_healthz_reports_cluster_state(self, cluster):
        health = cluster["client"].healthz()
        assert health["role"] == "router"
        assert health["status"] == "ok"
        assert health["shards_total"] == 2
        assert health["shards_healthy"] == 2

    def test_run_lands_on_the_ring_owner_and_is_labelled(self, cluster):
        client = cluster["client"]
        router = cluster["router"].router
        job = client.run("a4", seed=11)
        spec_key = job["key"]
        assert job["shard"] == router.ring.preference(spec_key)[0]
        # the job id carries the shard name, so lookups route back
        assert job["id"].startswith(job["shard"] + "-job-")

    def test_identical_requests_share_a_shard_and_its_cache(self, cluster):
        client = cluster["client"]
        first = client.run("a4", seed=21)
        second = client.submit("a4", seed=21, wait=True)
        assert second["shard"] == first["shard"]
        assert second["cached"] is True

    def test_distinct_keys_spread_across_shards(self, cluster):
        client = cluster["client"]
        placed = {
            client.submit("a5", seed=seed, wait=True)["shard"]
            for seed in range(16)
        }
        assert placed == {"s0", "s1"}

    def test_job_lookup_routes_by_id_prefix(self, cluster):
        client = cluster["client"]
        job = client.run("a4", seed=31)
        looked = client.job(job["id"])
        assert looked["state"] == "done"
        assert looked["shard"] == job["shard"]
        assert looked["record"]["experiment_id"] == "a4"

    def test_unknown_job_id_404s_cluster_wide(self, cluster):
        with pytest.raises(ServiceError) as excinfo:
            cluster["client"].job("sX-job-999999")
        assert excinfo.value.status == 404

    def test_jobs_listing_merges_shards_newest_first(self, cluster):
        client = cluster["client"]
        client.run("a4", seed=41)
        client.run("a5", seed=42)
        jobs = client.jobs()["jobs"]
        assert len(jobs) >= 2
        assert {job["shard"] for job in jobs} == {"s0", "s1"}
        created = [job["created"] for job in jobs]
        assert created == sorted(created, reverse=True)

    def test_validation_errors_answer_router_side(self, cluster):
        # did-you-mean hints survive: the router validates before routing
        with pytest.raises(ServiceError, match="did you mean"):
            cluster["client"].submit("a44")

    def test_cluster_metrics_aggregate_shard_counters(self, cluster):
        client = cluster["client"]
        before = client.metrics()
        client.run("a5", seed=51)
        after = client.metrics()
        assert after["shards_reachable"] == 2
        assert after["jobs"]["submitted"] == before["jobs"]["submitted"] + 1
        assert set(after["per_shard"]) == {"s0", "s1"}

    def test_shards_endpoint_exposes_topology(self, cluster):
        payload = cluster["client"]._request("GET", "/shards")[1]
        assert payload["ring"]["shards"] == ["s0", "s1"]
        assert payload["ring"]["vnodes"] >= 1
        states = {entry["name"]: entry for entry in payload["shards"]}
        assert states["s0"]["healthy"] and states["s1"]["healthy"]

    def test_experiments_catalog_served_by_router(self, cluster):
        catalog = cluster["client"].experiments()
        assert any(entry["id"] == "a2" for entry in catalog["experiments"])

    def test_shard_429_relays_verbatim(self, tmp_path, hold):
        # a single tiny-queue shard: fill the worker + queue, then expect
        # the router to relay the shard's 429 untouched
        release = hold("e02")
        shard = ThreadedServer(
            store_path=tmp_path / "s0", procs=0, name="s0", queue_limit=1
        )
        router = ThreadedRouter({"s0": shard.url})
        client = ServiceClient(router.url)
        try:
            blocker = client.submit("e02", seed=61, wait=False)
            wait_until(
                lambda: client.job(blocker["id"])["state"] == "running",
                message="blocker never started",
            )
            client.submit("a4", seed=62, wait=False)  # fills the queue
            with pytest.raises(ServiceError) as excinfo:
                client.submit("a5", seed=63, wait=False)
            assert excinfo.value.status == 429
            assert "queue is full" in str(excinfo.value)
        finally:
            release.set()
            client.close()
            router.stop()
            shard.stop()


class TestDegradation:
    def test_down_shard_reroutes_then_503_when_all_down(self, tmp_path):
        s0 = ThreadedServer(store_path=tmp_path / "s0", procs=0, name="s0")
        s1 = ThreadedServer(store_path=tmp_path / "s1", procs=0, name="s1")
        router = ThreadedRouter({"s0": s0.url, "s1": s1.url})
        client = ServiceClient(router.url)
        try:
            # place one job per shard by scanning seeds
            by_shard = {}
            for seed in range(16):
                job = client.submit("a5", seed=seed, wait=True)
                by_shard.setdefault(job["shard"], job)
                if len(by_shard) == 2:
                    break
            assert len(by_shard) == 2
            s1.stop()  # shard down (clean stop still refuses connections)
            _probe_health(router)
            health = client.healthz()
            assert health["status"] == "ok"  # degraded but serving
            assert health["shards_healthy"] == 1
            # a key owned by the dead shard re-routes to the survivor
            seed = by_shard["s1"]["seed"]
            rerouted = client.submit("a5", seed=seed, wait=True)
            assert rerouted["shard"] == "s0"
            # job state for the dead shard's ids is honestly unavailable
            with pytest.raises(ServiceError) as excinfo:
                client.job(by_shard["s1"]["id"])
            assert excinfo.value.status == 503
            s0.stop()
            _probe_health(router)
            with pytest.raises(ServiceError) as excinfo:
                client.submit("a5", seed=99, wait=True)
            assert excinfo.value.status == 503
            assert "no shard reachable" in str(excinfo.value)
        finally:
            client.close()
            router.stop()
            s0.stop()
            s1.stop()

    def test_healthz_503_when_every_shard_is_down(self, tmp_path):
        shard = ThreadedServer(store_path=tmp_path / "s0", procs=0, name="s0")
        router = ThreadedRouter({"s0": shard.url})
        client = ServiceClient(router.url)
        try:
            shard.stop()
            _probe_health(router)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
        finally:
            client.close()
            router.stop()
            shard.stop()
