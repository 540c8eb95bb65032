"""Observability through the service stack: metrics formats, traces,
HEAD/405 semantics, scrapes under concurrent load, and the one registry
both ``/metrics`` views read."""

import asyncio
import http.client
import json
import re
import threading

import pytest

from repro.errors import ModelError
from repro.experiments import run_experiment
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    default_registry,
    parse_prometheus_text,
)
from repro.service import (
    JobScheduler,
    JobSpec,
    QueueFullError,
    ServiceClient,
    ServiceError,
    TwoTierCache,
)
from repro.service.http import ThreadedServer
from repro.service.router import ThreadedRouter
from repro.store import ResultStore, make_record

from .conftest import wait_until


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    store = tmp_path_factory.mktemp("obs_shard_store")
    with ThreadedServer(
        store_path=store, procs=0, queue_limit=64, name="s0"
    ) as hosted:
        yield hosted


@pytest.fixture(scope="module")
def router(shard):
    with ThreadedRouter({"s0": shard.url}) as hosted:
        yield hosted


@pytest.fixture()
def client(router):
    with ServiceClient(router.url) as bound:
        yield bound


@pytest.fixture()
def shard_client(shard):
    with ServiceClient(shard.url) as bound:
        yield bound


def _raw(url, method, path, headers=None):
    host, port = url.split("//")[1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request(method, path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestMetricsFormats:
    def test_legacy_json_is_the_default(self, client, shard_client):
        client.run("x3", seed=301)
        for bound in (client, shard_client):
            payload = bound.metrics()
            assert "jobs" in payload or "shards" in payload

    def test_prometheus_via_query_param(self, shard_client):
        families = shard_client.metrics(format="prometheus")
        assert families["repro_http_requests_total"]["type"] == "counter"
        assert (
            families["repro_http_request_seconds"]["type"] == "histogram"
        )

    def test_prometheus_via_accept_header(self, shard):
        status, headers, body = _raw(
            shard.url,
            "GET",
            "/metrics",
            {"Accept": "text/plain"},
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        parse_prometheus_text(body.decode("utf-8"))  # strict

    def test_router_exposition_includes_cluster_summary(self, client):
        client.run("x3", seed=302)
        families = client.metrics(format="prometheus")
        assert "repro_cluster_jobs" in families
        assert "repro_router_relays_total" in families
        assert "repro_router_shards_healthy" in families
        healthy = families["repro_router_shards_healthy"]["samples"]
        assert healthy[0][2] == 1.0

    def test_evictions_exposed_in_both_formats(self, shard_client):
        payload = shard_client.metrics()
        assert "evictions" in payload["cache"]
        families = shard_client.metrics(format="prometheus")
        assert (
            families["repro_cache_evictions_total"]["type"] == "counter"
        )

    def test_unparsed_prometheus_text(self, shard_client):
        text = shard_client.metrics(format="prometheus", parse=False)
        assert isinstance(text, str)
        assert "# TYPE repro_http_requests_total counter" in text

    def test_request_metrics_move_after_requests(self, shard_client):
        shard_client.healthz()
        families = shard_client.metrics(format="prometheus")
        totals = [
            value
            for name, labels, value in families["repro_http_requests_total"][
                "samples"
            ]
            if labels.get("route") == "/healthz"
        ]
        assert sum(totals) >= 1.0


class TestTracePropagation:
    def test_job_echoes_client_trace_id(self, client):
        job = client.run("x3", seed=303)
        assert client.last_trace_id
        assert job["trace_id"] == client.last_trace_id

    def test_trace_id_survives_status_polls(self, client):
        submitted = client.submit("x3", seed=304, wait=False)
        submit_trace = submitted["trace_id"]
        done = client.wait(submitted["id"], timeout=60)
        # the job keeps its submitting request's trace, not the poll's
        assert done["trace_id"] == submit_trace

    def test_direct_shard_requests_are_traced_too(self, shard_client):
        job = shard_client.run("x3", seed=305)
        assert job["trace_id"] == shard_client.last_trace_id


class TestMethodSemantics:
    @pytest.mark.parametrize("fixture", ["shard", "router"])
    def test_405_carries_allow_header(self, fixture, request):
        url = request.getfixturevalue(fixture).url
        status, headers, body = _raw(url, "DELETE", "/metrics")
        assert status == 405
        allow = headers["Allow"].replace(" ", "").split(",")
        assert "GET" in allow and "HEAD" in allow
        assert "error" in json.loads(body)

    @pytest.mark.parametrize("fixture", ["shard", "router"])
    def test_post_only_routes_say_so(self, fixture, request):
        url = request.getfixturevalue(fixture).url
        status, headers, _ = _raw(url, "GET", "/run")
        assert status == 405
        assert "POST" in headers["Allow"]

    @pytest.mark.parametrize("fixture", ["shard", "router"])
    def test_head_matches_get_minus_body(self, fixture, request):
        url = request.getfixturevalue(fixture).url
        get_status, get_headers, get_body = _raw(url, "GET", "/healthz")
        head_status, head_headers, head_body = _raw(
            url, "HEAD", "/healthz"
        )
        assert head_status == get_status == 200
        assert head_body == b""
        # Content-Length still advertises the GET body size (RFC 9110)
        assert int(head_headers["Content-Length"]) > 0


class TestScrapeUnderLoad:
    def test_concurrent_scrapes_parse_while_serving(self, router):
        errors = []
        stop = threading.Event()

        def hammer(seed_base):
            try:
                with ServiceClient(router.url) as bound:
                    for offset in range(6):
                        bound.run("x3", seed=seed_base + offset)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def scrape():
            with ServiceClient(router.url) as bound:
                while not stop.is_set():
                    families = bound.metrics(format="prometheus")
                    assert "repro_http_requests_total" in families

        workers = [
            threading.Thread(target=hammer, args=(400 + 100 * n,))
            for n in range(3)
        ]
        scraper = threading.Thread(target=scrape)
        for thread in workers:
            thread.start()
        scraper.start()
        for thread in workers:
            thread.join()
        scraper.join()
        assert errors == []

    def test_scrape_totals_match_job_activity(self, tmp_path, hold):
        gate = hold("e07")
        with ThreadedServer(
            store_path=tmp_path, procs=0, cache_capacity=1, queue_limit=1
        ) as hosted, ServiceClient(hosted.url) as bound:
            bound.run("x3", seed=399)  # miss, completed
            bound.run("x3", seed=399)  # memory hit
            bound.run("x3", seed=398)  # miss, completed, evicts 399
            bound.run("x3", seed=399)  # store hit, evicts 398
            with pytest.raises(ServiceError):
                bound.run("x3", seed=397, params={"suite_size": -5})
            blocker = bound.submit("e07", seed=396)
            wait_until(
                lambda: bound.job(blocker["id"])["state"] == "running",
                message="blocker never started",
            )
            queued = bound.submit("x3", seed=395)
            assert bound.submit("x3", seed=395)["id"] == queued["id"]
            with pytest.raises(ServiceError) as excinfo:
                bound.submit("x3", seed=394)
            assert excinfo.value.status == 429
            assert bound.cancel(queued["id"])["cancelled"] is True
            gate.set()
            bound.wait(blocker["id"], timeout=120)
            families = bound.metrics(format="prometheus")
            legacy = bound.metrics()

        def total(family, **labels):
            return sum(
                value
                for _, sample_labels, value in families[family]["samples"]
                if all(sample_labels.get(k) == v for k, v in labels.items())
            )

        for event in (
            "submitted",
            "cache_served",
            "coalesced",
            "completed",
            "failed",
            "cancelled",
            "rejected",
        ):
            assert legacy["jobs"][event] > 0, event
            assert total("repro_jobs_total", event=event) == legacy["jobs"][
                event
            ], event
        cache = legacy["cache"]
        assert min(
            cache["memory_hits"],
            cache["store_hits"],
            cache["misses"],
            cache["evictions"],
        ) > 0
        assert total("repro_cache_hits_total", tier="memory") == cache[
            "memory_hits"
        ]
        assert total("repro_cache_hits_total", tier="store") == cache[
            "store_hits"
        ]
        assert total("repro_cache_misses_total") == cache["misses"]
        assert total("repro_cache_evictions_total") == cache["evictions"]
        compute = legacy["compute_seconds"]
        (count,) = [
            value
            for name, _, value in families["repro_job_compute_seconds"][
                "samples"
            ]
            if name == "repro_job_compute_seconds_count"
        ]
        assert compute["count"] == count
        assert compute["count"] == legacy["jobs"]["completed"] + legacy[
            "jobs"
        ]["failed"]


#: ``prometheus_text()`` after :func:`_fixed_event_sequence`, uptime
#: masked; pinned byte for byte so existing scrapers keep parsing it
PINNED_EXPOSITION = """\
# HELP repro_adaptive_half_width Latest adaptive-round CI half-width, per metric name.
# TYPE repro_adaptive_half_width gauge
# HELP repro_adaptive_replications Latest adaptive-round cumulative replications, per metric name.
# TYPE repro_adaptive_replications gauge
# HELP repro_adaptive_rounds_total Adaptive precision rounds observed across all jobs.
# TYPE repro_adaptive_rounds_total counter
# HELP repro_cache_evictions_total Memory-tier LRU evictions.
# TYPE repro_cache_evictions_total counter
repro_cache_evictions_total 1
# HELP repro_cache_hits_total Cache hits by tier (memory or store).
# TYPE repro_cache_hits_total counter
repro_cache_hits_total{tier="memory"} 1
repro_cache_hits_total{tier="store"} 1
# HELP repro_cache_memory_items Records in the memory tier.
# TYPE repro_cache_memory_items gauge
repro_cache_memory_items 1
# HELP repro_cache_misses_total Cache lookups that missed both tiers.
# TYPE repro_cache_misses_total counter
repro_cache_misses_total 4
# HELP repro_cache_store_records Records in the persistent store.
# TYPE repro_cache_store_records gauge
repro_cache_store_records 2
# HELP repro_job_compute_seconds Worker compute duration per completed or failed job.
# TYPE repro_job_compute_seconds histogram
# HELP repro_job_queue_wait_seconds Time jobs spend queued before taking a worker slot.
# TYPE repro_job_queue_wait_seconds histogram
# HELP repro_jobs_running Jobs currently on a worker.
# TYPE repro_jobs_running gauge
repro_jobs_running 0
# HELP repro_jobs_total Job lifecycle events (submitted, cache_served, coalesced, completed, failed, cancelled, rejected).
# TYPE repro_jobs_total counter
repro_jobs_total{event="cache_served"} 2
repro_jobs_total{event="cancelled"} 1
repro_jobs_total{event="coalesced"} 1
repro_jobs_total{event="rejected"} 1
repro_jobs_total{event="submitted"} 6
# HELP repro_queue_depth Jobs waiting for a worker slot.
# TYPE repro_queue_depth gauge
repro_queue_depth 1
# HELP repro_uptime_seconds Seconds since scheduler start.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds <masked>
# HELP repro_worker_slots Concurrent worker slots.
# TYPE repro_worker_slots gauge
repro_worker_slots 1
"""


def _a5_record(seed):
    return make_record(
        "a5", seed=seed, result=run_experiment("a5", seed=seed, fast=True)
    )


async def _fixed_event_sequence(store_path):
    """Store hit, memory hit, eviction, miss, coalesce, rejection and
    cancellation — all before the dispatcher first runs, so no timing
    histogram moves and the exposition is deterministic."""
    store = ResultStore(store_path)
    store.put(_a5_record(1))
    registry = MetricsRegistry()
    cache = TwoTierCache(store, capacity=1, registry=registry)
    scheduler = JobScheduler(cache, procs=0, queue_limit=2, registry=registry)
    await scheduler.start()
    try:
        scheduler.submit(JobSpec("a5", seed=1))
        scheduler.submit(JobSpec("a5", seed=1))
        cache.put(_a5_record(2))
        scheduler.submit(JobSpec("a5", seed=3))
        scheduler.submit(JobSpec("a5", seed=3))
        queued = scheduler.submit(JobSpec("a5", seed=4))
        with pytest.raises(QueueFullError):
            scheduler.submit(JobSpec("a5", seed=5))
        scheduler.cancel(queued.id)
        return scheduler.prometheus_text(), scheduler.metrics_snapshot()
    finally:
        await scheduler.close()


class TestOneRegistry:
    def test_prometheus_exposition_is_byte_compatible(self, tmp_path):
        text, snapshot = asyncio.run(_fixed_event_sequence(tmp_path))
        masked = re.sub(
            r"(?m)^repro_uptime_seconds .*$",
            "repro_uptime_seconds <masked>",
            text,
        )
        assert masked == PINNED_EXPOSITION
        assert snapshot["jobs"]["submitted"] == 6
        assert snapshot["cache"]["misses"] == 4
        assert snapshot["compute_seconds"]["count"] == 0
        for group in ("jobs", "cache"):
            for name, value in snapshot[group].items():
                if name not in ("hit_ratio", "store_path"):
                    assert type(value) is int, (group, name)

    def test_scheduler_refuses_a_cache_with_another_registry(self):
        with pytest.raises(ModelError, match="share one metrics registry"):
            JobScheduler(TwoTierCache(), registry=MetricsRegistry())

    def test_scheduler_adopts_its_cache_registry(self):
        cache = TwoTierCache()
        assert cache.registry is not default_registry()
        assert JobScheduler(cache).registry is cache.registry
        registry = MetricsRegistry()
        scheduler = JobScheduler(registry=registry)
        assert scheduler.cache.registry is registry

    def test_uninstrumented_json_counters_read_zero(self):
        async def main():
            cache = TwoTierCache(registry=NULL_REGISTRY)
            scheduler = JobScheduler(cache, procs=0)
            await scheduler.start()
            try:
                job = scheduler.submit(JobSpec("a5", seed=0))
                await job.wait(timeout=60)
                scheduler.submit(JobSpec("a5", seed=0))
                return scheduler.metrics_snapshot()
            finally:
                await scheduler.close()

        snapshot = asyncio.run(main())
        assert snapshot["jobs"]["submitted"] == 0
        assert snapshot["cache"]["memory_hits"] == 0
        assert snapshot["compute_seconds"]["count"] == 0
