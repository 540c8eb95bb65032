"""End-to-end tests for the HTTP API through the blocking client."""

import json

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.http import ThreadedServer
from repro.store import ResultStore

from .conftest import wait_until


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("service_store")
    with ThreadedServer(store_path=store, procs=0, queue_limit=64) as hosted:
        hosted.store_dir = store
        yield hosted


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as bound:
        yield bound


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert "queue_depth" in payload

    def test_experiments_catalog(self, client):
        catalog = {
            entry["id"]: entry for entry in client.experiments()["experiments"]
        }
        assert "e01" in catalog and "x3" in catalog
        assert catalog["e01"]["precision"] is True
        assert "suite_size" in catalog["x3"]["params"]

    def test_run_cold_then_warm(self, server, client):
        job = client.run("x3", seed=101)
        assert job["state"] == "done"
        assert job["cached"] is False
        assert job["record"]["result"]["passed"] is True
        warm = client.run("x3", seed=101)
        assert warm["cached"] is True
        assert warm["source"] in ("memory", "store")
        assert warm["record"]["key"] == job["record"]["key"]
        # the record reached the server's persistent store
        assert job["record"]["key"] in ResultStore(server.store_dir).load()

    def test_submit_nowait_then_poll(self, client):
        job = client.submit("x3", seed=102, wait=False)
        assert job["state"] in ("queued", "running")
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        assert done["record"]["experiment_id"] == "x3"

    def test_coalescing_over_http(self, client, hold):
        gate = hold("e07")
        first = client.submit("e07", seed=103, wait=False)
        second = client.submit("e07", seed=103, wait=False)
        assert second["id"] == first["id"]
        assert second["coalesced"] >= 1
        gate.set()
        client.wait(first["id"], timeout=60)

    def test_cancel_queued_job(self, client, hold):
        gate = hold("e07")
        blocker = client.submit("e07", seed=104, wait=False)
        queued = client.submit("x3", seed=105, wait=False)
        outcome = client.cancel(queued["id"])
        assert outcome["cancelled"]  # still queued behind the held blocker
        assert client.job(queued["id"])["state"] == "cancelled"
        gate.set()
        client.wait(blocker["id"], timeout=60)

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_id_gets_did_you_mean(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run("e21")
        assert excinfo.value.status == 400
        assert "did you mean" in str(excinfo.value)

    def test_unknown_knob_lists_supported(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run("x3", params={"bogus": 1})
        assert excinfo.value.status == 400
        assert "supported knobs" in str(excinfo.value)

    def test_jobs_listing_newest_first(self, client):
        client.run("x3", seed=106)
        jobs = client.jobs()["jobs"]
        assert jobs, "no jobs listed"
        assert jobs[0]["id"] >= jobs[-1]["id"]

    def test_metrics_counters_move(self, client):
        before = client.metrics()
        client.run("x3", seed=107)
        client.run("x3", seed=107)
        after = client.metrics()
        assert after["jobs"]["submitted"] >= before["jobs"]["submitted"] + 2
        assert after["jobs"]["cache_served"] >= before["jobs"]["cache_served"] + 1
        assert after["cache"]["hit_ratio"] > 0
        assert after["compute_seconds"]["count"] >= 1
        assert after["uptime_seconds"] > 0


class TestProtocolErrors:
    def test_bad_json_body_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.url.split("//")[1].split(":")[0],
            int(server.url.rsplit(":", 1)[1]),
            timeout=30,
        )
        connection.request(
            "POST",
            "/run",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "invalid JSON" in payload["error"]
        connection.close()

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/healthz")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/run")
        assert excinfo.value.status == 405

    def test_priority_and_wait_type_validation(self, client):
        with pytest.raises(ServiceError, match="priority must be"):
            client._request(
                "POST", "/run", {"experiment_id": "a4", "priority": "high"}
            )
        with pytest.raises(ServiceError, match="wait must be"):
            client._request(
                "POST", "/run", {"experiment_id": "a4", "wait": "yes"}
            )

    def test_client_reconnects_after_server_side_close(self, server):
        # two sequential clients over the same server exercise fresh
        # connections; an explicitly closed client transparently reopens
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"
        client.close()
        assert client.healthz()["status"] == "ok"
        client.close()

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ServiceError, match="only http"):
            ServiceClient("https://example.test:1")

    def test_unreachable_service_is_503(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503


class TestQueueLimitOverHttp:
    def test_full_queue_returns_429(self, tmp_path, hold):
        gate = hold("e02")
        with ThreadedServer(
            store_path=tmp_path, procs=0, queue_limit=1
        ) as hosted:
            client = ServiceClient(hosted.url)
            blocker = client.submit("e02", seed=1, wait=False)
            wait_until(
                lambda: client.job(blocker["id"])["state"] == "running",
                message="blocker never started",
            )
            client.submit("x3", seed=1, wait=False)  # fills the queue
            with pytest.raises(ServiceError) as excinfo:
                client.submit("x3", seed=2, wait=False)
            assert excinfo.value.status == 429
            assert "queue is full" in str(excinfo.value)
            gate.set()
            client.wait(blocker["id"], timeout=60)
            client.close()
