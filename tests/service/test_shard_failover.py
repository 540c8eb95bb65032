"""Chaos test: SIGKILL a shard mid-load; the cluster degrades, then heals.

The cluster-level crash contract, against real ``serve`` subprocesses:

* while a shard is hard-killed (SIGKILL — no drain, no goodbye) under
  concurrent load, every request the router accepted still completes:
  in-flight forwards fail over to the surviving shard transparently, so
  callers never see the failure;
* the killed shard's *persisted* results survive: its store is on disk,
  so after restart the same requests are served as cache hits;
* the ring heals without reconfiguration: the restarted shard comes back
  on its recorded port, the health probe notices, and keys it owns route
  to it again.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import LocalCluster, ServiceClient

from .conftest import wait_until

pytestmark = pytest.mark.slow

SEEDS = range(12)


def _submit(url, seed):
    # one client per call: clients hold a keep-alive connection and are
    # not thread-safe
    with ServiceClient(url) as client:
        return client.submit("a5", seed=seed, wait=True)


class TestShardFailover:
    def test_kill_one_shard_under_load_no_accepted_request_lost(
        self, tmp_path
    ):
        with LocalCluster(2, tmp_path / "stores") as cluster:
            url = cluster.url
            # phase 1: warm the cluster; learn each seed's home shard
            home = {}
            for seed in SEEDS:
                job = _submit(url, seed)
                assert job["state"] == "done", job
                home[seed] = job["shard"]
            assert set(home.values()) == {"s0", "s1"}, home
            victim = cluster.shard("s0")

            # phase 2: concurrent load with a mid-flight SIGKILL
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(_submit, url, seed) for seed in SEEDS
                ]
                victim.kill()  # no drain — the chaos moment
                results = [future.result(timeout=120) for future in futures]
            for job in results:
                # every accepted request completed somewhere: either its
                # healthy home shard (cache hit) or a failover recompute
                assert job["state"] == "done", job
                assert job["shard"] in ("s0", "s1")
            survivors = {job["shard"] for job in results}
            assert "s1" in survivors
            # degraded but honest: the router reports one shard down
            with ServiceClient(url) as client:
                wait_until(
                    lambda: client.healthz()["shards_healthy"] == 1,
                    message="router never noticed the killed shard",
                )
                # s0-owned keys now answer from s1 (explicitly re-routed)
                s0_seed = next(s for s in SEEDS if home[s] == "s0")
                rerouted = client.submit("a5", seed=s0_seed, wait=True)
                assert rerouted["state"] == "done"
                assert rerouted["shard"] == "s1"

            # phase 3: the shard returns on its recorded port; ring heals
            victim.restart()
            with ServiceClient(url) as client:
                wait_until(
                    lambda: client.healthz()["shards_healthy"] == 2,
                    message="router never saw the shard return",
                )
                healed = client.submit("a5", seed=s0_seed, wait=True)
                assert healed["shard"] == "s0"  # affinity restored
                # SIGKILL did not eat the pre-kill persisted result: the
                # restarted shard serves it from its on-disk store
                assert healed["cached"] is True, healed
                assert healed["source"] in ("store", "memory")
