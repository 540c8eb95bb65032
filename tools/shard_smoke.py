"""Live smoke for the sharded service: router + 2 serve subprocesses.

Exercises the cluster-level contract end to end:

1. distinct cache keys spread across both shards (the ring actually
   partitions work);
2. simultaneous identical cold requests entering through the router
   coalesce onto exactly **one** execution cluster-wide;
3. SIGKILL one shard: the router degrades honestly (healthz reports one
   healthy shard) and keys owned by the dead shard re-route to the
   survivor;
4. restart the shard on its recorded port: the ring heals, the key
   routes home again, and the pre-kill result is served from the
   shard's persisted store (a cache hit — SIGKILL lost nothing).

Exit status is non-zero on the first violated check.  CI runs this as
the ``shard-smoke`` job; locally::

    PYTHONPATH=src python tools/shard_smoke.py
"""

import argparse
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import LocalCluster, ServiceClient  # noqa: E402

EXPERIMENT = "a5"
COALESCE_CLIENTS = 6


def _check(condition, label, detail=""):
    if not condition:
        print(f"FAIL: {label} {detail}".rstrip(), file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {label}")


def _wait_until(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    print(f"FAIL: timed out waiting for {message}", file=sys.stderr)
    raise SystemExit(1)


def _spread_check(url):
    """Seeds land on both shards; returns one seed homed on each shard."""
    home = {}
    with ServiceClient(url) as client:
        for seed in range(16):
            job = client.submit(EXPERIMENT, seed=seed, wait=True)
            home.setdefault(job["shard"], seed)
            if len(home) == 2:
                break
    _check(
        len(home) == 2,
        "distinct keys spread across both shards",
        f"(placed only on {sorted(home)})",
    )
    return home


def _coalesce_check(url):
    with ServiceClient(url) as client:
        before = client.metrics()["jobs"]
    barrier = threading.Barrier(COALESCE_CLIENTS)

    def fire(seed):
        with ServiceClient(url) as client:
            barrier.wait(timeout=60)
            return client.run(EXPERIMENT, seed=seed)

    with ThreadPoolExecutor(max_workers=COALESCE_CLIENTS) as pool:
        jobs = list(
            pool.map(fire, [990_001] * COALESCE_CLIENTS)
        )
    with ServiceClient(url) as client:
        after = client.metrics()["jobs"]
    executions = after["completed"] - before["completed"]
    _check(
        executions == 1,
        "identical requests coalesce onto one execution cluster-wide",
        f"({executions} executions for {COALESCE_CLIENTS} requests)",
    )
    _check(
        len({job["shard"] for job in jobs}) == 1,
        "coalesced requests all answered by the owning shard",
    )


def _failover_check(url, cluster, home):
    victim_name = sorted(home)[0]
    victim_seed = home[victim_name]
    survivor_name = next(name for name in home if name != victim_name)
    cluster.shard(victim_name).kill()
    with ServiceClient(url) as client:
        _wait_until(
            lambda: client.healthz()["shards_healthy"] == 1,
            message="router to notice the killed shard",
        )
        print("ok: router reports the killed shard down")
        rerouted = client.submit(EXPERIMENT, seed=victim_seed, wait=True)
        _check(
            rerouted["state"] == "done"
            and rerouted["shard"] == survivor_name,
            "dead shard's keys re-route to the survivor",
            f"(landed on {rerouted['shard']})",
        )
    cluster.shard(victim_name).restart()
    with ServiceClient(url) as client:
        _wait_until(
            lambda: client.healthz()["shards_healthy"] == 2,
            message="router to see the restarted shard",
        )
        print("ok: restarted shard rejoined the ring")
        healed = client.submit(EXPERIMENT, seed=victim_seed, wait=True)
        _check(
            healed["shard"] == victim_name,
            "healed ring routes the key back to its home shard",
            f"(landed on {healed['shard']})",
        )
        _check(
            healed["cached"] is True,
            "pre-kill result survived SIGKILL in the persisted store",
            f"(cached={healed['cached']}, source={healed.get('source')})",
        )


def _health_summary(url):
    """One line of cluster health off the router's Prometheus view."""

    def total(families, name, **labels):
        family = families.get(name)
        if family is None:
            return 0
        return sum(
            value
            for _, sample_labels, value in family["samples"]
            if all(sample_labels.get(k) == v for k, v in labels.items())
        )

    with ServiceClient(url) as client:
        families = client.metrics(format="prometheus")
    healthy = total(families, "repro_router_shards_healthy")
    configured = total(families, "repro_router_shards_total")
    completed = total(families, "repro_cluster_jobs", event="completed")
    relays = total(families, "repro_router_relays_total", outcome="ok")
    failed_relays = (
        total(families, "repro_router_relays_total") - relays
    )
    print(
        f"cluster health: {healthy:.0f}/{configured:.0f} shards healthy, "
        f"{completed:.0f} jobs completed, {relays:.0f} relays ok, "
        f"{failed_relays:.0f} relay failures"
    )


def main(argv=None):
    argparse.ArgumentParser(
        description="router + 2 shard subprocesses: spread, coalesce, "
        "kill/degrade/heal"
    ).parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="shard_smoke_") as tmp:
        with LocalCluster(2, tmp) as cluster:
            url = cluster.url
            print(f"cluster up: router {url}, shards s0/s1")
            home = _spread_check(url)
            _coalesce_check(url)
            _failover_check(url, cluster, home)
            _health_summary(url)
    print("shard smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
