"""The ``service`` part: routed ``POST /run`` traffic against a real cluster.

The router and two ``serve --procs 1`` shards each run as their own CLI
subprocess, each shard with a fresh JSONL store.  Load is a closed loop
of two keep-alive :class:`repro.service.ServiceClient` threads -- each
sends its next request only when the previous reply arrived, as
``sweep --via-service --procs 2`` callers do:

1. cold: distinct (cheap fast-mode experiment, seed) points, each
   computed and persisted by its owning shard;
2. one burst: both threads send the same new point at once, which the
   owning shard coalesces into one execution;
3. warm: the cold points again, served from the cache, until the
   part's time is used.

Every ``scrape_every``-th request of a thread is a ``GET /metrics``.
With tracing on, the servers log their spans (``--log-level debug
--log-format json``) and the part reads the per-layer numbers from them.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from stats import median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

_SHARD_BANNER = re.compile(r"serving (http://[\w.\-]+:\d+)")
_ROUTER_BANNER = re.compile(r"routing (http://[\w.\-]+:\d+)")
_STARTUP_TIMEOUT = 60.0


def _await_banner(process, pattern, deadline: float) -> str:
    buffered = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"no startup banner from {process.args[3]}")
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(process.stdout.fileno(), 4096)
        if not chunk:
            raise RuntimeError(
                f"{process.args[3]} exited during startup: {buffered[-500:]!r}"
            )
        buffered += chunk
        match = pattern.search(buffered.decode("utf-8", "replace"))
        if match:
            return match.group(1)


def _free_ports(count: int) -> list:
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _descendants(pid: int) -> list:
    found = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                children = [int(item) for item in handle.read().split()]
        except OSError:
            children = []
        found += children
        pending += children
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Cluster:
    """A router and two shard subprocesses on free local ports."""

    def __init__(self, work_dir: str, traced: bool) -> None:
        self.work_dir = work_dir
        self.traced = traced
        self.processes: list = []
        self.url = ""

    def _spawn(self, argv: list, name: str):
        command = [sys.executable, "-m", "repro.experiments"] + argv
        if self.traced:
            command += [
                "--log-level", "debug", "--log-format", "json",
                "--log-file", os.path.join(self.work_dir, f"{name}.jsonl"),
            ]
        env = dict(os.environ, PYTHONPATH=SRC)
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
        )
        self.processes.append(process)
        return process

    def start(self) -> float:
        """Launch the cluster; returns seconds until every ``/healthz`` is OK.

        The three processes start together on ports picked beforehand, as
        a deployment with configured ports would start them.
        """
        from repro.service import ServiceClient, ServiceError

        began = time.perf_counter()
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        ports = _free_ports(3)
        urls = {name: f"http://127.0.0.1:{port}" for name, port in zip(("s0", "s1"), ports)}
        shards = [
            self._spawn(
                ["serve", "--port", str(port), "--procs", "1", "--name", name,
                 "--store", os.path.join(self.work_dir, f"store-{name}"),
                 "--store-backend", "jsonl"],
                name,
            )
            for name, port in zip(urls, ports)
        ]
        router = self._spawn(
            ["router", "--port", str(ports[2]), "--health-interval", "0.2"]
            + [item for name, url in urls.items() for item in ("--shard", f"{name}={url}")],
            "router",
        )
        for shard in shards:
            _await_banner(shard, _SHARD_BANNER, deadline)
        self.url = _await_banner(router, _ROUTER_BANNER, deadline)
        for url in list(urls.values()) + [self.url]:
            with ServiceClient(url, timeout=10.0) as client:
                while True:
                    try:
                        health = client.healthz()
                    except ServiceError:
                        health = {}
                    if health.get("status") == "ok" and health.get("shards_healthy", 2) == 2:
                        break
                    if time.monotonic() > deadline:
                        raise RuntimeError(f"{url} never became healthy")
                    time.sleep(0.01)
        return time.perf_counter() - began

    def peak_rss_mb(self) -> float:
        pids = []
        for process in self.processes:
            pids += [process.pid] + _descendants(process.pid)
        return sum(_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        leftovers = []
        for process in reversed(self.processes):
            leftovers += _descendants(process.pid)
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30.0)
            process.stdout.close()
        for pid in leftovers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.processes = []


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class _Load:
    """Per-run request bookkeeping shared by the two client threads."""

    def __init__(self, url: str, scrape_every: int) -> None:
        self.url = url
        self.scrape_every = scrape_every
        self.lock = threading.Lock()
        self.cold = []  # latency per cold request
        self.warm = []
        self.scrapes = []
        self.burst = []
        self.cold_records = {}
        self.next_cold = 0
        self.attempted = 0
        self.failures = []

    def _fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)

    def request(self, client, point, sink, count: list):
        """One ``POST /run`` (or, every so often, a ``GET /metrics`` first)."""
        from repro.service import ServiceError

        count[0] += 1
        if count[0] % self.scrape_every == 0:
            began = time.perf_counter()
            try:
                client.metrics()
                self.scrapes.append(time.perf_counter() - began)
            except ServiceError as error:
                self._fail(f"GET /metrics: {error.status} {error}")
            with self.lock:
                self.attempted += 1
        began = time.perf_counter()
        try:
            job = client.run(point[0], seed=point[1], fast=True, timeout=120.0)
        except ServiceError as error:
            self._fail(f"POST /run {point}: {error.status} {error}")
            job = None
        latency = time.perf_counter() - began
        with self.lock:
            self.attempted += 1
        if job is not None:
            sink.append(latency)
        return job


def _run_threads(target, barrier: threading.Barrier, count: int = 2) -> None:
    """Run ``target(index)`` on ``count`` threads; re-raise what any raised.

    A failing thread breaks ``barrier``, so its partner stops waiting.
    """
    errors = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # re-raised below, in the calling thread
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if errors:
        raise RuntimeError("client thread failed") from errors[0]


def _traffic_slice(load: _Load, clients: list, spec: dict, index: int) -> float:
    """One slice of traffic; returns the wall time of its warm phase.

    The slice sends its share of the cold points (and, in the first
    slice, the burst), then warm requests over every point sent so far
    for its share of the time.
    """
    cold_points = [tuple(point) for point in spec["cold_points"]]
    slices = spec["slices"]
    end = len(cold_points) * (index + 1) // slices
    barrier = threading.Barrier(2)
    window = [0.0, 0.0]  # warm phase start and deadline

    def client_loop(thread: int) -> None:
        client, count = clients[thread]
        while True:
            with load.lock:
                position = load.next_cold
                if position >= end:
                    break
                load.next_cold += 1
            point = cold_points[position]
            job = load.request(client, point, load.cold, count)
            if job is not None:
                load.cold_records[point] = _canonical(job["record"])
        if index == 0:
            barrier.wait(timeout=120.0)
            load.request(client, tuple(spec["burst_point"]), load.burst, count)
        if barrier.wait(timeout=120.0) == 0:
            window[0] = time.perf_counter()
            window[1] = window[0] + spec["seconds"] / slices
        barrier.wait(timeout=120.0)
        order = cold_points[thread:end:2]
        position = 0
        while time.perf_counter() < window[1]:
            point = order[position % len(order)]
            position += 1
            job = load.request(client, point, load.warm, count)
            if job is not None and _canonical(job["record"]) != load.cold_records.get(point):
                load._fail(f"warm record of {point} differs from its cold record")

    _run_threads(client_loop, barrier)
    return time.perf_counter() - window[0]


def _sampled_record_check(load: _Load, spec: dict) -> None:
    """A sampled cold record equals an in-process run of the same point."""
    import repro.experiments  # noqa: F401  (registers every id)
    from repro.experiments.registry import run_experiment

    point = tuple(spec["check_point"])
    load.attempted += 1
    if point not in load.cold_records:
        load.failures.append(f"no cold record of {point} to check")
        return
    record = json.loads(load.cold_records[point])
    local = run_experiment(point[0], seed=point[1], fast=True).to_payload()
    if _canonical(record["result"]) != _canonical(json.loads(json.dumps(local))):
        load.failures.append(f"cold record of {point} differs from run_experiment")


def _span_metrics(work_dir: str, spans_out: str) -> dict:
    """Per-layer numbers from the servers' span logs, which are kept."""
    spans = []
    for name in ("router", "s0", "s1"):
        path = os.path.join(work_dir, f"{name}.jsonl")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and record.get("event") == "span":
                    spans.append(record)
    with open(spans_out, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(span) + "\n" for span in spans)
    child_time = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + float(
                span.get("duration_seconds") or 0.0
            )

    def durations(name: str) -> list:
        return [float(s["duration_seconds"]) for s in spans if s.get("name") == name]

    http_self = [
        float(s["duration_seconds"]) - child_time.get(s["span_id"], 0.0)
        for s in spans
        if s.get("name") == "http.request" and s.get("path") == "/run"
    ]
    return {
        "spans": len(spans),
        "relay": durations("router.relay"),
        "http_self": http_self,
        "queue_wait": durations("job.queue_wait"),
        "execute": durations("job.execute"),
        "persist": durations("job.persist"),
    }


class ServiceRun:
    """The service part of one run: launch, traffic slices, result.

    With ``spans_out`` set the servers run traced and their spans are
    written there.
    """

    def __init__(self, spec: dict, work_dir: str, spans_out=None) -> None:
        self.spec = spec
        self.work_dir = work_dir
        self.spans_out = spans_out
        self.setups = []
        self.warm_wall = 0.0

    def start(self) -> None:
        """Launch the cluster ``launches`` times; the last one stays up."""
        from repro.service import ServiceClient

        for launch in range(self.spec["launches"]):
            self.launch_dir = os.path.join(self.work_dir, f"launch-{launch}")
            os.makedirs(self.launch_dir)
            self.cluster = Cluster(self.launch_dir, self.spans_out is not None)
            try:
                self.setups.append(self.cluster.start())
            finally:
                if launch < self.spec["launches"] - 1:
                    self.cluster.stop()
        self.load = _Load(self.cluster.url, self.spec["scrape_every"])
        self.clients = [(ServiceClient(self.cluster.url), [0]) for _ in range(2)]

    def run_slice(self, index: int) -> None:
        self.warm_wall += _traffic_slice(self.load, self.clients, self.spec, index)

    def stop(self) -> None:
        """Close the clients and stop the cluster (safe to call twice)."""
        for client, _count in getattr(self, "clients", []):
            client.close()
        self.clients = []
        if getattr(self, "cluster", None) is not None:
            self.cluster.stop()

    def finish(self) -> dict:
        from repro.service import ServiceClient

        load = self.load
        try:
            with ServiceClient(self.cluster.url) as client:
                snapshot = client.metrics()
            rss = self.cluster.peak_rss_mb()
        finally:
            self.stop()
        _sampled_record_check(load, self.spec)
        shards = list(snapshot["per_shard"].values())
        jobs = {
            key: sum(shard["jobs"][key] for shard in shards)
            for key in ("completed", "coalesced", "rejected")
        }
        hits = sum(shard["cache"]["memory_hits"] + shard["cache"]["store_hits"] for shard in shards)
        lookups = hits + sum(shard["cache"]["misses"] for shard in shards)
        result = {
            "setup_s": median(self.setups),
            "setup_samples_s": self.setups,
            "peak_rss_mb": rss,
            "cold_p50_s": median(load.cold),
            "cold_p90_s": percentile(load.cold, 90),
            "cold_n": len(load.cold),
            "warm_p50_s": median(load.warm),
            "warm_p90_s": percentile(load.warm, 90),
            "warm_n": len(load.warm),
            "warm_rps": len(load.warm) / self.warm_wall,
            "unit_s": median(load.warm),
            "metrics_scrape_p50_s": median(load.scrapes),
            "scrapes_n": len(load.scrapes),
            "executions": int(jobs["completed"]),
            "coalesced": int(jobs["coalesced"]),
            "rejected": int(jobs["rejected"]),
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "cache_lookups": lookups,
            "attempted": load.attempted,
            "failed": len(load.failures),
            "failures": load.failures[:20],
        }
        if self.spans_out is not None:
            result["trace"] = _span_metrics(self.launch_dir, self.spans_out)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        return result
