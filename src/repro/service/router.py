"""Cluster front-end: route each request to the shard that owns its key.

One router + N shard instances behave like one big service.  The router
computes every ``POST /run`` request's cache key (the sweep layer's
content hash) and forwards the request to the owning shard on the
:class:`~repro.service.shard.HashRing`.  Identical requests — no matter
which client sent them — therefore reach the *same* shard, whose
scheduler coalesces them onto one computation: coalescing and the
two-tier cache become cluster-wide without any shared state between
shards.

Failure handling, in order of escalation:

1. **bounded retry with backoff** — a transport failure against a shard
   retries on a fresh connection after a short exponential backoff
   (killed shards fail fast at connect, so this costs milliseconds);
2. **ring re-route** — a shard that stays unreachable is marked down and
   the request falls through to the next shard on the key's preference
   list; the cluster degrades (that key's cache/coalescing locality
   moves) but keeps answering;
3. **503 + Retry-After** — only when *no* shard on the list is
   reachable does the caller see an error, with a ``Retry-After`` hint.

A background health loop probes ``GET /healthz`` on each shard; a shard
that comes back is detected within one probe interval and resumes
owning its range (the ring itself never changes — membership is fixed
at construction, only health toggles).

Shard-level HTTP errors are **relayed verbatim** (status and body): a
429 queue-full or a did-you-mean 400 from a shard reaches the caller
unchanged, with a ``shard`` field added so callers can see placement.

``GET /jobs/<id>`` routes by the id itself: shards are named, and their
schedulers mint ids like ``s1-job-000042``, so the router peels the
shard name off the id.  Ids without a known prefix fall back to asking
every reachable shard.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from ..errors import ModelError
from ..obs import span, tracing_active
from ..obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    render_prometheus,
)
from .aclient import AsyncHttpClient, ShardUnreachable
from .errors import ServiceError
from .http import (
    PROMETHEUS_CONTENT_TYPE,
    BaseHttpServer,
    RawResponse,
    _HostedLoop,
    _experiments_payload,
    _method_not_allowed,
    _null_context,
    _Request,
)
from .jobs import JobSpec
from .shard import HashRing

__all__ = ["Router", "RouterServer", "ShardState", "ThreadedRouter"]

#: counters summed across shards for the cluster /metrics view
_SUMMED_COUNTERS = (
    "submitted",
    "cache_served",
    "coalesced",
    "completed",
    "failed",
    "cancelled",
    "rejected",
    "queue_depth",
    "running",
    "slots",
)


class ShardState:
    """One shard's address, client and live health bookkeeping."""

    def __init__(self, name: str, host: str, port: int, timeout: float) -> None:
        self.name = name
        self.host = host
        self.port = int(port)
        self.client = AsyncHttpClient(host, port, timeout=timeout)
        self.healthy = True  # optimistic: first failure flips it
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self.last_change = time.time()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def mark_up(self) -> None:
        if not self.healthy:
            self.last_change = time.time()
        self.healthy = True
        self.consecutive_failures = 0
        self.last_error = None

    def mark_down(self, error: Exception) -> None:
        if self.healthy:
            self.last_change = time.time()
        self.healthy = False
        self.consecutive_failures += 1
        self.last_error = str(error)

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "since": self.last_change,
        }


def _parse_shard_url(url: str) -> Tuple[str, int]:
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http"):
        raise ModelError(f"only http:// shard URLs are supported: {url!r}")
    if not parts.hostname or not parts.port:
        raise ModelError(f"shard URL needs host:port, got {url!r}")
    return parts.hostname, parts.port


class Router:
    """Key-affinity request router over a fixed set of shard instances."""

    def __init__(
        self,
        shards: Dict[str, str],
        retries: int = 1,
        backoff: float = 0.05,
        health_interval: float = 1.0,
        timeout: float = 630.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not shards:
            raise ModelError("router needs at least one shard (name -> url)")
        for name in shards:
            if not name or "/" in name or " " in name:
                raise ModelError(
                    f"shard name must be a non-empty token without '/' or "
                    f"spaces, got {name!r}"
                )
        if retries < 0:
            raise ModelError(f"retries must be >= 0, got {retries}")
        self.ring = HashRing(list(shards))
        self.retries = retries
        self.backoff = backoff
        self.health_interval = health_interval
        self._shards: Dict[str, ShardState] = {}
        for name, url in shards.items():
            host, port = _parse_shard_url(url)
            self._shards[name] = ShardState(name, host, port, timeout)
        self._health_task: Optional[asyncio.Task] = None
        self.started_at = time.time()
        if registry is None:
            from ..obs.metrics import default_registry

            registry = default_registry()
        self.registry = registry
        self._instrumented = not isinstance(registry, NullRegistry)
        self._relays = registry.counter(
            "repro_router_relays_total",
            "Requests relayed to shards, by shard and outcome.",
            ("shard", "outcome"),
        )
        self._scrapes = registry.counter(
            "repro_router_scrapes_total",
            "Per-shard metrics scrapes, by shard and outcome.",
            ("shard", "outcome"),
        )
        self._shards_healthy_gauge = registry.gauge(
            "repro_router_shards_healthy",
            "Shards currently passing health probes.",
        )
        self._shards_total_gauge = registry.gauge(
            "repro_router_shards_total", "Shards configured on the ring."
        )
        self._uptime_gauge = registry.gauge(
            "repro_uptime_seconds", "Seconds since the router started."
        )

    def _relay_span(self, path: str, shard_name: str):
        """A ``router.relay`` span, or a no-op when uninstrumented.

        The span installs itself as the current trace context, so the
        shard-bound request's ``X-Repro-Trace`` header (added by
        :class:`~repro.service.aclient.AsyncHttpClient`) parents the
        shard's own spans under the relay."""
        if not self._instrumented or not tracing_active():
            return _null_context()
        return span("router.relay", path=path, shard=shard_name)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "Router":
        """Probe every shard once, then keep probing in the background."""
        await self.check_health()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )
        return self

    async def close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for shard in self._shards.values():
            await shard.client.close()

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            try:
                await self.check_health()
            except asyncio.CancelledError:
                raise
            except Exception:
                pass  # a probe hiccup must never kill the loop

    async def check_health(self) -> Dict[str, bool]:
        """Probe every shard's ``/healthz`` concurrently; update state."""

        async def probe(shard: ShardState) -> None:
            try:
                status, _, _ = await asyncio.wait_for(
                    shard.client.request("GET", "/healthz"),
                    timeout=max(self.health_interval, 1.0),
                )
            except (ShardUnreachable, asyncio.TimeoutError) as error:
                shard.mark_down(
                    error if str(error) else TimeoutError("health probe")
                )
                return
            if status == 200:
                shard.mark_up()
            else:
                shard.mark_down(RuntimeError(f"healthz returned {status}"))

        await asyncio.gather(
            *(probe(shard) for shard in self._shards.values())
        )
        return {name: s.healthy for name, s in self._shards.items()}

    # -- forwarding ------------------------------------------------------

    def _candidates(self, key: str) -> List[ShardState]:
        """Preference-ordered shards: healthy first, marked-down last.

        Down shards stay in the list — health state can be stale (the
        probe interval is finite), so a "down" shard still gets one shot
        after every healthy candidate failed rather than 503ing early.
        """
        order = [self._shards[name] for name in self.ring.preference(key)]
        healthy = [shard for shard in order if shard.healthy]
        down = [shard for shard in order if not shard.healthy]
        return healthy + down

    async def forward(
        self,
        method: str,
        path: str,
        payload: Optional[object],
        key: str,
    ) -> Tuple[int, dict, str]:
        """Send a request to the shard owning ``key``, with failover.

        Returns ``(status, body, shard_name)`` — including shard-level
        HTTP errors, which relay verbatim.  Raises :class:`ServiceError`
        503 (with ``Retry-After``) only when every candidate shard is
        unreachable after bounded retries.
        """
        last_error: Optional[Exception] = None
        for shard in self._candidates(key):
            with self._relay_span(path, shard.name) as handle:
                for attempt in range(self.retries + 1):
                    try:
                        status, body, _ = await shard.client.request(
                            method, path, payload
                        )
                    except ShardUnreachable as error:
                        last_error = error
                        if attempt < self.retries:
                            await asyncio.sleep(self.backoff * (2**attempt))
                            continue
                        shard.mark_down(error)
                        self._relays.inc(
                            shard=shard.name, outcome="unreachable"
                        )
                        if handle is not None:
                            handle.fields["outcome"] = "unreachable"
                        break  # fall through to the next preference entry
                    shard.mark_up()
                    self._relays.inc(shard=shard.name, outcome="ok")
                    if handle is not None:
                        handle.fields["status"] = status
                    return status, body, shard.name
        raise ServiceError(
            f"no shard reachable for this request "
            f"({len(self._shards)} configured, all down); last error: "
            f"{last_error}",
            status=503,
            headers={"Retry-After": "1"},
        )

    async def forward_run(self, body: object) -> Tuple[int, dict, str]:
        """Validate a ``POST /run`` body and forward it to the key's owner.

        Validation happens router-side first: malformed requests get
        their 400 (with did-you-mean hints) without consuming a shard
        round trip, and the router needs the spec anyway — its cache key
        is the routing key.
        """
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        spec = JobSpec.from_request(body)
        return await self.forward("POST", "/run", body, spec.cache_key())

    def _shard_for_job(self, job_id: str) -> Optional[ShardState]:
        """The shard that minted ``job_id``, by its name prefix."""
        name, separator, _ = job_id.rpartition("-job-")
        if separator and name in self._shards:
            return self._shards[name]
        return None

    async def forward_job(
        self, method: str, path: str, job_id: str
    ) -> Tuple[int, dict, str]:
        """Route a ``/jobs/<id>...`` request to the shard that owns the id.

        Prefixed ids go straight to their shard (with ring-style 503
        semantics if it is down — job state lives only there, so no
        other shard can answer).  Unprefixed ids broadcast to every
        reachable shard and return the first non-404 answer.
        """
        shard = self._shard_for_job(job_id)
        if shard is not None:
            with self._relay_span(path, shard.name) as handle:
                for attempt in range(self.retries + 1):
                    try:
                        status, body, _ = await shard.client.request(
                            method, path
                        )
                    except ShardUnreachable as error:
                        if attempt < self.retries:
                            await asyncio.sleep(self.backoff * (2**attempt))
                            continue
                        shard.mark_down(error)
                        self._relays.inc(
                            shard=shard.name, outcome="unreachable"
                        )
                        if handle is not None:
                            handle.fields["outcome"] = "unreachable"
                        raise ServiceError(
                            f"shard {shard.name!r} (which owns job {job_id}) "
                            f"is unreachable: {error}",
                            status=503,
                            headers={"Retry-After": "1"},
                        )
                    shard.mark_up()
                    self._relays.inc(shard=shard.name, outcome="ok")
                    if handle is not None:
                        handle.fields["status"] = status
                    return status, body, shard.name
        # no recognizable prefix: ask everyone, first non-404 wins
        last: Tuple[int, dict, str] = (
            404,
            {"error": f"no such job: {job_id}"},
            "",
        )
        for state in self._shards.values():
            try:
                status, body, _ = await state.client.request(method, path)
            except ShardUnreachable as error:
                state.mark_down(error)
                continue
            state.mark_up()
            if status != 404:
                return status, body, state.name
        return last

    # -- cluster views ---------------------------------------------------

    def shards_payload(self) -> Dict[str, object]:
        """The ``GET /shards`` topology + health payload."""
        return {
            "ring": {
                "shards": list(self.ring.shards),
                "vnodes": self.ring.vnodes,
            },
            "shards": [
                self._shards[name].to_payload() for name in self.ring.shards
            ],
        }

    def healthz_payload(self) -> Tuple[int, Dict[str, object]]:
        """Router liveness: 200 while any shard is reachable, else 503."""
        reachable = sum(1 for s in self._shards.values() if s.healthy)
        payload = {
            "status": "ok" if reachable else "degraded",
            "role": "router",
            "shards_total": len(self._shards),
            "shards_healthy": reachable,
        }
        return (200 if reachable else 503), payload

    async def cluster_metrics(self) -> Dict[str, object]:
        """Aggregate ``GET /metrics`` across shards: sums + per-shard."""

        async def fetch(shard: ShardState):
            try:
                status, body, _ = await shard.client.request(
                    "GET", "/metrics"
                )
            except ShardUnreachable as error:
                shard.mark_down(error)
                self._scrapes.inc(shard=shard.name, outcome="unreachable")
                return shard.name, None
            shard.mark_up()
            if status == 200:
                self._scrapes.inc(shard=shard.name, outcome="ok")
                return shard.name, body
            self._scrapes.inc(shard=shard.name, outcome="error")
            return shard.name, None

        results = await asyncio.gather(
            *(fetch(s) for s in self._shards.values())
        )
        totals = {counter: 0 for counter in _SUMMED_COUNTERS}
        per_shard: Dict[str, object] = {}
        reachable = 0
        for name, body in sorted(results):
            per_shard[name] = body
            if body is None:
                continue
            reachable += 1
            jobs = body.get("jobs", {})
            for counter in _SUMMED_COUNTERS:
                value = jobs.get(counter)
                if isinstance(value, (int, float)):
                    totals[counter] += value
        return {
            "role": "router",
            "uptime_seconds": time.time() - self.started_at,
            "shards_total": len(self._shards),
            "shards_reachable": reachable,
            "jobs": totals,
            "per_shard": per_shard,
        }

    async def prometheus_text(self) -> str:
        """The router's ``/metrics`` in Prometheus text exposition.

        Router-local series (request latency, relay and scrape counters,
        health gauges) come from the router's own registry; cluster-wide
        job totals are re-scraped from the shards and rendered as gauges
        (a shard that misses a scrape makes the sum dip, so a counter
        type would lie about monotonicity).
        """
        cluster = await self.cluster_metrics()
        self._shards_healthy_gauge.set(
            sum(1 for s in self._shards.values() if s.healthy)
        )
        self._shards_total_gauge.set(len(self._shards))
        self._uptime_gauge.set(time.time() - self.started_at)
        local = render_prometheus(self.registry.snapshot())
        summary = MetricsRegistry()
        jobs_gauge = summary.gauge(
            "repro_cluster_jobs",
            "Cluster-wide job counters summed across reachable shards.",
            ("event",),
        )
        for counter, value in cluster["jobs"].items():
            jobs_gauge.set(value, event=counter)
        summary.gauge(
            "repro_cluster_shards_reachable",
            "Shards that answered the metrics scrape.",
        ).set(cluster["shards_reachable"])
        return local + render_prometheus(summary.snapshot())


class RouterServer(BaseHttpServer):
    """The router's HTTP front-end (same wire surface as a shard).

    Clients cannot tell a router from a single server: ``POST /run``,
    ``/jobs``, ``/healthz``, ``/metrics`` and ``/experiments`` all work,
    plus ``GET /shards`` for topology.  Shard responses gain a
    ``"shard"`` field naming the instance that answered.
    """

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 8750,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            registry=registry if registry is not None else router.registry,
        )
        self.router = router

    async def _route(self, request: _Request):
        method, path = request.method, request.path
        segments = [part for part in path.split("/") if part]
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            return self.router.healthz_payload()
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            if request.wants_prometheus():
                text = await self.router.prometheus_text()
                return 200, RawResponse(
                    text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                )
            return 200, await self.router.cluster_metrics()
        if path == "/shards":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            return 200, self.router.shards_payload()
        if path == "/experiments":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            return 200, _experiments_payload()  # registry is shared code
        if path == "/run":
            if method != "POST":
                return _method_not_allowed(path, "POST")
            status, body, shard = await self.router.forward_run(
                request.json()
            )
            if isinstance(body, dict):
                body.setdefault("shard", shard)
            return status, body
        if segments and segments[0] == "jobs":
            if len(segments) == 1:
                if method != "GET":
                    return _method_not_allowed("/jobs", "GET")
                return 200, await self._merged_jobs()
            job_id = segments[1]
            status, body, shard = await self.router.forward_job(
                method, path, job_id
            )
            if isinstance(body, dict) and shard:
                body.setdefault("shard", shard)
            return status, body
        return 404, {"error": f"no route for {method} {path}"}

    async def _merged_jobs(self) -> Dict[str, object]:
        """``GET /jobs`` cluster-wide: every reachable shard's list, merged
        newest-first (creation time orders across shards)."""
        router = self.router

        async def fetch(shard: ShardState):
            try:
                status, body, _ = await shard.client.request("GET", "/jobs")
            except ShardUnreachable as error:
                shard.mark_down(error)
                return []
            shard.mark_up()
            if status != 200 or not isinstance(body, dict):
                return []
            jobs = body.get("jobs", [])
            for job in jobs:
                if isinstance(job, dict):
                    job.setdefault("shard", shard.name)
            return jobs

        lists = await asyncio.gather(
            *(fetch(s) for s in router._shards.values())
        )
        merged = [job for jobs in lists for job in jobs]
        merged.sort(key=lambda job: job.get("created") or 0, reverse=True)
        return {"jobs": merged}


class ThreadedRouter(_HostedLoop):
    """A router + HTTP front-end hosted on a background thread.

    The in-process twin of :class:`~repro.service.http.ThreadedServer`,
    used by the cluster tests and the bench harness: hand it shard URLs,
    get a bound router URL back.
    """

    def __init__(
        self,
        shards: Dict[str, str],
        host: str = "127.0.0.1",
        port: int = 0,
        retries: int = 1,
        backoff: float = 0.05,
        health_interval: float = 0.25,
        instrument: bool = True,
    ) -> None:
        self.router: Optional[Router] = None

        async def _start():
            # a fresh registry per hosted router keeps concurrently
            # hosted instances (tests, the bench) from mixing counters
            registry = MetricsRegistry() if instrument else NULL_REGISTRY
            router = Router(
                shards,
                retries=retries,
                backoff=backoff,
                health_interval=health_interval,
                registry=registry,
            )
            await router.start()
            server = RouterServer(router, host=host, port=port)
            await server.start()
            self.router = router

            async def _close() -> None:
                await server.close()
                await router.close()

            return server.url, _close

        self._host(_start, "router", "repro-router")

