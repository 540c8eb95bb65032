"""Dependency-free asyncio JSON/HTTP API over the job scheduler.

A deliberately small HTTP/1.1 server (stdlib only — ``asyncio`` streams,
no frameworks) exposing the scheduler's whole surface:

========================  ==================================================
``GET /healthz``          liveness + queue/running gauges
``GET /metrics``          hit/miss/coalesce/queue-depth/latency counters
``GET /experiments``      the registry catalog with each runner's knobs
``POST /run``             submit a run (``wait: true`` blocks until done)
``GET /jobs``             recent jobs, newest first
``GET /jobs/<id>``        one job's status, progress and (when done) record
``POST /jobs/<id>/cancel``  cancel a queued job (running jobs finish)
========================  ==================================================

Connections are keep-alive (the load harness reuses one connection per
client); errors map :class:`~repro.service.errors.ServiceError` statuses
(400 usage, 429 queue full, 503 shutting down) onto JSON ``{"error": …}``
bodies, so the did-you-mean experiment-id hints and unknown-knob messages
reach HTTP clients verbatim.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ModelError
from ..experiments import all_experiment_ids, runner_params
from ..experiments.base import canonical_cell
from ..obs import (
    get_logger,
    parse_trace_header,
    set_trace_context,
    span,
    tracing_active,
)
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY, NullRegistry
from .cache import TwoTierCache
from .errors import ServiceError
from .jobs import DONE, JobScheduler, JobSpec

__all__ = [
    "BaseHttpServer",
    "RawResponse",
    "ServiceServer",
    "ThreadedServer",
]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADERS = 100

#: Prometheus text exposition content type (format 0.0.4)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_log = get_logger("repro.service.http")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class RawResponse:
    """A non-JSON route payload: raw bytes with an explicit content type.

    Routes return these for text formats (Prometheus exposition); the
    responder writes the body verbatim instead of JSON-encoding it.
    """

    body: bytes
    content_type: str = "text/plain; charset=utf-8"


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    query: str = ""

    def wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``.

        An explicit ``?format=prometheus`` (or ``format=json``) wins;
        otherwise an ``Accept`` header preferring ``text/plain`` over
        JSON selects the exposition format.  Default stays the legacy
        JSON shape.
        """
        params = dict(
            pair.partition("=")[::2]
            for pair in self.query.split("&")
            if pair
        )
        fmt = params.get("format", "").lower()
        if fmt == "prometheus":
            return True
        if fmt == "json":
            return False
        if fmt:
            raise ServiceError(
                f"unknown metrics format {fmt!r} (use 'json' or "
                f"'prometheus')",
                status=400,
            )
        accept = self.headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    def json(self) -> object:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            # UnicodeDecodeError: json.loads sniffs the encoding of bytes
            # input and non-UTF bodies fail *before* JSON parsing starts
            raise ServiceError(f"invalid JSON body: {error}", status=400)


from contextlib import contextmanager


@contextmanager
def _null_context():
    """Stand-in for :func:`repro.obs.span` on the uninstrumented path."""
    yield None


def _method_not_allowed(path: str, *allowed: str):
    """A spec-shaped 405: ``Allow`` lists the methods that would work.

    ``GET`` routes implicitly allow ``HEAD`` (the responder answers HEAD
    on any GET route with headers only), so the header advertises it.
    """
    methods = list(allowed)
    if "GET" in methods and "HEAD" not in methods:
        methods.insert(methods.index("GET") + 1, "HEAD")
    allow = ", ".join(methods)
    return (
        405,
        {"error": f"use {' or '.join(allowed)} {path}"},
        {"Allow": allow},
    )


def _knob_payload(default: object) -> object:
    """A runner knob's default as a JSON-safe value."""
    import inspect

    if default is inspect.Parameter.empty:
        return "<required>"
    try:
        return canonical_cell(default)
    except Exception:
        return repr(default)


def _experiments_payload() -> Dict[str, object]:
    experiments = []
    for experiment_id in all_experiment_ids():
        params = runner_params(experiment_id)
        experiments.append(
            {
                "id": experiment_id,
                "params": {
                    name: _knob_payload(default)
                    for name, default in sorted(params.items())
                },
                "precision": "precision" in params,
            }
        )
    return {"experiments": experiments}


class BaseHttpServer:
    """Shared asyncio HTTP/1.1 plumbing: accept loop, parser, responder.

    Subclasses implement :meth:`_route`, returning ``(status, payload)``
    or ``(status, payload, extra_headers)``.  Both the shard-facing
    :class:`ServiceServer` and the cluster-facing
    :class:`~repro.service.router.RouterServer` are built on it, so the
    parser hardening (header caps, length validation, oversized-line
    handling) is enforced once for every front-end.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8752,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        from ..obs.metrics import default_registry

        self.registry = registry if registry is not None else default_registry()
        #: the fully uninstrumented mode skips trace plumbing entirely
        #: (the bench's overhead baseline)
        self._instrumented = not isinstance(self.registry, NullRegistry)
        self._request_seconds = self.registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency by route.",
            ("method", "route", "status"),
        )
        #: memoised (method, route, status) -> bound (histogram, counter)
        #: children — label resolution off the per-request path
        self._request_children: Dict[tuple, tuple] = {}
        self._requests_total = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests handled by route.",
            ("method", "route", "status"),
        )

    @staticmethod
    def _route_label(path: str) -> str:
        """A bounded-cardinality route template for metric labels."""
        segments = [part for part in path.split("/") if part]
        if segments and segments[0] == "jobs" and len(segments) > 1:
            return (
                "/jobs/<id>/cancel"
                if len(segments) == 3 and segments[2] == "cancel"
                else "/jobs/<id>"
            )
        if path in ("/healthz", "/metrics", "/experiments", "/run", "/jobs",
                    "/shards"):
            return path
        return "<other>"

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "BaseHttpServer":
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        """The server's base URL."""
        return f"http://{self.host}:{self.port}"

    @property
    def open_connections(self) -> int:
        """Connection-handler tasks currently alive (leak detector hook)."""
        return len(self._connections)

    async def close(self) -> None:
        """Stop listening and drop open keep-alive connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServiceError as error:
                    # malformed request: answer once, then drop the link
                    self._write_response(
                        writer, error.status, {"error": str(error)}, True
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                close_after = (
                    request.headers.get("connection", "").lower() == "close"
                )
                # HEAD answers exactly like GET minus the body (RFC 9110):
                # route as GET, remember to suppress the payload bytes
                head_request = request.method == "HEAD"
                if head_request:
                    request.method = "GET"
                status, payload, extra_headers = await self._dispatch(request)
                self._write_response(
                    writer,
                    status,
                    payload,
                    close_after,
                    extra_headers,
                    head=head_request,
                )
                await writer.drain()
                if close_after:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # server closing: drop the connection quietly
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, object, Optional[Dict[str, str]]]:
        """Route one request with error mapping, tracing and metrics."""
        import time as _time

        extra_headers: Optional[Dict[str, str]] = None
        instrumented = self._instrumented
        previous_trace = None
        if instrumented:
            previous_trace = set_trace_context(
                parse_trace_header(request.headers.get("x-repro-trace"))
            )
            start = _time.perf_counter()
        # a span that nothing would receive still costs ~10µs of ids and
        # clock reads — skip it unless a sink or debug logger is live
        trace_request = instrumented and tracing_active()
        try:
            with span(
                "http.request",
                method=request.method,
                path=request.path,
            ) if trace_request else _null_context() as handle:
                try:
                    outcome = await self._route(request)
                    if len(outcome) == 3:
                        status, payload, extra_headers = outcome
                    else:
                        status, payload = outcome
                except ServiceError as error:
                    status, payload = error.status, {"error": str(error)}
                    extra_headers = getattr(error, "headers", None)
                except ModelError as error:
                    status, payload = 400, {"error": str(error)}
                except asyncio.TimeoutError:
                    status, payload = 503, {
                        "error": "timed out waiting for the job; poll "
                        "GET /jobs/<id> instead"
                    }
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    status, payload = 500, {"error": "internal server error"}
                if handle is not None:
                    handle.fields["status"] = status
        finally:
            if instrumented:
                set_trace_context(previous_trace)
        if instrumented:
            elapsed = _time.perf_counter() - start
            route = self._route_label(request.path)
            key = (request.method, route, str(status))
            children = self._request_children.get(key)
            if children is None:
                labels = dict(zip(("method", "route", "status"), key))
                children = (
                    self._request_seconds.labels(**labels),
                    self._requests_total.labels(**labels),
                )
                self._request_children[key] = children
            children[0].observe(elapsed)
            children[1].inc()
            if status >= 500 and _log.enabled("info"):
                _log.info(
                    "http.error",
                    method=request.method,
                    path=request.path,
                    status=status,
                )
        return status, payload, extra_headers

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            request_line = await reader.readline()
        except ValueError:
            # the stream limit tripped mid-line: a request line longer
            # than any legitimate client sends
            raise ServiceError("request line too long", status=400)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError("malformed request line", status=400)
        method, target, version = parts
        if not version.startswith("HTTP/"):
            raise ServiceError("malformed request line", status=400)
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await reader.readline()
            except ValueError:
                raise ServiceError("header line too long", status=400)
            if line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = line.decode("latin-1").partition(":")
            if not separator or not name.strip():
                raise ServiceError("malformed header line", status=400)
            headers[name.strip().lower()] = value.strip()
        else:
            raise ServiceError("too many headers", status=400)
        if "transfer-encoding" in headers:
            # this server speaks Content-Length only; mis-framed chunked
            # bodies would desynchronise the keep-alive stream
            raise ServiceError(
                "transfer-encoding is not supported; send Content-Length",
                status=400,
            )
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServiceError("bad Content-Length", status=400)
        if length < 0:
            raise ServiceError("bad Content-Length", status=400)
        if length > _MAX_BODY:
            raise ServiceError("request body too large", status=413)
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        query = target.partition("?")[2]
        return _Request(
            method=method, path=path, headers=headers, body=body, query=query
        )

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        close_after: bool,
        extra_headers: Optional[Dict[str, str]] = None,
        head: bool = False,
    ) -> None:
        if isinstance(payload, RawResponse):
            body = payload.body
            content_type = payload.content_type
        else:
            try:
                body = json.dumps(payload, allow_nan=False).encode("utf-8")
            except (TypeError, ValueError):
                # a non-JSON-safe value leaked into a payload (e.g. a NaN in
                # free-form progress data): canonicalize and retry
                body = json.dumps(canonical_cell(payload)).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        header = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close_after else 'keep-alive'}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            header += f"{name}: {value}\r\n"
        header += "\r\n"
        # HEAD: full headers (including Content-Length), no body bytes
        writer.write(header.encode("latin-1") + (b"" if head else body))

    # -- routing ---------------------------------------------------------

    async def _route(self, request: _Request) -> Tuple[int, object]:
        raise NotImplementedError  # pragma: no cover - subclass hook


class ServiceServer(BaseHttpServer):
    """The asyncio HTTP front-end bound to one :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 8752,
        wait_timeout: float = 600.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            registry=registry if registry is not None else scheduler.registry,
        )
        self.scheduler = scheduler
        self.wait_timeout = wait_timeout

    async def _route(self, request: _Request) -> Tuple[int, object]:
        method, path = request.method, request.path
        segments = [part for part in path.split("/") if part]
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            scheduler = self.scheduler
            return 200, {
                "status": "ok",
                "name": scheduler.name,
                "queue_depth": scheduler.queue_depth,
                "running": scheduler.running,
                "store": scheduler.cache.stats()["store_path"],
            }
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            if request.wants_prometheus():
                return 200, RawResponse(
                    self.scheduler.prometheus_text().encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            return 200, self.scheduler.metrics_snapshot()
        if path == "/experiments":
            if method != "GET":
                return _method_not_allowed(path, "GET")
            return 200, _experiments_payload()
        if path == "/run":
            if method != "POST":
                return _method_not_allowed(path, "POST")
            return await self._handle_run(request)
        if segments and segments[0] == "jobs":
            return await self._handle_jobs(request, segments)
        return 404, {"error": f"no route for {method} {path}"}

    async def _handle_run(self, request: _Request) -> Tuple[int, object]:
        body = request.json()
        spec = JobSpec.from_request(body)
        priority = body.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ServiceError(
                f"priority must be an integer, got {priority!r}", status=400
            )
        wait = body.get("wait", False)
        if not isinstance(wait, bool):
            raise ServiceError(
                f"wait must be a boolean, got {wait!r}", status=400
            )
        job = self.scheduler.submit(spec, priority=priority)
        if wait and not job.done:
            try:
                await job.wait(timeout=self.wait_timeout)
            except asyncio.TimeoutError:
                # hand the caller the job handle (202) instead of a
                # dead-end error: the job keeps running and can be polled
                pass
        status = 200 if job.done else 202
        return status, job.to_payload(include_record=job.state == DONE)

    async def _handle_jobs(
        self, request: _Request, segments: list
    ) -> Tuple[int, object]:
        if len(segments) == 1:
            if request.method != "GET":
                return _method_not_allowed("/jobs", "GET")
            return 200, {"jobs": self.scheduler.jobs_snapshot()}
        job = self.scheduler.get(segments[1])
        if job is None:
            return 404, {"error": f"no such job: {segments[1]}"}
        if len(segments) == 2:
            if request.method == "GET":
                return 200, job.to_payload(include_record=job.state == DONE)
            if request.method == "DELETE":
                cancelled = self.scheduler.cancel(job.id)
                return 200, {
                    "id": job.id,
                    "cancelled": cancelled,
                    "state": job.state,
                }
            return _method_not_allowed("/jobs/<id>", "GET", "DELETE")
        if len(segments) == 3 and segments[2] == "cancel":
            if request.method != "POST":
                return _method_not_allowed("/jobs/<id>/cancel", "POST")
            cancelled = self.scheduler.cancel(job.id)
            return 200, {
                "id": job.id,
                "cancelled": cancelled,
                "state": job.state,
            }
        return 404, {"error": f"no route for {request.method} {request.path}"}


class _HostedLoop:
    """An asyncio front-end hosted on a background daemon thread.

    The hosting :class:`ThreadedServer` and
    :class:`~repro.service.router.ThreadedRouter` share.  :meth:`_host`
    runs ``start`` — a coroutine function that brings the front-end up and
    returns ``(url, close)`` — on a fresh event loop in a daemon thread,
    waits until the URL is bound, and re-raises a startup failure on the
    calling thread.  :meth:`stop` has the loop await ``close()`` and joins
    the thread.
    """

    #: seconds :meth:`stop` waits for the hosting thread to finish
    _join_timeout = 60.0

    def _host(self, start, what: str, thread_name: str) -> None:
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self.url: Optional[str] = None

        async def _run() -> None:
            url, close = await start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.url = url
            self._ready.set()
            await self._stop.wait()
            await close()

        def _main() -> None:
            try:
                asyncio.run(_run())
            except BaseException as error:  # surface startup failures
                self._startup_error = error
                self._ready.set()

        self._thread = threading.Thread(
            target=_main, name=thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._startup_error is not None:
            raise ServiceError(
                f"{what} thread failed to start: {self._startup_error}",
                status=500,
            )
        if self.url is None:
            raise ServiceError(f"{what} thread did not come up", status=500)

    def stop(self) -> None:
        """Shut the front-end down and join the hosting thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: a previous stop() finished
        self._thread.join(timeout=self._join_timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ThreadedServer(_HostedLoop):
    """A full service (scheduler + HTTP) hosted on a background thread.

    The in-process harness tests and the load generator use: the calling
    thread gets a bound URL back, the event loop runs elsewhere, and
    :meth:`stop` drains the scheduler cleanly.  For production-style
    hosting use the CLI's ``serve`` subcommand instead.
    """

    _join_timeout = 120.0

    def __init__(
        self,
        store_path=None,
        procs: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_capacity: int = 1024,
        queue_limit: int = 64,
        name: Optional[str] = None,
        instrument: bool = True,
    ) -> None:
        self.scheduler: Optional[JobScheduler] = None
        self.server: Optional[ServiceServer] = None

        async def _start():
            from ..store import ResultStore

            store = ResultStore(store_path) if store_path is not None else None
            # a fresh registry per hosted server keeps concurrently
            # hosted instances (tests, the bench) from mixing counters
            registry = MetricsRegistry() if instrument else NULL_REGISTRY
            cache = TwoTierCache(store, capacity=cache_capacity, registry=registry)
            scheduler = JobScheduler(
                cache,
                procs=procs,
                queue_limit=queue_limit,
                name=name,
                registry=registry,
            )
            await scheduler.start()
            server = ServiceServer(scheduler, host=host, port=port, registry=registry)
            await server.start()
            self.scheduler = scheduler
            self.server = server

            async def _close() -> None:
                await server.close()
                await scheduler.close()

            return server.url, _close

        self._host(_start, "service", "repro-service")
