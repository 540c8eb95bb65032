"""Blocking HTTP client for the simulation service.

A thin, dependency-free (stdlib ``http.client``) wrapper used by the test
suite, the load harness and the sweep layer's ``--via-service`` path.  One
:class:`ServiceClient` holds one keep-alive connection and is therefore
**not thread-safe** — concurrent load generators give each worker thread
its own client (connections are cheap; the server multiplexes).

Error responses (4xx/5xx) raise :class:`~repro.service.errors.ServiceError`
carrying the HTTP status and the server's message — including the
did-you-mean hints for unknown experiment ids.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import (
    TRACE_HEADER,
    current_trace,
    format_trace_header,
    new_trace_context,
    parse_prometheus_text,
)
from .errors import ServiceError

__all__ = ["ServiceClient"]

_TERMINAL = ("done", "failed", "cancelled")


class ServiceClient:
    """A blocking JSON client bound to one service base URL."""

    def __init__(self, base_url: str, timeout: float = 630.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ServiceError(
                f"only http:// service URLs are supported, got {base_url!r}"
            )
        if not parts.hostname:
            raise ServiceError(f"service URL has no host: {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 8752
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None
        #: trace id of the most recent request (tests assert propagation)
        self.last_trace_id: Optional[str] = None

    # -- transport -------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        """Drop the keep-alive connection (reopened on the next request)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        parse_json: bool = True,
    ) -> Tuple[int, object]:
        body = None
        headers = {"Accept": "application/json"}
        # every request carries a trace: the ambient context when the
        # caller is already inside a span, a fresh root otherwise — so a
        # bare client call is itself traceable end to end
        trace = current_trace() or new_trace_context()
        headers[TRACE_HEADER] = format_trace_header(trace)
        self.last_trace_id = trace.trace_id
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Optional[Exception] = None
        for attempt in range(2):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as error:
                # a stale keep-alive connection (server restarted, idle
                # timeout) fails exactly once; reconnect and retry once
                self.close()
                last_error = error
        else:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: "
                f"{last_error}",
                status=503,
            )
        if not parse_json:
            if response.status >= 400:
                raise ServiceError(
                    raw.decode("utf-8", "replace")[:200],
                    status=response.status,
                )
            return response.status, raw.decode("utf-8", "replace")
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise ServiceError(
                f"service returned non-JSON ({response.status}): "
                f"{raw[:200]!r}",
                status=502,
            )
        if response.status >= 400:
            message = (
                parsed.get("error", raw.decode("utf-8", "replace"))
                if isinstance(parsed, dict)
                else str(parsed)
            )
            raise ServiceError(message, status=response.status)
        return response.status, parsed

    # -- API -------------------------------------------------------------

    def healthz(self) -> dict:
        """The server's liveness payload."""
        return self._request("GET", "/healthz")[1]

    def metrics(self, format: str = "json", parse: bool = True) -> object:
        """The server's metrics, in either exposition format.

        ``format="json"`` (default) returns the legacy counter snapshot
        dict.  ``format="prometheus"`` fetches the text exposition and —
        with ``parse=True`` — runs it through the strict parser,
        returning the ``{family: {type, help, samples, ...}}`` mapping;
        ``parse=False`` returns the raw exposition text.
        """
        if format == "json":
            return self._request("GET", "/metrics")[1]
        if format != "prometheus":
            raise ServiceError(
                f"unknown metrics format {format!r} (use 'json' or "
                f"'prometheus')"
            )
        _, text = self._request(
            "GET", "/metrics?format=prometheus", parse_json=False
        )
        return parse_prometheus_text(text) if parse else text

    def experiments(self) -> dict:
        """The experiment catalog with each runner's knobs."""
        return self._request("GET", "/experiments")[1]

    def submit(
        self,
        experiment_id: str,
        seed: int = 0,
        fast: bool = True,
        params: Optional[Mapping[str, object]] = None,
        n_jobs: int = 1,
        priority: int = 0,
        wait: bool = False,
    ) -> dict:
        """``POST /run``; returns the job payload (result record when done).

        With ``wait=True`` the server blocks the request until the job
        reaches a terminal state (coalesced requests all unblock on the
        shared computation).  Cache hits return immediately either way.
        """
        payload: Dict[str, object] = {
            "experiment_id": experiment_id,
            "seed": seed,
            "fast": fast,
            "n_jobs": n_jobs,
            "priority": priority,
            "wait": wait,
        }
        if params:
            payload["params"] = dict(params)
        return self._request("POST", "/run", payload)[1]

    def run(
        self,
        experiment_id: str,
        seed: int = 0,
        fast: bool = True,
        params: Optional[Mapping[str, object]] = None,
        n_jobs: int = 1,
        priority: int = 0,
        timeout: float = 600.0,
    ) -> dict:
        """Submit and block until terminal; raise unless the job completed.

        Returns the terminal job payload, whose ``record`` field is the
        store record (identity + ``result``) of the computed point.
        ``timeout`` bounds the *whole* call — the blocking submit plus any
        follow-up polling — with a 504 :class:`ServiceError` on expiry.
        """
        start = time.monotonic()
        job = self.submit(
            experiment_id,
            seed=seed,
            fast=fast,
            params=params,
            n_jobs=n_jobs,
            priority=priority,
            wait=True,
        )
        if job["state"] not in _TERMINAL:
            remaining = timeout - (time.monotonic() - start)
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for job "
                    f"{job['id']} ({experiment_id}, state {job['state']})",
                    status=504,
                )
            job = self.wait(job["id"], timeout=remaining)
        if job["state"] != "done":
            raise ServiceError(
                f"job {job['id']} ({experiment_id}) ended {job['state']}: "
                f"{job.get('error') or 'no error detail'}",
                status=500,
            )
        return job

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: status, progress, record when done."""
        return self._request("GET", f"/jobs/{job_id}")[1]

    def jobs(self) -> dict:
        """``GET /jobs``: recent job summaries, newest first."""
        return self._request("GET", "/jobs")[1]

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.05
    ) -> dict:
        """Poll ``GET /jobs/<id>`` until the job reaches a terminal state.

        Raises a 504 :class:`ServiceError` once ``timeout`` seconds have
        elapsed without the job going terminal, and a 410 if the accepted
        job id stops resolving server-side (a shard restarted or compacted
        its history away) — waiting longer can never succeed then, so the
        condition is surfaced immediately rather than polled against.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                job = self.job(job_id)
            except ServiceError as error:
                if error.status == 404:
                    raise ServiceError(
                        f"job {job_id} was accepted but no longer exists "
                        "server-side (shard restart or history "
                        "compaction); resubmit the request",
                        status=410,
                    ) from error
                raise
            if job["state"] in _TERMINAL:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for job {job_id} "
                    f"(state {job['state']})",
                    status=504,
                )
            time.sleep(min(poll, max(0.0, deadline - time.monotonic())))

    def cancel(self, job_id: str) -> dict:
        """``POST /jobs/<id>/cancel``; ``cancelled`` is False for running jobs."""
        return self._request("POST", f"/jobs/{job_id}/cancel")[1]
