"""Minimal async HTTP/1.1 client for router-to-shard calls.

The router lives on an event loop, so the blocking
:class:`~repro.service.client.ServiceClient` (stdlib ``http.client``)
is the wrong shape — one stalled shard would freeze every in-flight
request.  This is its asyncio twin: JSON-only, ``Content-Length``-only,
keep-alive, built directly on :func:`asyncio.open_connection`.  One
:class:`AsyncHttpClient` per shard; each holds a small pool of idle
connections so concurrent forwards to the same shard don't serialize.

Transport failures raise :class:`ShardUnreachable` — the router's signal
to mark the shard down and re-route along the ring's preference list.
HTTP-level errors do *not* raise: the router relays a shard's 4xx/5xx
(and its body) to the caller verbatim, so did-you-mean hints and
queue-full 429s survive the extra hop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple, Union

from ..obs import TRACE_HEADER, current_trace, format_trace_header
from .errors import ServiceError

__all__ = ["AsyncHttpClient", "ShardUnreachable"]

_MAX_IDLE = 8  # pooled keep-alive connections per shard


class ShardUnreachable(ServiceError):
    """Transport-level failure talking to a shard (connect/read/timeout)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=503)


class AsyncHttpClient:
    """An asyncio JSON client with a keep-alive connection pool."""

    def __init__(
        self, host: str, port: int, timeout: float = 630.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self, method: str, path: str, payload: Optional[object] = None,
        parse_json: bool = True,
    ) -> Tuple[int, Union[dict, str], Dict[str, str]]:
        """One round trip; returns ``(status, parsed_body, headers)``.

        Raises :class:`ShardUnreachable` on transport failure.  A pooled
        connection can be stale (shard restarted while it idled), so a
        failure on a *reused* connection retries once on a fresh one.
        The caller's ambient trace context (if any) rides along as the
        ``X-Repro-Trace`` header, so shard-side spans parent onto the
        router's relay span.  With ``parse_json=False`` the body comes
        back as decoded text (the Prometheus exposition path).
        """
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        trace = current_trace()
        trace_line = (
            f"{TRACE_HEADER}: {format_trace_header(trace)}\r\n"
            if trace is not None
            else ""
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Accept: application/json\r\n"
            f"{trace_line}"
            f"\r\n"
        ).encode("latin-1") + body
        last_error: Optional[Exception] = None
        for _ in range(2):
            reused = bool(self._idle)
            if reused:
                reader, writer = self._idle.pop()
            else:
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        timeout=min(self.timeout, 5.0),
                    )
                except (OSError, asyncio.TimeoutError) as error:
                    raise ShardUnreachable(
                        f"cannot connect to {self.host}:{self.port}: "
                        f"{error or type(error).__name__}"
                    )
            try:
                writer.write(request)
                await writer.drain()
                status, parsed, headers = await asyncio.wait_for(
                    self._read_response(reader, parse_json),
                    timeout=self.timeout,
                )
            except (
                OSError,
                ConnectionError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as error:
                writer.close()
                last_error = error
                if reused:
                    continue  # stale keep-alive; retry on a fresh socket
                raise ShardUnreachable(
                    f"request to {self.host}:{self.port} failed: "
                    f"{error or type(error).__name__}"
                )
            if headers.get("connection", "").lower() == "close":
                writer.close()
            elif len(self._idle) < _MAX_IDLE:
                self._idle.append((reader, writer))
            else:
                writer.close()
            return status, parsed, headers
        raise ShardUnreachable(
            f"request to {self.host}:{self.port} failed: "
            f"{last_error or 'unknown error'}"
        )

    async def _read_response(
        self, reader: asyncio.StreamReader, parse_json: bool = True
    ) -> Tuple[int, Union[dict, str], Dict[str, str]]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("shard closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        if not parse_json:
            return status, raw.decode("utf-8", "replace"), headers
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            parsed = {"error": raw.decode("utf-8", "replace")[:200]}
        if not isinstance(parsed, dict):
            parsed = {"value": parsed}
        return status, parsed, headers

    async def close(self) -> None:
        """Close every pooled connection."""
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
