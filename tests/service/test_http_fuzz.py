"""Hypothesis fuzz net over the hand-rolled HTTP/1.1 parser.

The service and the router both speak through
:class:`~repro.service.http.BaseHttpServer`'s parser, so this is the
contract that keeps a hostile or broken client from wedging a shard:

* any malformed request — garbage request line, bad header framing,
  invalid/negative ``Content-Length``, chunked transfer encoding — gets
  a clean ``400`` (``413`` for oversized) JSON error, never a hang or a
  traceback-into-the-socket;
* a client that disappears mid-body (truncated ``Content-Length``) is
  dropped silently;
* none of the above leaks a connection-handler task: after every fuzz
  barrage the server's connection-handler tasks drain to zero and the server still
  answers a well-formed request.

Raw sockets, not a client library — the point is sending exactly the
broken bytes a real parser bug would mishandle.
"""

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ThreadedServer

from .conftest import wait_until

_FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(store_path=None, procs=0) as hosted:
        yield hosted


def _address(server):
    _, _, hostport = server.url.partition("//")
    host, _, port = hostport.partition(":")
    return host, int(port)


def _exchange(server, payload: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes, read until the server closes; returns the response.

    A server that closes while the client still has unread bytes in
    flight can surface as a TCP reset on the client side (discarding the
    queued response); that still counts as "rejected", so resets return
    whatever arrived instead of failing the exchange.
    """
    chunks = []
    try:
        with socket.create_connection(
            _address(server), timeout=timeout
        ) as sock:
            sock.sendall(payload)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except (socket.timeout, ConnectionResetError, BrokenPipeError):
        pass
    return b"".join(chunks)


def _status_of(response: bytes) -> int:
    assert response.startswith(b"HTTP/1.1 "), response[:80]
    return int(response.split(None, 2)[1])


def _assert_clean_error(response: bytes, statuses=(400,)):
    status = _status_of(response)
    assert status in statuses, response[:200]
    body = response.split(b"\r\n\r\n", 1)[1]
    assert "error" in json.loads(body)  # JSON error, not a traceback


def _assert_drained(server):
    wait_until(
        lambda: not server.server._connections,
        timeout=30.0,
        message="connection-handler task leaked",
    )


class TestRequestLineFuzz:
    @_FUZZ
    @given(
        line=st.text(
            alphabet=st.characters(
                codec="latin-1", exclude_characters="\r\n"
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_garbage_request_line_gets_400_family(self, server, line):
        # Connection: close keeps the exchange one-shot even when the
        # fuzz line accidentally parses as a routable request
        raw = (line + "\r\nConnection: close\r\n\r\n").encode("latin-1")
        response = _exchange(server, raw)
        if not response:
            return  # empty first line: server treats it as client-gone
        # a fuzz line may accidentally parse as METHOD PATH VERSION; any
        # answer is fine as long as it is a clean HTTP error, not a hang
        _assert_clean_error(response, statuses=(400, 404, 405))
        _assert_drained(server)

    def test_oversized_request_line(self, server):
        # just over the 64 KiB stream limit: small enough to fit in the
        # socket buffers, so the 400 usually survives the early close (an
        # empty response means the close raced the send — also a clean
        # rejection, covered by the drain + still-alive checks)
        response = _exchange(
            server, b"GET /" + b"a" * 80_000 + b" HTTP/1.1\r\n\r\n"
        )
        if response:
            _assert_clean_error(response)
            assert b"request line too long" in response
        _assert_drained(server)
        assert _status_of(
            _exchange(
                server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
        ) == 200

    def test_wrong_part_count(self, server):
        for raw in (b"GET\r\n\r\n", b"GET /x HTTP/1.1 extra\r\n\r\n"):
            _assert_clean_error(_exchange(server, raw))
        _assert_drained(server)

    def test_bad_version_token(self, server):
        response = _exchange(server, b"GET /healthz JUNK/1.1\r\n\r\n")
        _assert_clean_error(response)
        _assert_drained(server)

    def test_empty_connection_closes_quietly(self, server):
        with socket.create_connection(_address(server), timeout=5.0):
            pass
        _assert_drained(server)


class TestHeaderFuzz:
    @_FUZZ
    @given(
        name=st.text(
            alphabet=st.characters(
                codec="latin-1", exclude_characters="\r\n:"
            ),
            min_size=0,
            max_size=60,
        ),
        value=st.text(
            alphabet=st.characters(
                codec="latin-1", exclude_characters="\r\n"
            ),
            max_size=60,
        ),
    )
    def test_arbitrary_headers_never_crash_the_parser(
        self, server, name, value
    ):
        raw = (
            f"GET /healthz HTTP/1.1\r\n{name}: {value}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        response = _exchange(server, raw)
        assert _status_of(response) in (200, 400)
        _assert_drained(server)

    def test_header_without_colon_gets_400(self, server):
        response = _exchange(
            server, b"GET /healthz HTTP/1.1\r\nnot a header line\r\n\r\n"
        )
        _assert_clean_error(response)
        assert b"malformed header line" in response

    def test_too_many_headers_gets_400(self, server):
        headers = b"".join(b"X-Fuzz-%d: y\r\n" % i for i in range(150))
        response = _exchange(
            server, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        _assert_clean_error(response)
        assert b"too many headers" in response
        _assert_drained(server)

    def test_oversized_header_line_gets_400(self, server):
        raw = (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"v" * 80_000 + b"\r\n\r\n"
        )
        response = _exchange(server, raw)
        if response:
            _assert_clean_error(response)
            assert b"header line too long" in response
        _assert_drained(server)
        assert _status_of(
            _exchange(
                server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
        ) == 200


class TestBodyFraming:
    @_FUZZ
    @given(
        length=st.one_of(
            st.text(
                alphabet=st.characters(
                    codec="latin-1", exclude_characters="\r\n"
                ),
                min_size=1,
                max_size=20,
            ).filter(lambda s: not s.strip().lstrip("+-").isdigit()),
            st.integers(max_value=-1).map(str),
        )
    )
    def test_invalid_or_negative_content_length_gets_400(
        self, server, length
    ):
        raw = (
            f"POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        response = _exchange(server, raw)
        _assert_clean_error(response)
        assert b"bad Content-Length" in response
        _assert_drained(server)

    def test_chunked_transfer_encoding_gets_400(self, server):
        raw = (
            b"POST /run HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n"
        )
        response = _exchange(server, raw)
        _assert_clean_error(response)
        assert b"transfer-encoding is not supported" in response
        _assert_drained(server)

    def test_declared_body_too_large_gets_413(self, server):
        raw = (
            b"POST /run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        )
        response = _exchange(server, raw)
        _assert_clean_error(response, statuses=(413,))
        _assert_drained(server)

    @_FUZZ
    @given(sent=st.integers(min_value=0, max_value=9))
    def test_truncated_body_drops_quietly_without_task_leak(
        self, server, sent
    ):
        # declare 10 bytes, send fewer, hang up: the server must drop the
        # connection without answering and without leaking its handler
        raw = (
            b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\n" + b"x" * sent
        )
        with socket.create_connection(_address(server), timeout=10.0) as sock:
            sock.sendall(raw)
        _assert_drained(server)

    @_FUZZ
    @given(body=st.binary(max_size=200))
    def test_non_json_bodies_get_400(self, server, body):
        try:
            parsed = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            parsed = None
        if isinstance(parsed, (dict,)):
            return  # accidentally valid JSON object; not this test's target
        raw = (
            b"POST /run HTTP/1.1\r\nConnection: close\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        response = _exchange(server, raw)
        _assert_clean_error(response)
        _assert_drained(server)


class TestStillAliveAfterFuzz:
    def test_server_answers_normally_after_the_barrage(self, server):
        # runs last in file order for a final end-to-end sanity check
        response = _exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert _status_of(response) == 200
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert body["status"] == "ok"
        _assert_drained(server)
