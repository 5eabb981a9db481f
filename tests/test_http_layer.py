"""HTTP framing of the one connection loop both serving apps share.

Drives raw sockets — no client library smoothing anything over —
against a thread-mode :class:`ThreadedServer` and a
:class:`ThreadedFrontTier` (routing over one such service), so every
framing rule is checked once per app.
"""

import json
import socket

import pytest

from repro.cluster import (ClusterConfig, FrontTier, ShardAddress,
                           ThreadedFrontTier)
from repro.service import ServiceConfig, ThreadedServer

MAX_BODY = 4096


def _service_config(**overrides):
    kwargs = dict(port=0, workers=1, pool_mode="thread",
                  cache_sync=False, max_body_bytes=MAX_BODY)
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


@pytest.fixture(scope="module", params=["service", "front"])
def served(request):
    """(harness, app) for one live server of each kind."""
    with ThreadedServer(_service_config()) as shard:
        if request.param == "service":
            yield shard, shard.service
            return
        config = ClusterConfig(
            shards=(ShardAddress("shard-0", "127.0.0.1", shard.port),),
            port=0, max_body_bytes=MAX_BODY)
        with ThreadedFrontTier(config) as front:
            yield front, front.front


def _connect(harness):
    return socket.create_connection(("127.0.0.1", harness.port),
                                    timeout=10.0)


def _read_response(stream):
    """(status, lowercase headers, decoded JSON body) off a stream."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, json.loads(body)


def _exchange(harness, raw):
    """Send raw bytes on a fresh connection; return the answer and
    whether the server closed the connection after it."""
    with _connect(harness) as sock:
        sock.sendall(raw)
        stream = sock.makefile("rb")
        answer = _read_response(stream)
        return answer, stream.read() == b""


def _request(method, path, body=b"", keep_alive=False):
    lines = [f"{method} {path} HTTP/1.1", "Host: test",
             f"Content-Length: {len(body)}"]
    if not keep_alive:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def test_malformed_request_line_is_400_and_closes(served):
    harness, _app = served
    (status, headers, payload), closed = _exchange(
        harness, b"NONSENSE\r\n\r\n")
    assert status == 400
    assert payload["error"] == "malformed request line"
    assert headers["connection"] == "close"
    assert closed


def test_bad_content_length_is_400(served):
    harness, _app = served
    raw = (b"POST /v1/synthesize HTTP/1.1\r\n"
           b"Content-Length: many\r\n\r\n")
    (status, _headers, payload), closed = _exchange(harness, raw)
    assert status == 400
    assert payload["error"] == "bad Content-Length"
    assert closed


def test_oversized_body_is_413(served):
    harness, _app = served
    raw = (b"POST /v1/synthesize HTTP/1.1\r\n"
           + f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode())
    (status, _headers, payload), closed = _exchange(harness, raw)
    assert status == 413
    assert payload["error"] == f"body exceeds {MAX_BODY} bytes"
    assert closed


def test_non_object_json_body_is_400(served):
    harness, _app = served
    (status, headers, payload), _closed = _exchange(
        harness, _request("POST", "/v1/synthesize", b"[1, 2]"))
    assert status == 400
    assert payload["error"] == "request body must be a JSON object"
    assert "x-repro-request-id" in headers


def test_unknown_path_is_404(served):
    harness, _app = served
    (status, _headers, payload), _closed = _exchange(
        harness, _request("GET", "/v2/nothing"))
    assert status == 404
    assert payload["error"] == "no such endpoint '/v2/nothing'"


def test_wrong_method_is_405(served):
    harness, _app = served
    (status, _headers, payload), _closed = _exchange(
        harness, _request("GET", "/v1/synthesize"))
    assert status == 405
    assert payload["error"] == "method not allowed"


def test_keep_alive_serves_two_requests(served):
    harness, _app = served
    with _connect(harness) as sock:
        stream = sock.makefile("rb")
        sock.sendall(_request("GET", "/v1/jobs/nope", keep_alive=True))
        first = _read_response(stream)
        sock.sendall(_request("GET", "/healthz"))
        second = _read_response(stream)
        assert stream.read() == b""
    assert first[0] == 404 and first[1]["connection"] == "keep-alive"
    assert first[2]["error"] == "no such job"
    assert second[0] == 200 and second[1]["connection"] == "close"


def test_handler_crash_is_500(served):
    harness, app = served

    def crash():
        raise RuntimeError("boom")

    before = app.metrics.snapshot()["counters"]
    app.health = crash
    try:
        (status, _headers, payload), _closed = _exchange(
            harness, _request("GET", "/healthz"))
    finally:
        del app.health
    after = app.metrics.snapshot()["counters"]
    assert status == 500
    assert payload["error"] == "RuntimeError: boom"
    if isinstance(app, FrontTier):
        # The front counts crashes among its errors ...
        assert after["errors"] == before["errors"] + 1
        after["errors"] -= 1
    # ... the service's counters describe jobs only.
    assert after == before
