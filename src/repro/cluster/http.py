"""Minimal async JSON-over-HTTP client for shard-to-shard hops.

The front tier proxies requests from inside an event loop, so it
cannot use the blocking :class:`repro.service.ServiceClient`.  This is
the asyncio mirror of its wire behavior: one connection per exchange
(``Connection: close``), JSON bodies, decoded JSON responses, and the
``Retry-After`` header surfaced so failover logic can relay it.
Connection failures raise plain ``OSError``/``asyncio.TimeoutError``
for the caller to classify — the front tier turns them into
mark-down-and-failover, not user-facing errors.  A truncated body or a
malformed status line is a connection failure too (``OSError``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

#: (status, decoded payload, response headers lowercase-keyed)
JsonResponse = Tuple[int, Dict[str, Any], Dict[str, str]]


async def _read_response(reader: asyncio.StreamReader) -> JsonResponse:
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise OSError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None:
        body = await reader.readexactly(int(length))
    else:
        body = await reader.read()
    try:
        parsed = json.loads(body) if body else {}
        payload = parsed if isinstance(parsed, dict) else {}
    except json.JSONDecodeError:
        payload = {"error": body.decode("utf-8", "replace")}
    return status, payload, headers


async def request_json(host: str, port: int, method: str, path: str,
                       body: Optional[Dict[str, Any]] = None,
                       timeout_s: float = 30.0,
                       headers: Optional[Dict[str, str]] = None
                       ) -> JsonResponse:
    """One HTTP exchange against ``host:port``.

    ``headers`` are extra request headers (the front tier uses this to
    propagate trace context to the owner shard).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s)
    try:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(data)}"]
        lines.extend(f"{name}: {value}"
                     for name, value in (headers or {}).items())
        lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
        return await asyncio.wait_for(_read_response(reader), timeout_s)
    except (asyncio.IncompleteReadError, ValueError) as exc:
        # A shard that dies mid-answer must look like any other dead
        # shard, or the caller's failover (and the prober) never sees it.
        raise OSError(f"bad response from {host}:{port}: {exc}") from exc
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass
