"""Shared result-cache server: one ResultCache, many shards.

A small asyncio TCP server speaking the length-prefixed JSON protocol
of :mod:`repro.cluster.protocol` over one
:class:`repro.explore.cache.ResultCache`.  Every solver shard mounts
it through :class:`repro.cluster.cache_client.ReadThroughCache`, so a
point solved by any shard is a cache hit for the whole fleet — which
is what lets the front tier route by content key without ever
re-solving work another shard already finished.

Operations (all requests carry ``schema_version``; newer-than-known
versions are refused):

``ping``     liveness + entry count
``get``      ``{"key"}`` -> ``{"found", "record"}``
``put``      ``{"key", "record"}`` -> ``{"stored"}`` — the cache's own
             rules apply: only ``ok``/``degraded`` records persist
``compact``  rewrite the JSONL file down to the live index
``stats``    cache stats + server counters

Cache file I/O happens inline on the event loop: appends are one
``O_APPEND`` write of a few KB, which is far below the scheduling
noise of the solves whose results they store.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, Optional

from repro.explore.cache import ResultCache
from repro.io_json import SCHEMA_VERSION
from repro.cluster.protocol import (CACHE_PROTOCOL, ProtocolError,
                                    check_frame_version, read_frame,
                                    write_frame)
from repro.service.server import BackgroundServer, run_until_signal

#: Server-side counters reported by the ``stats`` op.
SERVER_COUNTERS = ("connections", "gets", "hits", "puts", "stored",
                   "compactions", "errors")


class CacheServer:
    """Async core: a ResultCache behind a framed-protocol listener."""

    def __init__(self, cache: ResultCache, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.cache = cache
        self.host = host
        self.config_port = port
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {n: 0 for n in SERVER_COUNTERS}
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    async def start(self) -> "CacheServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.config_port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    self.counters["errors"] += 1
                    await write_frame(writer, self._error(str(exc)))
                    break
                if request is None:
                    break
                await write_frame(writer, self.dispatch(request))
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown while parked on a read from a persistent
            # client connection; finish quietly so asyncio's
            # connection_made callback has nothing to log.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    def _ok(self, **fields: Any) -> Dict[str, Any]:
        out = {"ok": True, "schema": CACHE_PROTOCOL,
               "schema_version": SCHEMA_VERSION}
        out.update(fields)
        return out

    def _error(self, message: str) -> Dict[str, Any]:
        self.counters["errors"] += 1
        return {"ok": False, "schema": CACHE_PROTOCOL,
                "schema_version": SCHEMA_VERSION, "error": message}

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request object -> one response object (pure, testable)."""
        complaint = check_frame_version(request)
        if complaint is not None:
            return self._error(complaint)
        op = request.get("op")
        if op == "ping":
            return self._ok(entries=len(self.cache))
        if op == "get":
            key = request.get("key")
            if not isinstance(key, str) or not key:
                return self._error("get needs a non-empty string 'key'")
            self.counters["gets"] += 1
            record = self.cache.get(key)
            if record is not None:
                self.counters["hits"] += 1
            return self._ok(found=record is not None, record=record)
        if op == "put":
            key = request.get("key")
            record = request.get("record")
            if not isinstance(key, str) or not key:
                return self._error("put needs a non-empty string 'key'")
            if not isinstance(record, dict):
                return self._error("put needs an object 'record'")
            self.counters["puts"] += 1
            stored = self.cache.put(key, record)
            if stored:
                self.counters["stored"] += 1
            return self._ok(stored=stored)
        if op == "compact":
            self.counters["compactions"] += 1
            return self._ok(summary=self.cache.compact())
        if op == "stats":
            return self._ok(stats=self.cache.stats(),
                            server=dict(self.counters))
        return self._error(f"unknown op {op!r}")


# ---------------------------------------------------------------------
def serve_cache(path: Optional[str], host: str = "127.0.0.1",
                port: int = 8769, sync: bool = True) -> int:
    """Blocking entry point for ``repro cache-server``; 0 on drain."""

    async def open_server() -> CacheServer:
        return await CacheServer(ResultCache(path, sync=sync), host,
                                 port).start()

    def report(server: CacheServer) -> str:
        return (f"cache server drained cleanly: "
                f"entries={len(server.cache)} "
                f"gets={server.counters['gets']} "
                f"hits={server.counters['hits']} "
                f"stored={server.counters['stored']}")

    run_until_signal(
        open_server,
        lambda server: (
            f"repro cache server listening on {host}:{server.port} "
            f"(path={path or 'memory'}, entries={len(server.cache)})"),
        report)
    return 0


# ---------------------------------------------------------------------
class ThreadedCacheServer(BackgroundServer):
    """Run a cache server in a daemon thread (tests and benchmarks)."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.cache = cache if cache is not None else ResultCache()
        server = CacheServer(self.cache, host, port)
        super().__init__(lambda: server, "cache server")
        self.server = server

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.port}"
