"""Asyncio HTTP/1.1 layer and server lifecycle shared by every tier.

Stdlib-only: a small hand-rolled HTTP layer over ``asyncio`` streams
(request line + headers + ``Content-Length`` body; keep-alive until
the client closes or says ``Connection: close``), dispatching into
``app.handle`` — the synthesis service
(:class:`repro.service.app.SynthesisService`) and the cluster front
(:class:`repro.cluster.front.FrontTier`) are both such apps.  The
pieces:

* :class:`HttpServer` — the async core (start / shutdown): it awaits
  ``app.start()`` before the socket opens and ``app.drain()`` after it
  closes;
* :func:`run_until_signal` — the blocking lifecycle behind
  ``repro serve``, ``repro cache-server`` and ``repro cluster``: open
  the server, run until SIGTERM/SIGINT, then drain and report;
* :class:`BackgroundServer` — a daemon-thread harness running any
  such server on its own event loop (context manager; ``port=0``
  picks a free port, readable as ``.port`` once started).
  :class:`ThreadedServer` is the service's flavour, used by the test
  suite and the benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.prometheus import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.service.app import HttpApp, SynthesisService
from repro.service.jobs import ServiceConfig

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader, max_body: int
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Parse one request; None on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _HttpError(400, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            return None
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length > max_body:
        raise _HttpError(413, f"body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length > 0 else b""
    return method, target, headers, body


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload: Any,
                          extra_headers: Dict[str, str],
                          keep_alive: bool) -> None:
    if isinstance(payload, str):
        # Pre-rendered text body (Prometheus exposition).
        body = payload.encode("utf-8")
        content_type = PROM_CONTENT_TYPE
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}"
                 for name, value in extra_headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                 + body)
    await writer.drain()


async def _handle_connection(app: HttpApp,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            try:
                request = await _read_request(
                    reader, app.config.max_body_bytes)
            except _HttpError as exc:
                await _write_response(
                    writer, exc.status,
                    {"schema": "repro-service-error/1",
                     "error": str(exc)}, {}, keep_alive=False)
                break
            if request is None:
                break
            method, target, headers, body_bytes = request
            keep_alive = headers.get(
                "connection", "keep-alive").lower() != "close"
            parts = urlsplit(target)
            path, query = parts.path, parts.query
            body: Optional[Dict[str, Any]] = None
            if body_bytes:
                try:
                    parsed = json.loads(body_bytes)
                    body = parsed if isinstance(parsed, dict) else None
                except json.JSONDecodeError:
                    body = None
            try:
                # Looked up on the instance, so a patched class method
                # (benchmark instrumentation) runs.
                status, payload, extra = await app.handle(
                    method, path, body, headers=headers, query=query)
            except Exception as exc:  # keep the server alive
                if app.crash_counter:
                    app.metrics.inc(app.crash_counter)
                status, payload, extra = 500, {
                    "schema": "repro-service-error/1",
                    "error": f"{type(exc).__name__}: {exc}"}, {}
            await _write_response(writer, status, payload, extra,
                                  keep_alive)
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError,
            asyncio.IncompleteReadError):
        pass
    except asyncio.CancelledError:
        # Loop shutdown while parked on a keep-alive read.  Swallowing
        # the cancellation lets the task finish cleanly, so asyncio's
        # connection_made callback has no exception to log.
        pass
    finally:
        with contextlib.suppress(Exception, asyncio.CancelledError):
            writer.close()
            await writer.wait_closed()


# ---------------------------------------------------------------------
class HttpServer:
    """Async core: an HTTP app plus a listening socket."""

    def __init__(self, app: HttpApp) -> None:
        self.app = app
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> "HttpServer":
        # The app gets ready *before* the socket opens: the service
        # warms its pool while this process is still quiet (all forks
        # happen with no threads mid-lock), and the front runs its
        # first shard probe so the very first /healthz is real.
        await self.app.start()
        self._server = await asyncio.start_server(
            lambda r, w: _handle_connection(self.app, r, w),
            self.app.config.host, self.app.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self) -> None:
        """Graceful drain: close the socket, finish in-flight work."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.app.drain()


def run_until_signal(open_server: Callable[[], Awaitable[Any]],
                     banner: Callable[[Any], str],
                     report: Callable[[Any], str],
                     draining_line: Optional[str] = None) -> None:
    """Open a server, serve until SIGTERM/SIGINT, then shut it down.

    ``banner`` and ``report`` render the listening and drained lines
    from the started server; ``draining_line`` (if any) is printed
    between the signal and the shutdown.
    """

    async def _main() -> None:
        server = await open_server()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signals
        print(banner(server), flush=True)
        await stop.wait()
        if draining_line:
            print(draining_line, flush=True)
        await server.shutdown()
        print(report(server), flush=True)

    asyncio.run(_main())


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``; 0 on clean drain."""

    def report(server: HttpServer) -> str:
        counters = server.app.metrics.snapshot()["counters"]
        return (f"drained cleanly: accepted={counters['accepted']} "
                f"coalesced={counters['coalesced']} "
                f"shed={counters['shed']} "
                f"completed={counters['completed']}")

    run_until_signal(
        lambda: HttpServer(SynthesisService(config)).start(),
        lambda server: (
            f"repro service listening on {config.host}:{server.port} "
            f"(workers={config.workers}, mode={config.pool_mode}, "
            f"max_queue={config.max_queue}, "
            f"cache={config.cache_path or 'memory'})"),
        report, "draining: finishing in-flight jobs ...")
    return 0


# ---------------------------------------------------------------------
class BackgroundServer:
    """Run a server in a daemon thread (tests and benchmarks).

    ``make_server`` builds the server inside the thread; it must have
    ``start()`` (returning itself), ``shutdown()`` and ``.port``.
    """

    def __init__(self, make_server: Callable[[], Any],
                 label: str) -> None:
        self._make_server = make_server
        self._label = label
        self.server: Any = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name="repro-" + self._label.replace(" ", "-"))
        self._thread.start()
        if not self._started.wait(timeout=60.0):
            raise ReproError(f"{self._label} thread failed to start "
                             f"in time")
        if self._error is not None:
            raise ReproError(
                f"{self._label} failed to start: {self._error}") \
                from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures
            self._error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = await self._make_server().start()
        self._started.set()
        await self._stop.wait()
        await self.server.shutdown()

    def stop(self, timeout_s: float = 60.0) -> None:
        """Request a graceful drain and join the thread."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ThreadedServer(BackgroundServer):
    """Run a service in a daemon thread (tests and benchmarks)."""

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__(
            lambda: HttpServer(SynthesisService(config)), "service")
        self.config = config

    @property
    def service(self) -> SynthesisService:
        assert self.server is not None
        return self.server.app
