"""Structured tracing: spans, ring buffer, sampling, JSONL export.

A span is a named, timed region of work carrying ``trace_id`` /
``span_id`` / ``parent_id`` identifiers plus free-form attributes.
Parenting is ambient: :meth:`Tracer.span` reads the current
:class:`SpanContext` from a ``contextvars`` variable, so nested ``with``
blocks (and ``await`` chains inside one asyncio task) form a tree
without explicit plumbing.  Crossing an execution boundary — a fork
worker, an executor thread, or an HTTP hop — is explicit: the sender
serialises the current context (:meth:`Tracer.current_dict` /
:meth:`Tracer.current_headers`) and the receiver re-activates it with
:meth:`Tracer.attach`.

Finished spans land in a bounded in-process ring buffer with a
monotonically increasing per-process sequence number, which gives the
same mark/delta/merge shape as ``PerfRegistry``: a worker calls
:meth:`mark` before the job, :meth:`spans_since` after, ships the delta
in its result record, and the parent :meth:`merge`\\ s it into its own
ring (and exporter).  Sampling is decided once per trace, at root-span
creation, with a deterministic accumulator (rate 0.25 samples exactly
every fourth root) so benchmarks and tests are reproducible without
seeding an RNG.

The tracer is disabled by default and the disabled path is a single
attribute check per ``span()`` call, so instrumentation can stay in hot
paths unconditionally.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.appendlog import ends_mid_line

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "JsonlExporter",
    "TRACER",
    "span",
    "current_context",
]

#: HTTP header names used for cross-hop propagation (lowercase; the
#: stdlib service server lowercases incoming header names).
TRACE_HEADER = "x-repro-trace-id"
PARENT_HEADER = "x-repro-parent-id"
SAMPLED_HEADER = "x-repro-sampled"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanContext:
    """Immutable (trace_id, span_id, sampled) triple.

    ``span_id`` is the id of the *current* span — a child created under
    this context uses it as ``parent_id``.  ``sampled=False`` contexts
    still propagate (so a whole trace is consistently dropped), but
    record nothing.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = bool(sampled)

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_dict(cls, data: Any) -> Optional["SpanContext"]:
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id),
                   bool(data.get("sampled", True)))

    def to_headers(self) -> Dict[str, str]:
        return {
            TRACE_HEADER: self.trace_id,
            PARENT_HEADER: self.span_id,
            SAMPLED_HEADER: "1" if self.sampled else "0",
        }

    @classmethod
    def from_headers(cls, headers: Any) -> Optional["SpanContext"]:
        if not isinstance(headers, dict):
            return None
        trace_id = headers.get(TRACE_HEADER)
        span_id = headers.get(PARENT_HEADER)
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id),
                   headers.get(SAMPLED_HEADER, "1") != "0")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SpanContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, sampled={self.sampled})")


class Span:
    """Live handle for an open span; ``set()`` adds attributes.

    The finished form is a plain dict (see :meth:`to_dict`) — that is
    what the ring buffer, the JSONL export, and worker deltas carry.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "layer",
                 "start_ns", "dur_ns", "attrs", "status", "_t0")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, layer: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start_ns = time.time_ns()
        self.dur_ns = 0
        self.attrs: Dict[str, Any] = {}
        self.status = "ok"
        self._t0 = time.perf_counter_ns()

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, True)

    @property
    def sampled(self) -> bool:
        return True

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def finish(self) -> None:
        self.dur_ns = time.perf_counter_ns() - self._t0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class _NullSpan:
    """No-op handle returned when tracing is off or the trace is
    unsampled; keeps call sites unconditional."""

    __slots__ = ()
    context = None
    sampled = False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

_CURRENT: contextvars.ContextVar[Optional[SpanContext]] = (
    contextvars.ContextVar("repro_obs_span_context", default=None))


class JsonlExporter:
    """Appends one JSON object per finished span to a file.

    Opens lazily (so merely configuring an export path costs nothing
    until the first sampled span) and in append mode, so several
    processes — cluster front, shards — can share one file: each span
    is a single ``write()`` of one line, which is atomic enough under
    ``O_APPEND`` for the line sizes involved.  A crash-torn last line
    found at open time is closed off first (see :mod:`repro.appendlog`).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle: Optional[Any] = None

    def export(self, span_dict: Dict[str, Any]) -> None:
        line = json.dumps(span_dict, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._handle is None:
                if ends_mid_line(self.path):  # start past a torn tail
                    line = "\n" + line
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Tracer:
    """Thread-safe span recorder with a bounded ring buffer."""

    DEFAULT_RING = 8192

    def __init__(self, ring_size: int = DEFAULT_RING) -> None:
        self._lock = threading.Lock()
        self.enabled = False
        self.sample_rate = 1.0
        self._sample_acc = 0.0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring_size)
        self._seq = 0
        self.exporter: Optional[JsonlExporter] = None
        self.dropped = 0

    # -- configuration -------------------------------------------------
    def configure(self, enabled: Optional[bool] = None,
                  sample_rate: Optional[float] = None,
                  ring_size: Optional[int] = None,
                  export_path: Optional[str] = None) -> None:
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if sample_rate is not None:
                self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
                self._sample_acc = 0.0
            if ring_size is not None:
                self._ring = deque(self._ring, maxlen=max(1, ring_size))
            if export_path is not None:
                if self.exporter is not None:
                    self.exporter.close()
                self.exporter = (JsonlExporter(export_path)
                                 if export_path else None)

    def reset(self) -> None:
        """Clear recorded spans and sampling state (tests)."""
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self._sample_acc = 0.0
            self.dropped = 0

    def _sample(self) -> bool:
        # Deterministic accumulator: rate r samples every (1/r)-th
        # root trace, evenly spread, reproducible without an RNG.
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._lock:
            self._sample_acc += rate
            if self._sample_acc >= 1.0:
                self._sample_acc -= 1.0
                return True
            return False

    # -- context -------------------------------------------------------
    def current(self) -> Optional[SpanContext]:
        return _CURRENT.get()

    def current_dict(self) -> Optional[Dict[str, Any]]:
        """Current context as a payload-embeddable dict, or None when
        tracing is off / no sampled trace is active."""
        if not self.enabled:
            return None
        ctx = _CURRENT.get()
        if ctx is None or not ctx.sampled:
            return None
        return ctx.to_dict()

    def current_headers(self) -> Dict[str, str]:
        """Current context as HTTP headers ({} when nothing to send)."""
        if not self.enabled:
            return {}
        ctx = _CURRENT.get()
        if ctx is None or not ctx.sampled:
            return {}
        return ctx.to_headers()

    @contextmanager
    def attach(self, ctx: Any) -> Iterator[Optional[SpanContext]]:
        """Re-activate a propagated context (dict, headers-derived
        SpanContext, or None) for the duration of the block."""
        if isinstance(ctx, dict):
            ctx = SpanContext.from_dict(ctx)
        if ctx is None or not self.enabled:
            yield None
            return
        token = _CURRENT.set(ctx)
        try:
            yield ctx
        finally:
            _CURRENT.reset(token)

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str = "app",
             **attrs: Any) -> Iterator[Any]:
        """Open a span; yields a handle with ``.set(**attrs)``.

        Roots (no ambient context) make the sampling decision; children
        inherit it.  Unsampled paths yield a shared no-op handle.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = _CURRENT.get()
        if parent is not None:
            if not parent.sampled:
                yield _NULL_SPAN
                return
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            if not self._sample():
                # Mark the whole trace unsampled so descendants skip
                # the sampling decision (and any propagation).
                token = _CURRENT.set(SpanContext("-", "-", sampled=False))
                try:
                    yield _NULL_SPAN
                finally:
                    _CURRENT.reset(token)
                return
            trace_id = _new_id()
            parent_id = None
        span = Span(trace_id, _new_id(), parent_id, name, layer)
        if attrs:
            span.attrs.update(attrs)
        token = _CURRENT.set(span.context)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            _CURRENT.reset(token)
            span.finish()
            self._record(span.to_dict())

    def _record(self, span_dict: Dict[str, Any],
                export: bool = True) -> None:
        with self._lock:
            self._seq += 1
            span_dict["seq"] = self._seq
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(span_dict)
            exporter = self.exporter if export else None
        if exporter is not None:
            exported = dict(span_dict)
            exported.pop("seq", None)
            exporter.export(exported)

    # -- mark / delta / merge (mirrors PerfRegistry) -------------------
    def mark(self) -> int:
        """Sequence watermark for a later :meth:`spans_since`."""
        with self._lock:
            return self._seq

    def spans_since(self, mark: int) -> List[Dict[str, Any]]:
        """Finished spans recorded after ``mark``, oldest first.

        The delta is plain data (JSON-able dicts minus the local
        ``seq``), ready to ship across a fork-pool result record.
        """
        out: List[Dict[str, Any]] = []
        with self._lock:
            for span_dict in self._ring:
                if span_dict.get("seq", 0) > mark:
                    cleaned = dict(span_dict)
                    cleaned.pop("seq", None)
                    out.append(cleaned)
        return out

    def merge(self, spans: Any) -> int:
        """Absorb a foreign span delta (e.g. from a fork worker) into
        this tracer's ring.  Returns the count merged.

        Merged spans are deliberately NOT re-exported: a worker shares
        the export configuration (pool workers inherit the live tracer
        at fork time, spawned shard processes read ``REPRO_TRACE*``
        from the environment) and has already appended its spans to
        the shared JSONL file, so exporting the delta again would
        duplicate every line.
        """
        if not spans or not self.enabled:
            return 0
        merged = 0
        for span_dict in spans:
            if not isinstance(span_dict, dict):
                continue
            if not span_dict.get("trace_id") or not span_dict.get(
                    "span_id"):
                continue
            self._record(dict(span_dict), export=False)
            merged += 1
        return merged

    def spans(self) -> List[Dict[str, Any]]:
        """All spans currently in the ring, oldest first (seq removed)."""
        return self.spans_since(0)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample_rate": self.sample_rate,
                "recorded": self._seq,
                "buffered": len(self._ring),
                "dropped": self.dropped,
                "export_path": (self.exporter.path
                                if self.exporter else None),
            }


#: Process-global tracer; forked workers inherit its configuration
#: (enabled flag, sample rate, export path) at fork time.
TRACER = Tracer()

# Environment configuration lets the flags reach cluster shard
# subprocesses and fork workers without threading arguments through
# every constructor: the supervisor / CLI export these before spawning.
_env_trace = os.environ.get("REPRO_TRACE", "")
if _env_trace and _env_trace not in ("0", "false", "no"):
    TRACER.configure(
        enabled=True,
        sample_rate=float(os.environ.get("REPRO_TRACE_SAMPLE", "1.0")),
        export_path=os.environ.get("REPRO_TRACE_EXPORT") or None,
    )


def span(name: str, layer: str = "app", **attrs: Any):
    """Module-level convenience for ``TRACER.span``."""
    return TRACER.span(name, layer=layer, **attrs)


def current_context() -> Optional[SpanContext]:
    """Module-level convenience for ``TRACER.current()``."""
    return TRACER.current()
