"""The synthesis service: admission -> coalesce -> pool -> cache.

:class:`SynthesisService` owns every piece of serving state — the warm
:class:`~repro.service.pool.WorkerPool`, the shared persistent
:class:`~repro.explore.cache.ResultCache`, the in-flight coalescing
map, the bounded job store, and the metrics — and implements the
request lifecycle:

1. **cache** — a request whose content hash is already cached is
   answered without queueing (``cache_hits``);
2. **coalesce** — identical to an in-flight job, it attaches to that
   job's completion event instead of solving again (``coalesced``);
3. **admission** — otherwise it must pass load shedding: queue depth
   below ``max_queue`` *and* projected queue wait (depth x EMA job
   time / workers) within the request deadline, else 429 with a
   ``Retry-After`` hint (``shed``);
4. **execute** — admitted jobs run on the pool under a worker-count
   semaphore; the per-request deadline rides into the worker as a
   :class:`repro.robustness.budget.SolveBudget`, so overloaded solves
   degrade gracefully instead of being killed;
5. **complete** — the record lands in the cache (making later
   identical requests free), its perf delta is merged, and every
   waiter — coalesced followers included — is released at once.

All state transitions happen on the event-loop thread; the pool is the
only concurrency boundary and crosses it with plain-data records.

:func:`route` is the HTTP routing both serving apps share (the service
here and :class:`repro.cluster.front.FrontTier`): each subclasses
:class:`HttpApp` and supplies only its health, metrics, job lookup and
submit code.
"""

from __future__ import annotations

import asyncio
import math
import time
import uuid
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.oracle_store import OracleStore, activate
from repro.errors import ReproError
from repro.explore.cache import open_result_cache
from repro.explore.pareto import OBJECTIVES, pareto_front
from repro.explore.spec import SweepJob, SweepSpec
from repro.io_json import SCHEMA_VERSION
from repro.obs import (HUB, TRACER, extract_headers, inject_payload)
from repro.obs.prometheus import render_service_metrics
from repro.perf import PERF, PerfRegistry
from repro.robustness.budget import carve_deadline_ms
from repro.service import catalog
from repro.service.jobs import Job, JobStore, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkerPool

#: Version tag stamped on every job response object.
RESPONSE_SCHEMA = "repro-service-response/1"
#: Job statuses that carry a full record.
COMPLETED_STATUSES = ("ok", "degraded")


class ShedRequest(ReproError):
    """Admission control rejected the request (HTTP 429)."""

    def __init__(self, reason: str, retry_after_s: int) -> None:
        super().__init__(reason)
        self.retry_after_s = max(1, int(retry_after_s))


# ---------------------------------------------------------------------
# Request routing, shared by the service and the cluster front.  A
# handler returns (HTTP status, payload, extra headers); the payload is
# normally the JSON document, while a ``str`` payload is a pre-rendered
# text body (Prometheus exposition) the server sends as text/plain.
# ---------------------------------------------------------------------
Handled = Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]

SUBMIT_PATHS = ("/v1/synthesize", "/v1/sweep")
JOBS_PREFIX = "/v1/jobs/"


def wants_prometheus(headers: Optional[Dict[str, str]],
                     query: str = "") -> bool:
    """Content negotiation for ``/metrics``: explicit
    ``?format=prometheus`` / ``?format=json`` wins, else the Accept
    header decides (JSON stays the default)."""
    query = query or ""
    if "format=prometheus" in query:
        return True
    if "format=json" in query:
        return False
    accept = (headers or {}).get("accept", "")
    return "text/plain" in accept or "openmetrics" in accept


def error(status: int, message: str, **extra: Any) -> Handled:
    """An error answer; ``retry_after_s`` also sets ``Retry-After``."""
    payload: Dict[str, Any] = {"schema": "repro-service-error/1",
                               "error": message}
    payload.update(extra)
    headers = ({"Retry-After": str(extra["retry_after_s"])}
               if "retry_after_s" in extra else {})
    return status, payload, headers


def deadline_ms(body: Dict[str, Any],
                default_ms: Optional[float]) -> Optional[float]:
    """The request's ``timeout_ms`` (or the server default), checked."""
    raw = body.get("timeout_ms", default_ms)
    if raw is None:
        return None
    deadline = float(raw)
    if deadline <= 0:
        raise ReproError(f"timeout_ms must be positive, got {raw!r}")
    return deadline


def wait_limit_s(deadline: Optional[float]) -> Optional[float]:
    """How long a waiting request blocks on its job: twice the job's
    own budget plus slack, to cover queue wait."""
    return None if deadline is None else (2.0 * deadline + 2000.0) / 1000.0


def job_response(job: Job) -> Dict[str, Any]:
    """The schema-governed JSON object for a job's current state."""
    out: Dict[str, Any] = {
        "schema": RESPONSE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "job_id": job.id,
        "kind": job.kind,
        "status": job.status,
        "cached": job.cached,
        "coalesced": job.coalesced,
        "params": job.params,
    }
    if job.key:
        out["key"] = job.key
    if not job.done:
        out["location"] = f"{JOBS_PREFIX}{job.id}"
        return out
    record = job.record or {}
    for name in ("metrics", "stats", "diagnostics", "check", "wall_ms",
                 "error", "progress", "points", "pareto",
                 "status_counts"):
        if name in record:
            out[name] = record[name]
    return out


async def route(app: "HttpApp", method: str, path: str,
                body: Optional[Dict[str, Any]],
                headers: Optional[Dict[str, str]] = None,
                query: str = "") -> Handled:
    """Route one parsed request; returns (status, payload, headers).

    ``headers`` are the lowercase request headers (used for trace
    propagation and /metrics content negotiation); ``query`` is the
    raw query string.
    """
    submit = path in SUBMIT_PATHS
    if not (submit or path.startswith(JOBS_PREFIX)
            or path in ("/healthz", "/metrics")
            or path in app.extra_routes):
        return error(404, f"no such endpoint {path!r}")
    if method != ("POST" if submit else "GET"):
        return error(405, "method not allowed")
    if path == "/healthz":
        # Liveness is the TCP answer itself; the status code carries
        # readiness, so one endpoint serves both probes.
        return app.health()
    if path == "/metrics":
        payload = await app.build_metrics()
        if wants_prometheus(headers, query):
            return 200, app.render_metrics(payload), {}
        return 200, payload, {}
    if path in app.extra_routes:
        return app.extra_routes[path]()
    if app.request_counter:
        app.metrics.inc(app.request_counter)
    if not submit:
        return await app.lookup_job(path[len(JOBS_PREFIX):])
    # Every submission gets a request id; sampled requests also carry
    # their trace id back, so client-side failures are correlatable
    # with server logs and trace exports.  Adopting the caller's trace
    # context (if any) puts a whole cluster hop — front routing, shard
    # admission, worker solve — on one connected trace.
    request_id = uuid.uuid4().hex[:12]
    with TRACER.attach(extract_headers(headers)), \
            TRACER.span(app.span_name, layer=app.span_layer,
                        endpoint=path) as sp:
        sp.set(request_id=request_id)
        if app.draining:
            status, payload, extra = error(503, app.draining_message,
                                           retry_after_s=1)
        elif body is None:
            status, payload, extra = error(
                400, "request body must be a JSON object")
        else:
            status, payload, extra = await app.submit(path, body, sp)
    extra = dict(extra)
    extra["X-Repro-Request-Id"] = request_id
    if sp.sampled:
        extra["X-Repro-Trace-Id"] = sp.trace_id
    return status, payload, extra


class HttpApp:
    """What :func:`route` and :class:`repro.service.server.HttpServer`
    need from an app.  Subclasses provide ``config`` (host, port,
    max_body_bytes, default_timeout_ms), ``metrics``, ``store`` and
    ``draining``, plus ``start`` / ``drain``, ``health``,
    ``build_metrics`` and ``submit``."""

    #: Name and layer of the span each submission runs under.
    span_name = "service.request"
    span_layer = "service"
    draining_message = "service is draining"
    render_metrics = staticmethod(render_service_metrics)
    #: Counters bumped per job poll or submission, and per handler
    #: crash answered with a 500; None counts nothing.
    request_counter: Optional[str] = None
    crash_counter: Optional[str] = None
    #: Extra GET endpoints: path -> handler.
    extra_routes: Dict[str, Callable[[], Handled]] = {}

    #: ``app.handle(method, path, ...)`` is ``route(app, method, ...)``.
    handle = route

    async def lookup_job(self, job_id: str) -> Handled:
        job = self.store.get(job_id)
        if job is None:
            return error(404, "no such job")
        return 200, job_response(job), {}


class SynthesisService(HttpApp):
    """Long-running serving state shared by every connection."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.perf = PerfRegistry()
        # A path opens the local JSONL cache; a remote://host:port
        # spec mounts the cluster's shared cache server read-through.
        self.cache = open_result_cache(config.cache_path,
                                       sync=config.cache_sync)
        # Activate the shared pin-oracle store BEFORE the pool exists:
        # forked workers inherit the active store (warm, read-only from
        # the file's point of view) and ship back only their deltas.
        self.oracle = OracleStore(config.oracle_path)
        self._previous_oracle = activate(self.oracle)
        self.pool = WorkerPool(workers=config.workers,
                               mode=config.pool_mode,
                               job_runner=config.job_runner)
        self.store = JobStore(config.retained_jobs)
        self.inflight: Dict[str, Job] = {}
        self.queue_depth = 0
        self.draining = False
        self._slots = asyncio.Semaphore(self.pool.workers)
        self._tasks: set = set()

    # -- readiness -----------------------------------------------------
    @property
    def ready(self) -> bool:
        """Readiness (distinct from liveness): the pool is warm and, in
        shard mode, this server's ring seat is coherent.  ``/healthz``
        answers 503 until this is True, so load balancers and the
        cluster supervisor never route to a shard that would queue
        behind its own fork storm or sit outside the key space."""
        if self.draining or not self.pool.warmed:
            return False
        shard = self.config.shard
        return shard is None or shard.valid()

    # -- admission -----------------------------------------------------
    def projected_wait_ms(self, new_jobs: int = 1) -> float:
        """Expected queue wait for a request arriving now."""
        ema = self.metrics.ema_job_ms
        depth = self.queue_depth + max(0, new_jobs - 1)
        return depth * ema / self.pool.workers

    def check_admission(self, deadline_ms: Optional[float],
                        new_jobs: int = 1) -> None:
        """Raise :class:`ShedRequest` unless the work can be admitted."""
        ema_s = max(0.001, self.metrics.ema_job_ms / 1000.0)
        if self.queue_depth + new_jobs > self.config.max_queue:
            self.metrics.inc("shed")
            raise ShedRequest(
                f"queue full ({self.queue_depth}/"
                f"{self.config.max_queue})",
                retry_after_s=math.ceil(ema_s))
        projected = self.projected_wait_ms(new_jobs)
        if deadline_ms is not None and projected > deadline_ms:
            self.metrics.inc("shed")
            raise ShedRequest(
                f"projected queue wait {projected:.0f}ms exceeds "
                f"deadline {deadline_ms:.0f}ms",
                retry_after_s=math.ceil(projected / 1000.0))

    # -- submission ----------------------------------------------------
    def submit_point(self, point: SweepJob,
                     deadline_ms: Optional[float],
                     slice_ms: Optional[float] = None,
                     preadmitted: bool = False) -> Tuple[Job, str]:
        """Admit one content-addressed solve; returns (job, how) where
        ``how`` is ``cached`` / ``coalesced`` / ``new``."""
        existing = self.inflight.get(point.key)
        if existing is not None:
            existing.coalesced += 1
            self.metrics.inc("accepted")
            self.metrics.inc("coalesced")
            return existing, "coalesced"
        cached = self.cache.get(point.key)
        if cached is not None:
            job = Job(key=point.key, params=dict(point.params),
                      cached=True)
            job.finish(cached)
            self.store.add(job)
            self.metrics.inc("accepted")
            self.metrics.inc("cache_hits")
            return job, "cached"
        if not preadmitted:
            self.check_admission(deadline_ms)
        budget_ms = slice_ms if slice_ms is not None else deadline_ms
        payload = inject_payload(point.payload(deadline_ms=budget_ms))
        # Served results are design-rule-checked in the worker; a
        # violating result comes back ``invalid`` (non-cacheable), so
        # the cache and coalesced followers only ever see clean ones.
        payload["check"] = True
        job = Job(key=point.key, params=dict(point.params),
                  payload=payload)
        self.inflight[point.key] = job
        self.store.add(job)
        self.queue_depth += 1
        self.metrics.inc("accepted")
        self.metrics.inc("executed")
        self._spawn(self._execute(job))
        return job, "new"

    def submit_sweep(self, spec: SweepSpec, points: Sequence[SweepJob],
                     design_name: str,
                     deadline_ms: Optional[float]) -> Job:
        """Admit a whole sweep atomically (all points or a 429)."""
        fresh = {p.key for p in points
                 if p.key not in self.inflight and p.key not in self.cache}
        self.check_admission(deadline_ms, new_jobs=len(fresh))
        slice_ms = carve_deadline_ms(deadline_ms, max(1, len(fresh)),
                                     workers=self.pool.workers)
        sweep = Job(key="", kind="sweep",
                    params={"design": design_name,
                            "spec": spec.to_dict()})
        # No awaits between point submissions, so the upfront capacity
        # check still holds for every per-point admission below.
        sweep.children = [
            self.submit_point(p, deadline_ms, slice_ms=slice_ms,
                              preadmitted=True)[0]
            for p in points]
        self.store.add(sweep)
        self._spawn(self._finish_sweep(sweep))
        return sweep

    # -- execution -----------------------------------------------------
    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute(self, job: Job) -> None:
        start = time.perf_counter()
        try:
            async with self._slots:
                job.status = "running"
                # This task inherited the submitting request's trace
                # context at _spawn time, so the execute span parents
                # under the request span (and under it, the worker's
                # job.solve span after the delta merge below).
                with TRACER.span("service.execute", layer="service",
                                 job_id=job.id) as sp:
                    record = await self.pool.run(job.payload)
                    if isinstance(record, dict):
                        sp.set(status=record.get("status", "error"))
            if not isinstance(record, dict):
                record = {"status": "error",
                          "error": "job runner returned "
                                   f"{type(record).__name__}"}
        except Exception as exc:  # pool infrastructure failure
            record = {"status": "error",
                      "error": f"worker pool failure: {exc}"}
        wall_ms = (time.perf_counter() - start) * 1000.0
        record.setdefault("wall_ms", round(wall_ms, 3))
        delta = record.get("perf") or {}
        self.perf.merge(delta)
        spans = record.pop("spans", None)
        hub_delta = record.pop("hub", None)
        if self.pool.mode == "process":
            # Pool workers incremented *their* PERF; fold the delta in
            # so this process's registry sees the whole service.
            PERF.merge(delta)
            # Likewise the pin-oracle entries the worker proved: merge
            # them so the next request (on any worker after a respawn,
            # or answered inline) starts warmer.
            self.oracle.merge(record.get("oracle_delta"))
            # And the worker's spans / histogram observations (thread
            # workers recorded straight into this process's globals).
            TRACER.merge(spans)
            HUB.merge(hub_delta)
        record.pop("oracle_delta", None)
        self.cache.put(job.key, record)
        HUB.observe("service.job_wall_ms", wall_ms)
        self.queue_depth -= 1
        self.inflight.pop(job.key, None)
        self.metrics.observe_job_ms(wall_ms)
        self.metrics.inc("completed")
        status = record.get("status")
        if status == "degraded":
            self.metrics.inc("degraded")
        elif status == "error":
            self.metrics.inc("errors")
        elif status == "invalid":
            self.metrics.inc("invalid")
        elif status == "budget_exhausted":
            self.metrics.inc("budget_exhausted")
        job.finish(record)

    async def _finish_sweep(self, sweep: Job) -> None:
        for child in sweep.children:
            await child.wait()
        points: List[Dict[str, Any]] = []
        for index, child in enumerate(sweep.children):
            record = child.record or {}
            point = {"index": index, "key": child.key,
                     "params": child.params, "status": child.status,
                     "cached": child.cached, "job_id": child.id,
                     "wall_ms": record.get("wall_ms", 0.0)}
            for name in ("metrics", "error"):
                if name in record:
                    point[name] = record[name]
            points.append(point)
        done = [p for p in points
                if p.get("status") in COMPLETED_STATUSES
                and "metrics" in p]
        front = pareto_front([p["metrics"] for p in done], OBJECTIVES)
        counts: Dict[str, int] = {}
        for point in points:
            counts[point["status"]] = counts.get(point["status"], 0) + 1
        sweep.finish({
            "status": ("ok" if all(p["status"] == "ok" for p in points)
                       else "degraded"),
            "points": points,
            "pareto": [done[i]["index"] for i in front],
            "status_counts": counts,
            "wall_ms": round(sum(p["wall_ms"] for p in points), 3),
        })

    # -- shutdown ------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, finish every in-flight job, stop the pool."""
        self.draining = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self.pool.shutdown()
        activate(self._previous_oracle)

    # -- HTTP hooks (see HttpApp) --------------------------------------
    async def start(self) -> None:
        """Pre-fork the warm pool (before the socket opens)."""
        self.pool.warmup()

    def health(self) -> Handled:
        if self.draining:
            status = "draining"
        elif self.ready:
            status = "ok"
        else:
            status = "warming"
        out = {
            "schema": "repro-service-health/1",
            "status": status,
            "ready": self.ready,
            "live": True,
            "queue_depth": self.queue_depth,
            "workers": self.pool.workers,
            "jobs": len(self.store),
        }
        if self.config.shard is not None:
            out["shard"] = self.config.shard.to_dict()
        if self.ready:
            return 200, out, {}
        return 503, out, {"Retry-After": "1"}

    async def build_metrics(self) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        snap.update({
            "queue_depth": self.queue_depth,
            "inflight": len(self.inflight),
            "draining": self.draining,
            "jobs_retained": len(self.store),
        })
        # Scrape-time gauges: the hub is the one surface Prometheus
        # (and the cluster front's auto-scaling aggregation) reads
        # them from.
        counters = snap.get("counters", {})
        accepted = counters.get("accepted", 0)
        HUB.gauges({
            "service.queue_depth": self.queue_depth,
            "service.inflight": len(self.inflight),
            "service.ema_job_ms": snap.get("ema_job_ms", 0.0),
            "service.cache_hit_ratio": (
                counters.get("cache_hits", 0) / accepted if accepted
                else 0.0),
        })
        hub = HUB.snapshot()
        out = {
            "schema": "repro-service-metrics/1",
            "service": snap,
            "workers": {"count": self.pool.workers,
                        "mode": self.pool.mode},
            "cache": self.cache.stats(),
            "oracle": self.oracle.stats(),
            "perf": self.perf.snapshot(),
            # Counters/timings stay under "perf"; the hub section
            # carries only what PerfRegistry cannot: distributions and
            # gauges.
            "obs": {"histograms": hub["histograms"],
                    "gauges": hub["gauges"]},
            "tracer": TRACER.stats(),
        }
        if self.config.shard is not None:
            out["shard"] = self.config.shard.to_dict()
        return out

    async def submit(self, path: str, body: Dict[str, Any],
                     sp: Any) -> Handled:
        """The /v1/synthesize | /v1/sweep body, inside the request span."""
        try:
            deadline = deadline_ms(body, self.config.default_timeout_ms)
            wait = bool(body.get("wait", True))
            if path == "/v1/synthesize":
                _space, point = catalog.synthesize_job(body)
                job, how = self.submit_point(point, deadline)
                sp.set(how=how, design=body.get("design"))
            else:
                space, spec, points = catalog.sweep_jobs(body)
                job = self.submit_sweep(spec, points, space.name,
                                        deadline)
                sp.set(design=space.name, points=len(points))
            sp.set(job_id=job.id)
        except ShedRequest as exc:
            sp.set(shed=True)
            return error(429, str(exc), retry_after_s=exc.retry_after_s)
        except (ReproError, ValueError, TypeError) as exc:
            return error(400, str(exc))
        if wait and not job.done:
            # The job's own budget bounds the solve; double it (plus
            # slack) to cover queue wait, then fall back to async
            # polling.
            await job.wait(wait_limit_s(deadline))
        return (200 if job.done else 202), job_response(job), {}
