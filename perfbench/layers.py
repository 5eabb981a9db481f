"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (solver
methods, scheduler ``run`` methods, pipeline passes, cache and service
calls) with a timer.  A synchronous wrapper keeps a per-thread stack
of open spans, so a layer's *self* time is its span minus the spans of
the wrapped calls it made.  Asynchronous service and front-tier calls
interleave on one event-loop thread, so they record wall time only.

Every figure is folded into the process-global ``repro.perf.PERF``
registry under ``bench.*`` keys.  That is the channel the explorer and
the service already use to ship a forked worker's counter deltas back
to the parent, so spans recorded inside workers arrive with the job
records and no extra plumbing.

Recording is switched by a flag in shared memory (inherited by forked
workers), so a traced run can alternate untraced and traced passes
over the same fleet and report the tracing overhead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import multiprocessing
import sys
import threading
import time

from repro.perf import PERF

_LOCAL = threading.local()
_EXECUTE_START = contextvars.ContextVar("bench_execute_start",
                                        default=None)
#: Shared on/off switch; created by :func:`install` before any fork.
ENABLED = None

#: Pipeline passes reported by name, in flow order.
PASSES = ("validate", "resource-table", "schedule", "connect-search",
          "simple-connect", "post-connect", "build-result", "verify",
          "check")

#: (span key, module, qualified names) for synchronous entry points.
SYNC_TARGETS = (
    ("ilp.tableau.pivot", "repro.ilp.tableau", ("Tableau.pivot",)),
    ("ilp.tableau", "repro.ilp.tableau",
     ("Tableau.primal_simplex", "Tableau.dual_simplex")),
    ("ilp.gomory.reoptimize", "repro.ilp.gomory",
     ("DualAllIntegerSolver.reoptimize",)),
    ("ilp.gomory", "repro.ilp.gomory",
     ("DualAllIntegerSolver.solve", "DualAllIntegerSolver.check_feasible",
      "DualAllIntegerSolver.probe_lower_bound",
      "DualAllIntegerSolver.commit_lower_bound")),
    ("ilp.simplex", "repro.ilp.simplex", ("solve_lp",)),
    ("ilp.branch_bound", "repro.ilp.branch_bound", ("solve_ilp",)),
    ("core.pin_allocation", "repro.core.pin_allocation",
     ("PinAllocationChecker.can_schedule", "PinAllocationChecker.commit",
      "PinAllocationChecker.finalize")),
    ("scheduling", "repro.scheduling.list_scheduler", ("ListScheduler.run",)),
    ("scheduling", "repro.scheduling.heap_list", ("HeapListScheduler.run",)),
    ("scheduling", "repro.scheduling.fds", ("ForceDirectedScheduler.run",)),
    ("scheduling", "repro.scheduling.modulo", ("ModuloScheduler.run",)),
    ("scheduling", "repro.scheduling.postpone",
     ("schedule_with_postponement",)),
    ("core.connection_search", "repro.core.connection_search",
     ("ConnectionSearch.run",)),
    ("core.connection_search", "repro.core.subbus",
     ("SubBusConnectionSearch.run",)),
    ("core.bus_assignment", "repro.core.bus_assignment",
     ("BusAllocator.can_schedule", "BusAllocator.commit",
      "BusAllocator.final_assignment")),
    ("core.post_sched", "repro.core.post_sched",
     ("PostScheduleConnector.run",)),
    ("synthesize", "repro.core.flow", ("synthesize",)),
    ("check", "repro.check.rules", ("check_result",)),
    ("io_json.encode", "repro.io_json",
     ("graph_to_dict", "partitioning_to_dict", "result_to_dict")),
    ("io_json.decode", "repro.io_json",
     ("graph_from_dict", "partitioning_from_dict", "result_from_dict")),
    ("explore.pool", "repro.explore.executor", ("Executor._run_pool",)),
    ("explore.cache_get", "repro.explore.cache", ("ResultCache.get",)),
    ("explore.cache_put", "repro.explore.cache", ("ResultCache.put",)),
    ("explore.cache_get", "repro.cluster.cache_client",
     ("ReadThroughCache.get",)),
    ("explore.cache_put", "repro.cluster.cache_client",
     ("ReadThroughCache.put",)),
    ("cluster.cache_server_get", "repro.cluster.cache_client",
     ("CacheClient.get",)),
    ("cluster.cache_server_put", "repro.cluster.cache_client",
     ("CacheClient.put",)),
    ("oracle_store.lookup", "repro.core.oracle_store",
     ("OracleStore.lookup",)),
    ("oracle_store.merge", "repro.core.oracle_store",
     ("OracleStore.merge",)),
    ("service.admission", "repro.service.app",
     ("SynthesisService.submit_point", "SynthesisService.submit_sweep")),
)


def _record(key: str, wall: float, self_s: float) -> None:
    PERF.merge({"counters": {f"bench.calls.{key}": 1},
                "timings": {f"bench.wall.{key}": wall,
                            f"bench.self.{key}": self_s}})


def _sync(fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not ENABLED.value:
            return fn(*args, **kwargs)
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += wall
            _record(key, wall, wall - children)
    return wrapper


def _timed_async(fn, key: str):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not ENABLED.value:
            return await fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            _record(key, wall, wall)
    return wrapper


def _execute(fn):
    """Mark when a service job starts waiting for a worker slot."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        token = _EXECUTE_START.set(time.perf_counter())
        try:
            return await fn(*args, **kwargs)
        finally:
            _EXECUTE_START.reset(token)
    return wrapper


def _pool_run(fn):
    """Split a service job into queue wait and pool round trip."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        queued = _EXECUTE_START.get()
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            if ENABLED.value:
                wall = time.perf_counter() - start
                _record("service.pool_roundtrip", wall, wall)
                if queued is not None:
                    _record("service.queue_wait", start - queued,
                            start - queued)
    return wrapper


def _front_handle(fn):
    """Front-tier handling time, split by cache-hit answers."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not ENABLED.value:
            return await fn(*args, **kwargs)
        start = time.perf_counter()
        handled = await fn(*args, **kwargs)
        wall = time.perf_counter() - start
        payload = handled[1] if isinstance(handled, tuple) else None
        hit = isinstance(payload, dict) and payload.get("cached") is True
        _record("cluster.front_handle_hit" if hit
                else "cluster.front_handle", wall, wall)
        return handled
    return wrapper


def _replace_function(module, name: str, wrapper) -> None:
    """Rebind a module-level function everywhere it was imported."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install() -> None:
    """Wrap every target; recording starts switched off."""
    global ENABLED
    if ENABLED is not None:
        return
    ENABLED = multiprocessing.Value("b", 0, lock=False)
    from repro.pipeline import passes
    targets = list(SYNC_TARGETS)
    for obj in vars(passes).values():
        if isinstance(obj, type) and "run" in vars(obj) \
                and isinstance(getattr(obj, "name", None), str):
            targets.append((f"pipeline.{obj.name}", passes.__name__,
                            (f"{obj.__name__}.run",)))
    for key, module_name, names in targets:
        module = importlib.import_module(module_name)
        for qualname in names:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                getattr(cls, attr)  # a renamed target fails loudly
                if attr in vars(cls):  # else it inherits a wrapped one
                    setattr(cls, attr, _sync(vars(cls)[attr], key))
            else:
                _replace_function(module, qualname,
                                  _sync(getattr(module, qualname), key))
    from repro.cluster.front import FrontTier
    from repro.service.app import SynthesisService
    from repro.service.pool import WorkerPool
    SynthesisService._execute = _execute(SynthesisService._execute)
    WorkerPool.run = _pool_run(WorkerPool.run)
    FrontTier.call_shard = _timed_async(FrontTier.call_shard,
                                        "cluster.front_proxy")
    FrontTier.handle = _front_handle(FrontTier.handle)


def set_enabled(on: bool) -> None:
    ENABLED.value = 1 if on else 0


# ---------------------------------------------------------------------
def per_layer(delta, ops: int, extra) -> dict:
    """Per-layer metrics from a ``PERF`` delta over the traced passes.

    Counts and times are means per attempted operation; ratios are
    ratios.  ``extra`` carries what the workload measured itself
    (outcome tallies, service and front counters, store sizes).
    """
    counters = delta.get("counters", {})
    timings = delta.get("timings", {})
    n = max(1, ops)

    def count(name):
        return counters.get(name, 0) / n

    def self_ms(*keys):
        return sum(timings.get(f"bench.self.{k}", 0.0)
                   for k in keys) * 1000.0 / n

    def wall_ms(key):
        return timings.get(f"bench.wall.{key}", 0.0) * 1000.0 / n

    def ratio(num, den):
        return num / den if den else 0.0

    probes = counters.get("gomory.probes", 0)
    pin_hits = counters.get("pin.cache_hits", 0)
    pin_lookups = pin_hits + counters.get("pin.cache_misses", 0)
    # pin.store_hits counts exact and dominance answers alike.
    store_hits = counters.get("pin.store_hits", 0)
    ilp_pin = self_ms("ilp.tableau.pivot", "ilp.tableau",
                      "ilp.gomory.reoptimize", "ilp.gomory",
                      "ilp.simplex", "ilp.branch_bound",
                      "core.pin_allocation")
    solve = wall_ms("synthesize")
    hit_handle = timings.get("bench.wall.cluster.front_handle_hit", 0.0)
    out = {
        "tableau.pivots": count("tableau.pivots"),
        "tableau.pivot_ms": self_ms("ilp.tableau.pivot"),
        "tableau.rollbacks": count("tableau.rollbacks"),
        "gomory.reoptimize_ms": self_ms("ilp.gomory.reoptimize"),
        "gomory.cuts": count("gomory.cuts"),
        "gomory.probes": count("gomory.probes"),
        "gomory.commits": count("gomory.commits"),
        "gomory.commit_ratio": ratio(counters.get("gomory.commits", 0),
                                     probes),
        "pin_allocation.checks": count("pin.checks"),
        "pin_allocation.self_ms": self_ms("core.pin_allocation"),
        "pin_allocation.cache_hit_ratio": ratio(pin_hits, pin_lookups),
        "pin_allocation.store_hits": count("pin.store_hits"),
        "pin_allocation.budget_fallbacks": sum(
            v for k, v in counters.items()
            if k.startswith("pin.budget_fallback_")) / n,
        "branch_bound.nodes": count("bnb.nodes"),
        "simplex.solves": count("simplex.solves"),
        "robustness.budget_exhausted": extra["budget_exhausted"] / n,
        "robustness.overrun_ms": extra["overrun_ms"],
        "scheduling.self_ms": self_ms("scheduling"),
        "scheduling.fds_placements": count("fds.placements"),
        "connection_search.self_ms": self_ms("core.connection_search"),
        "connection_search.steps": count("search.steps"),
        "bus_assignment.self_ms": self_ms("core.bus_assignment"),
        "bus_assignment.reassignments": count("bus.reassignments"),
        "post_sched.self_ms": self_ms("core.post_sched"),
        "post_sched.cliques": count("connect.cliques"),
    }
    for name in PASSES:
        out[f"pipeline.{name}.self_ms"] = self_ms(f"pipeline.{name}")
    out.update({
        "check.check_result_ms": wall_ms("check"),
        "io_json.encode_ms": self_ms("io_json.encode"),
        "io_json.decode_ms": self_ms("io_json.decode"),
        "explore.run_job_ms": wall_ms("explore.run_job"),
        "explore.pool_wait_ms": self_ms("explore.pool"),
        "explore.cache_get_ms": self_ms("explore.cache_get"),
        "explore.cache_put_ms": self_ms("explore.cache_put"),
        "explore.cache_hit_ratio": extra["cache_hit_ratio"],
        "oracle_store.entries": extra["oracle_entries"],
        "oracle_store.hit_ratio": ratio(
            store_hits, counters.get("bench.calls.oracle_store.lookup", 0)),
        "oracle_store.merge_ms": wall_ms("oracle_store.merge"),
        "service.admission_ms": self_ms("service.admission"),
        "service.queue_wait_ms": wall_ms("service.queue_wait"),
        "service.pool_roundtrip_ms": wall_ms("service.pool_roundtrip"),
        "service.coalesced": extra["service"].get("coalesced", 0) / n,
        "service.cache_hits": extra["service"].get("cache_hits", 0) / n,
        "service.shed": extra["service"].get("shed", 0) / n,
        "cluster.front_proxy_ms": wall_ms("cluster.front_proxy"),
        "cluster.front_cache_hits":
            extra["front"].get("front_cache_hits", 0) / n,
        "cluster.batched": extra["front"].get("batched", 0) / n,
        "cluster.cache_server_get_ms": wall_ms("cluster.cache_server_get"),
        "cluster.cache_server_put_ms": wall_ms("cluster.cache_server_put"),
        "solve.ms": solve,
        "layers.ilp_pin_share": ratio(ilp_pin, solve),
        "layers.hit_serving_share": ratio(hit_handle * 1000.0,
                                          extra["hit_latency_ms"]),
    })
    return out
