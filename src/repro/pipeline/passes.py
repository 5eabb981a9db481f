"""Concrete passes composing the three chapter flows.

Each pass is a small named object with a ``run(ctx)`` method over a
:class:`repro.pipeline.context.FlowContext`; the registry strings them
into per-flow pass lists (see :mod:`repro.pipeline.registry`).  The
pass bodies are the exact phase bodies of the historical monolithic
flow functions — the refactor moved the sequencing out, not the
semantics — so a registry-dispatched run is byte-identical to the old
bespoke call path.

Scheduling passes resolve ``options.scheduler`` against the backend
registry, so new backends (heap-driven list scheduling, modulo
scheduling) plug into the Chapter 3 and Chapter 4/6 flows without any
flow-specific wiring.
"""

from __future__ import annotations

from typing import List, Protocol

from repro.cdfg.validate import validate_cdfg
from repro.core.bus_assignment import BusAllocator, BusGeometry
from repro.core.connection_search import ConnectionSearch
from repro.core.pin_allocation import PinAllocationChecker
from repro.core.post_sched import PostScheduleConnector
from repro.core.simple_connection import build_simple_connection
from repro.core.subbus import SubBusConnectionSearch
from repro.errors import ConnectionError_, SchedulingError
from repro.partition.simple import is_simple_partitioning
from repro.pipeline.context import FlowContext, normalized_stats
from repro.pipeline.resource_table import ResourceTable
from repro.scheduling.base import measured_resources


class Pass(Protocol):
    """One step of a flow: consumes and produces a FlowContext."""

    name: str

    def run(self, ctx: FlowContext) -> None:
        """Read inputs and earlier products off ``ctx``, write own."""


# ---------------------------------------------------------------------
# Shared setup passes
# ---------------------------------------------------------------------
class ValidateDesign:
    """CDFG well-formedness (every flow's first gate)."""

    name = "validate"

    def run(self, ctx: FlowContext) -> None:
        validate_cdfg(ctx.graph, require_partitions=False)


class RequireSimplePartitioning:
    """Chapter 3 applies only to simple partitionings (Def 3.2)."""

    name = "require-simple"

    def run(self, ctx: FlowContext) -> None:
        if not is_simple_partitioning(ctx.graph):
            raise ConnectionError_(
                "synthesize_simple requires a simple partitioning "
                "(Definition 3.2); use synthesize_connection_first "
                "instead")


class BuildResourceTable:
    """Create the run's :class:`ResourceTable`; module counts default
    to the rate-feasible minimum when the caller gave none."""

    name = "resource-table"

    def __init__(self, default_modules: bool = True) -> None:
        self.default_modules = default_modules

    def run(self, ctx: FlowContext) -> None:
        ctx.table = ResourceTable(ctx.graph, ctx.partitioning,
                                  ctx.timing, ctx.initiation_rate,
                                  modules=ctx.options.resources)
        if self.default_modules:
            ctx.table.modules  # resolve eagerly, before the PERF phase


class ResolveShareGroups:
    """Section 7.2 conditional sharing (connection-first setup)."""

    name = "share-groups"

    def run(self, ctx: FlowContext) -> None:
        opts = ctx.options
        share_groups = opts.share_groups
        if opts.conditional_sharing:
            if share_groups is not None:
                raise ConnectionError_(
                    "give either explicit share_groups or "
                    "conditional_sharing=True, not both")
            from repro.cdfg.analysis import critical_path_length
            from repro.core.conditional import share_conditionally
            pipe_budget = critical_path_length(ctx.graph, ctx.timing) \
                + 2 * ctx.initiation_rate
            sharing = share_conditionally(
                ctx.graph, ctx.timing, pipe_budget,
                initiation_rate=ctx.initiation_rate)
            share_groups = sharing.share_groups()
        ctx.share_groups = share_groups


class ValidateScheduler:
    """Resolve ``options.scheduler`` against the backend registry for
    this flow; deprecated spellings canonicalize with a diagnostics
    warning, unknown or inapplicable names fail fast."""

    name = "validate-scheduler"

    def __init__(self, flow: str) -> None:
        self.flow = flow

    def run(self, ctx: FlowContext) -> None:
        from repro.pipeline.registry import (resolve_scheduler,
                                             scheduler_backend)
        resolved = resolve_scheduler(ctx.options.scheduler,
                                     diag=ctx.diag)
        backend = scheduler_backend(resolved)
        if backend is None:
            raise SchedulingError(
                f"unknown scheduler {ctx.options.scheduler!r}")
        if self.flow not in backend.flows:
            raise SchedulingError(
                f"scheduler {resolved!r} is not available in the "
                f"{self.flow} flow (supports: "
                f"{', '.join(backend.flows)})")
        ctx.stats_extra["_scheduler"] = resolved


def _resolved_backend(ctx: FlowContext, flow: str):
    from repro.pipeline.registry import (resolve_scheduler,
                                         scheduler_backend)
    name = ctx.stats_extra.pop("_scheduler", None)
    if name is None:
        name = resolve_scheduler(ctx.options.scheduler)
    return scheduler_backend(name)


# ---------------------------------------------------------------------
# Chapter 3 (simple) passes
# ---------------------------------------------------------------------
class SchedulePinChecked:
    """List scheduling gated by the ILP pin-allocation checker.

    The selected backend draws its functional-unit pool from the
    resource table and its I/O feasibility from a fresh
    :class:`PinAllocationChecker`; backends that retry (modulo) get a
    fresh checker per attempt, and the last one speaks for the run.
    """

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        backend = _resolved_backend(ctx, "simple")
        opts = ctx.options
        created: List[PinAllocationChecker] = []

        def hooks_factory():
            checker = PinAllocationChecker(
                ctx.graph, ctx.partitioning, ctx.initiation_rate,
                method=opts.pin_method, budget=ctx.token,
                diagnostics=ctx.diag, warm_basis=ctx.warm_basis)
            created.append(checker)
            return checker

        ctx.schedule = backend.run_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.table.modules, hooks_factory, ctx.token, ctx.diag)
        ctx.checker = created[-1]
        ctx.checker.finalize()


class ConnectSimple:
    """Theorem 3.1 constructive interchip connection."""

    name = "simple-connect"

    def run(self, ctx: FlowContext) -> None:
        ctx.simple_allocation = build_simple_connection(ctx.graph,
                                                        ctx.schedule)


class BuildSimpleResult:
    """Assemble the Chapter 3 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        checker = ctx.checker
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            simple_allocation=ctx.simple_allocation,
            stats=normalized_stats(ctx.perf_before,
                                   pin_checks=checker.checks,
                                   pin_cache_hits=checker.cache_hits,
                                   pin_store_hits=checker.store_hits),
            diagnostics=ctx.diag,
            warm_basis=checker.export_warm_basis(),
        )


# ---------------------------------------------------------------------
# Chapter 4/6 (connection-first) passes
# ---------------------------------------------------------------------
class SearchConnections:
    """Heuristic connection synthesis before scheduling (Fig 4.3)."""

    name = "connect-search"

    def run(self, ctx: FlowContext) -> None:
        opts = ctx.options
        search_cls = SubBusConnectionSearch if opts.subbus_sharing \
            else ConnectionSearch
        search = search_cls(ctx.graph, ctx.partitioning,
                            ctx.initiation_rate,
                            branching_factor=opts.branching_factor,
                            share_groups=ctx.share_groups,
                            slot_reserve=opts.slot_reserve,
                            budget=ctx.token)
        ctx.interconnect, ctx.initial = search.run()


class ScheduleBusAllocated:
    """Scheduling with dynamic bus (re)assignment hooks.

    Every backend receives a factory producing fresh
    :class:`BusAllocator` hooks over the searched interconnect; the
    postponement backend consumes several across its rounds, the
    others exactly one.  The last allocator's assignment is final.
    The interconnect is fixed while scheduling, so the allocators
    share one :class:`BusGeometry` table.
    """

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        backend = _resolved_backend(ctx, "connection-first")
        opts = ctx.options
        created: List[BusAllocator] = []
        fresh_copy = backend.name == "postpone"
        geometry = BusGeometry(ctx.graph, ctx.interconnect)

        def hooks_factory():
            initial = ctx.initial.copy() if fresh_copy else ctx.initial
            allocator = BusAllocator(ctx.graph, ctx.interconnect,
                                     initial, ctx.initiation_rate,
                                     reassignment=opts.reassignment,
                                     geometry=geometry)
            created.append(allocator)
            return allocator

        ctx.schedule = backend.run_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.table.modules, hooks_factory, ctx.token, ctx.diag)
        ctx.allocator = created[-1]


class BuildConnectionFirstResult:
    """Assemble the Chapter 4/6 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            interconnect=ctx.interconnect,
            assignment=ctx.allocator.final_assignment(),
            stats=normalized_stats(ctx.perf_before,
                                   initial_assignment=ctx.initial),
            diagnostics=ctx.diag,
        )


# ---------------------------------------------------------------------
# Chapter 5 (schedule-first) passes
# ---------------------------------------------------------------------
class ResolvePipeLength:
    """Bidirectional default + pipe budget for FDS runs without one."""

    name = "pipe-length"

    def run(self, ctx: FlowContext) -> None:
        bidirectional = ctx.options.bidirectional
        if bidirectional is None:
            bidirectional = ctx.partitioning.any_bidirectional()
        ctx.stats_extra["_bidirectional"] = bidirectional
        if ctx.pipe_length is None:
            ctx.pipe_length = ctx.options.pipe_length
        if ctx.pipe_length is None:
            from repro.core.flow import _default_pipe_length
            ctx.pipe_length = _default_pipe_length(
                ctx.graph, ctx.timing, ctx.initiation_rate)


class ScheduleForceDirected:
    """Time-constrained force-directed scheduling (Section 5.2)."""

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        from repro.pipeline.registry import scheduler_backend
        backend = scheduler_backend("fds")
        ctx.schedule = backend.run_time_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.pipe_length, ctx.token, ctx.diag)


class ConnectPostSchedule:
    """Clique-partitioning connection synthesis after scheduling."""

    name = "post-connect"

    def run(self, ctx: FlowContext) -> None:
        connector = PostScheduleConnector(
            ctx.graph, ctx.schedule, partitioning=None,
            bidirectional=ctx.stats_extra.pop("_bidirectional"))
        ctx.interconnect, ctx.assignment = connector.run()


class MeasureResources:
    """Module usage is an output of the Chapter 5 flow, not an input."""

    name = "measure-resources"

    def run(self, ctx: FlowContext) -> None:
        ctx.table.set_modules(measured_resources(ctx.schedule))


class BuildScheduleFirstResult:
    """Assemble the Chapter 5 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            interconnect=ctx.interconnect,
            assignment=ctx.assignment,
            stats=normalized_stats(ctx.perf_before),
            diagnostics=ctx.diag,
        )


# ---------------------------------------------------------------------
# Verification passes
# ---------------------------------------------------------------------
class VerifyResult:
    """Strict end-to-end verification (``require_valid``)."""

    name = "verify"

    def run(self, ctx: FlowContext) -> None:
        ctx.result.require_valid()


class VerifyTolerantPins:
    """Chapter 5 verification: the flow minimizes pins rather than
    respecting a fixed budget, so overruns are reported, not fatal —
    unless the run is a degradation fallback (``strict_verify``)."""

    name = "verify-tolerant"

    def run(self, ctx: FlowContext) -> None:
        result = ctx.result
        problems = result.verify()
        hard = [p for p in problems if "budget" not in p]
        if hard:
            raise SchedulingError(
                "schedule-first synthesis failed verification:\n  "
                + "\n  ".join(hard))
        overruns = [p for p in problems if "budget" in p]
        result.stats["budget_overruns"] = overruns
        if overruns:
            ctx.diag.record("schedule_first", "pin_budget_overruns",
                            count=len(overruns))


class VerifyStrictOnFallback:
    """Degradation rungs answer for the flow they replaced: a
    schedule-first result reached by fallback must verify exactly like
    a full-effort one — including pin budgets, which the standalone
    Chapter 5 flow merely reports on."""

    name = "verify-strict"

    def run(self, ctx: FlowContext) -> None:
        if ctx.strict_verify:
            ctx.result.require_valid()


class CheckRules:
    """The unified design-rule checker as a uniform final pass
    (``synthesize(check=True)``); raises on any violation."""

    name = "check"

    def run(self, ctx: FlowContext) -> None:
        # Imported here: repro.check is a layer above the flows.
        from repro.check.rules import check_result
        check_result(ctx.result).raise_if_violations()
