"""Outcome tallies, percentiles, memory accounting and the pass loop."""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time
from collections import Counter
from math import gcd

import layers

#: Outcomes that answer the request with a design.
OK = ("ok", "degraded")
#: Failures in the sense of ``error_rate``: known program limits
#: (deadline overrun, the sub-bus scheduling defect) and serving
#: failures.  ``rejected`` (a proof that the point cannot be
#: synthesized) is neither a failure nor an answer.
KNOWN_LIMITS = ("budget_exhausted", "known_defect")
BROKEN = ("invalid", "shed", "lost", "error")


class Tally:
    """Outcomes and latencies of the operations of a timed phase.

    Each operation has a wall latency and a cost: its CPU time at
    reference speed (see :class:`Speed`).  That is the CPU its thread
    spent for an in-process solve, the CPU of the worker job for an
    explorer point, and the CPU of the whole process tree while the
    request was in flight for a service request.  ``cost_s`` is the
    cost of the pass as a whole.
    """

    def __init__(self) -> None:
        self.outcomes = Counter()
        self.latencies_ms = []
        self.cost_ms = []
        self.cost_s = 0.0
        self.failed_ms = 0.0
        self.overruns_ms = []
        self.hits = 0
        self.hit_ms = 0.0
        self.wall_s = 0.0

    def add(self, outcome: str, latency_s: float, cost_s: float,
            overrun_ms: float = None) -> None:
        self.outcomes[outcome] += 1
        self.latencies_ms.append(latency_s * 1000.0)
        self.cost_ms.append(cost_s * 1000.0)
        if outcome in KNOWN_LIMITS or outcome in BROKEN:
            self.failed_ms += latency_s * 1000.0
        if overrun_ms is not None:
            self.overruns_ms.append(overrun_ms)

    def merge(self, other: "Tally") -> None:
        self.outcomes.update(other.outcomes)
        self.latencies_ms.extend(other.latencies_ms)
        self.cost_ms.extend(other.cost_ms)
        self.cost_s += other.cost_s
        self.failed_ms += other.failed_ms
        self.overruns_ms.extend(other.overruns_ms)
        self.hits += other.hits
        self.hit_ms += other.hit_ms
        self.wall_s += other.wall_s

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def answered(self) -> int:
        return sum(self.outcomes[o] for o in OK)

    @property
    def broken(self) -> int:
        return sum(self.outcomes[o] for o in BROKEN)

    @property
    def failed(self) -> int:
        return self.broken + sum(self.outcomes[o] for o in KNOWN_LIMITS)


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


# ---------------------------------------------------------------------
def _kib(path: str, field: str) -> int:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children() -> list:
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


class MemoryWatch:
    """Peak resident memory of this process plus its live workers.

    ``RUSAGE_CHILDREN`` only counts reaped children, so a sampler
    thread reads every live child's ``VmHWM`` (its own high-water
    mark) and keeps the largest sum over the children alive together.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.children_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="bench-memory")

    def __enter__(self) -> "MemoryWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.sample()
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        total = sum(_kib(f"/proc/{pid}/status", "VmHWM:")
                    for pid in children())
        self.children_kib = max(self.children_kib, total)

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self.children_kib) / 1024.0


def task_cpu_s(pid: int) -> float:
    """CPU time of every thread of a live process, in seconds.

    ``schedstat`` counts nanoseconds, where ``/proc/<pid>/stat`` counts
    10 ms ticks; a process that has exited counts 0.
    """
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


#: CPU milliseconds the reference kernel took on the 2-core host the
#: benchmark was written on, at its usual speed; costs are quoted for a
#: host that runs the kernel in this time.
REFERENCE_MS = 6.0
#: Seconds between speed samples; a shared host's speed drifts over
#: seconds, and a kernel run every 0.1 s costs about 6% of the CPU.
SAMPLE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("value", "key")

    def __init__(self, value, key) -> None:
        self.value = value
        self.key = key


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's style.

    The first half is object, tuple-key and dict traffic with a sort,
    as in scheduling and connection search; the second eliminates on
    sparse integer rows held in dicts, with ``gcd`` normalisation, as
    the tableau's pivots do.
    """
    table, cells = {}, []
    for i in range(1500):
        key = (i % 61, i % 17)
        cell = _Cell(i, key)
        table[key] = table.get(key, 0) + cell.value
        cells.append((cell.key, i))
    cells.sort()
    rows = [{j: (i * 7 + j * 3) % 11 - 5 for j in range(40) if (i + j) % 3}
            for i in range(48)]
    for step in range(6):
        pivot_row = rows[step]
        col = min(j for j, v in pivot_row.items() if v)
        pivot = pivot_row[col]
        for r, row in enumerate(rows):
            f = row.get(col, 0)
            if r == step or not f:
                continue
            new = {j: v * pivot for j, v in row.items()}
            for j, v in pivot_row.items():
                new[j] = new.get(j, 0) - f * v
            g = 0
            for v in new.values():
                g = gcd(g, v)
            rows[r] = {j: v // max(g, 1) for j, v in new.items() if v}
    return len(table) + sum(len(row) for row in rows)


class Speed:
    """How fast this host runs Python code right now.

    A shared host changes speed from one second to the next (other
    tenants, frequency scaling), by up to half, and CPU time counts
    that change as much as wall time does.  :meth:`sample` runs the
    reference kernel and returns :data:`REFERENCE_MS` over the median
    of the last three kernel times: a CPU time measured now, multiplied
    by it, is the CPU time at reference speed.  :meth:`factor` samples
    only when the last sample is older than :data:`SAMPLE_EVERY_S`.
    """

    def __init__(self) -> None:
        self.history = []
        self.at = None

    def sample(self) -> float:
        start = time.thread_time()
        reference_kernel()
        self.history.append(time.thread_time() - start)
        self.at = time.perf_counter()
        return self._factor()

    def factor(self) -> float:
        if self.at is None or time.perf_counter() - self.at >= SAMPLE_EVERY_S:
            return self.sample()
        return self._factor()

    def _factor(self) -> float:
        return REFERENCE_MS / 1000.0 / statistics.median(self.history[-3:])


#: One per process; forked workers inherit a copy and keep it fresh.
SPEED = Speed()


class ReferenceClock:
    """This thread's CPU seconds at reference speed, since creation.

    Used as a solve's deadline clock, which the solver reads every 64
    ticks: when :data:`SAMPLE_EVERY_S` of CPU have passed since the
    last sample,
    a reading re-samples the speed there, so a long solve is scaled by
    the speed it actually ran at.  The kernel's own CPU time is left
    out of the reading.  With ``wall`` the clock reads the monotonic
    wall clock instead, for a deadline the program keeps in wall time,
    and only samples on the side.
    """

    def __init__(self, wall: bool = False) -> None:
        self.wall = wall
        self.factor = SPEED.factor()
        self.raw = time.thread_time()
        self.next = self.raw + SAMPLE_EVERY_S
        self.total = 0.0

    def __call__(self) -> float:
        now = time.thread_time()
        self.total += (now - self.raw) * self.factor
        self.raw = now
        if now >= self.next:
            self.factor = SPEED.sample()
            self.raw = time.thread_time()
            self.next = self.raw + SAMPLE_EVERY_S
        return time.monotonic() if self.wall else self.total

    def stop(self) -> float:
        """The final CPU reading, with the last stretch scaled by the
        mean of the speeds measured before and after it."""
        now = time.thread_time()
        after = SPEED.factor()
        return self.total + (now - self.raw) * (self.factor + after) / 2


# ---------------------------------------------------------------------
#: Operations a phase needs so that ten samples lie beyond its p90.
MIN_OPS = 100


def merged(passes) -> Tally:
    total = Tally()
    for tally in passes:
        total.merge(tally)
    return total


def run_passes(seconds: float, trace: bool, workload):
    """Run whole passes of ``workload`` until ``seconds`` have elapsed
    and at least :data:`MIN_OPS` operations were measured.

    Returns the untraced and the traced pass tallies.  Untraced runs
    record nothing per layer.  A traced run alternates untraced and
    traced passes (the first pass, which fills caches, is untraced) and
    also returns the ``PERF`` delta and the workload counter delta of
    the traced passes only.
    """
    from repro.perf import PERF

    plain, traced = [], []
    delta = {"counters": {}, "timings": {}}
    counters = {}
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds \
            or sum(t.attempted for t in plain + traced) < MIN_OPS \
            or (trace and not traced):
        on = trace and index % 2 == 1
        workload.before_pass(index)
        if trace:
            layers.set_enabled(on)
        before, counted = PERF.snapshot(), workload.counters()
        tally = workload.run_pass(index)
        if on:
            step = PERF.delta_since(before)
            step["workload"] = {
                key: value - counted.get(key, 0)
                for key, value in workload.counters().items()}
            for kind, into in (("counters", delta["counters"]),
                               ("timings", delta["timings"]),
                               ("workload", counters)):
                for key, value in step[kind].items():
                    into[key] = into.get(key, 0) + value
            traced.append(tally)
        else:
            plain.append(tally)
        index += 1
    if trace:
        layers.set_enabled(False)
    return plain, traced, delta, counters


def overhead_ratio(plain, traced) -> float:
    """Traced ÷ untraced pass wall, medians over comparable passes
    (a later untraced pass is preferred to the cache-filling first)."""
    base = plain[1:] or plain
    return statistics.median(t.wall_s for t in traced) \
        / statistics.median(t.wall_s for t in base)


def end_to_end(passes, setup_s: float, peak_mb: float) -> dict:
    """Every end-to-end metric, as ``name -> (value, unit, samples)``.

    Rates and percentiles pool every operation of the run.  The gated
    rate and percentiles count
    CPU time at reference speed (see :class:`Tally` and
    :class:`Speed`): on a shared host the wall time of an operation
    includes waits for a processor held by other work, and both wall
    and CPU time move with the host's speed, which swamps the
    program's own cost.  The wall-clock figures are printed beside
    them.
    """
    total = merged(passes)
    n = total.attempted
    total_ms = sum(total.latencies_ms)
    return {
        "setup_s": (setup_s, "s", None),
        "ref_ops_per_cpu_s": (total.answered / total.cost_s, "ops/s", n),
        "ref_cpu_p50_ms": (percentile(total.cost_ms, 0.50), "ms", n),
        "ref_cpu_p90_ms": (percentile(total.cost_ms, 0.90), "ms", n),
        "ok_share": (total.answered / n, "ratio", n),
        "peak_rss_mb": (peak_mb, "MB", None),
        "throughput_per_s": (total.answered / total.wall_s, "ops/s", n),
        "latency_p50_ms": (percentile(total.latencies_ms, 0.50), "ms", n),
        "latency_p90_ms": (percentile(total.latencies_ms, 0.90), "ms", n),
        "error_rate": (total.failed / n, "ratio", n),
        # Share of operation time; for the sequential workloads this
        # equals failed wall time over the wall time of the phase.
        "wasted_time_share": (total.failed_ms / total_ms if total_ms
                              else 0.0, "ratio", n),
    }
