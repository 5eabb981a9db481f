"""Capture finished results inside solve workers; verify them later.

Explorer and service workers return plain-data records, not results,
so the benchmark replaces the job function they run (the explorer's
module-level ``run_job`` and the service's ``job_runner``) with
:func:`run_job` below.  It runs the real job and pickles the
``SynthesisResult`` of each successful, not yet captured content key
into a directory, which the parent reads back after the timed phase.
Pickling one result costs about a millisecond next to a 10 ms to 1 s
solve.  For the explorer the wrapper also stamps each record with the
job's CPU time at reference speed (``bench_cost_ms``, see
``common.ReferenceClock``).

:func:`verify` then runs each distinct result once through the
design-rule checker and the cycle-accurate simulator, and compares the
metrics the program reported with the captured result's.
"""

from __future__ import annotations

import os
import pickle
import time

from repro.check.rules import check_result, enforceable_violations
from repro.core import flow
from repro.explore import executor, worker
from repro.sim.pipeline import simulate_result

import layers
from repro.robustness.budget import BudgetToken
from repro.robustness.deadline import Deadline

from common import OK, ReferenceClock

#: Metrics compared between a record and its captured result.
QOR_KEYS = ("chips", "buses", "total_pins", "latency")

_DIR = None
_COST = False
_CLOCK = None
_LAST = []
_RUN_JOB = worker.run_job


def install(directory: str, cost: bool = False) -> None:
    """Route explorer jobs through :func:`run_job` (before any fork).

    ``cost`` stamps records with ``bench_cost_ms``.  A service worker
    leaves it off: its requests are costed by the CPU of the whole
    process tree, which would count the speed kernel's runs too.
    """
    global _DIR, _COST
    _DIR = directory
    _COST = cost
    worker.synthesize = _synthesize
    executor.run_job = run_job


def _synthesize(*args, budget=None, **kwargs):
    if _CLOCK is not None and budget is not None:
        # The same wall-clock deadline, read through the cost clock so
        # that a long job samples the host's speed while it runs.
        budget = BudgetToken(budget, Deadline(budget.deadline_ms,
                                              clock=_CLOCK))
    result = flow.synthesize(*args, budget=budget, **kwargs)
    _LAST.append(result)
    return result


def run_job(payload):
    """The explorer's ``run_job``, plus result capture."""
    global _CLOCK
    _LAST.clear()
    start = time.perf_counter()
    if _COST:
        _CLOCK = ReferenceClock(wall=True)
    try:
        record = _RUN_JOB(payload)
    finally:
        clock, _CLOCK = _CLOCK, None
    if clock is not None:
        record["bench_cost_ms"] = clock.stop() * 1000.0
    if layers.ENABLED is not None and layers.ENABLED.value:
        # run_job computed its perf delta before returning; add its own
        # wall time to the delta that travels back to the parent.
        wall = time.perf_counter() - start
        perf = record.setdefault("perf", {})
        timings = perf.setdefault("timings", {})
        timings["bench.wall.explore.run_job"] = wall
    if _LAST and record.get("status") in OK:
        path = os.path.join(_DIR, f"{record['key']}.pkl")
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as handle:
                pickle.dump(_LAST[-1], handle)
            os.replace(tmp, path)
    _LAST.clear()
    return record


def load(directory: str, key: str):
    """A captured result (written by this benchmark's own workers)."""
    path = os.path.join(directory, f"{key}.pkl")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return pickle.load(handle)


def qor(result):
    """Quality of result, read from the result itself."""
    interconnect = result.interconnect
    if interconnect is None and result.simple_allocation is not None:
        interconnect = result.simple_allocation.interconnect
    return {"chips": len(result.partitioning.real_chips()),
            "buses": 0 if interconnect is None else len(interconnect.buses),
            "total_pins": sum(result.pins_used().values()),
            "latency": result.pipe_length}


def verify(result, reported=None):
    """Problems with one result: rule violations, a simulation
    mismatch, or reported metrics that differ from the result's."""
    problems = []
    report = check_result(result)
    for violation in enforceable_violations(result, report)[:3]:
        problems.append(f"check [{violation.rule}] {violation.message}")
    try:
        simulate_result(result)
    except Exception as exc:  # any simulator failure is a finding
        problems.append(f"simulate: {type(exc).__name__}: {exc}")
    if reported is not None:
        actual = qor(result)
        for key in QOR_KEYS:
            if key in reported and reported[key] != actual[key]:
                problems.append(f"reported {key}={reported[key]} but "
                                f"result has {actual[key]}")
    return problems
