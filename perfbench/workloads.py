"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, which
the runner repeats to time set-up; :meth:`run_pass` performs one pass
of operations and returns its :class:`common.Tally`; after the timed
phase :meth:`verify` checks every distinct successful result once.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace

from repro.check.fuzz import generate_cases
from repro.core import flow
from repro.errors import ReproError
from repro.explore import Executor, ResultCache, SweepSpec
from repro.explore.worker import resolve_timing
from repro.robustness import BudgetExhausted, SolveBudget
from repro.robustness.budget import BudgetToken
from repro.robustness.deadline import Deadline
from repro.service.catalog import design_space

import capture
import common
from common import OK, SPEED, ReferenceClock, Tally

NPROC = os.cpu_count() or 1


def solve(graph, partitioning, timing, rate, deadline_ms, **options):
    """One in-process ``synthesize`` call: (outcome, result, seconds,
    cost in seconds, overrun_ms).

    The deadline is ``deadline_ms`` of CPU time at reference speed (see
    ``common.ReferenceClock``), so neither the load other work puts on
    the host nor its speed decides which inputs run out of budget; the
    cost and the overrun are in the same units.
    """
    start = time.perf_counter()
    result = None
    overrun = None
    clock = ReferenceClock()
    token = BudgetToken(SolveBudget(deadline_ms=deadline_ms),
                        Deadline(deadline_ms, clock=clock))
    try:
        result = flow.synthesize(graph, partitioning, timing, rate,
                                 budget=token, **options)
        outcome = "degraded" if result.degraded else "ok"
    except BudgetExhausted:
        outcome = "budget_exhausted"
    except ReproError:
        outcome = "rejected"
    except Exception:  # an unexpected crash is a failed operation
        outcome = "error"
    cost = clock.stop()
    elapsed = time.perf_counter() - start
    if outcome == "budget_exhausted":
        overrun = cost * 1000.0 - deadline_ms
    return outcome, result, elapsed, cost, overrun


class InProcess:
    """Sequential in-process solves over a fixed list of inputs.

    Every pass solves all inputs in a seed-shuffled order.  The first
    successful result of each input is kept for :meth:`verify`; later
    passes must reproduce its metrics exactly.
    """

    deadline_ms = 5000.0
    options = {}
    clients = 1
    workers = 0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.first = {}
        self.problems = []

    def inputs(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.items = self.inputs()

    def before_pass(self, index: int) -> None:
        pass

    def run_pass(self, index: int) -> Tally:
        order = list(range(len(self.items)))
        random.Random(f"{self.seed}:{index}").shuffle(order)
        tally = Tally()
        start = time.perf_counter()
        for i in order:
            label, graph, partitioning, timing, rate = self.items[i]
            outcome, result, seconds, cost, overrun = solve(
                graph, partitioning, timing, rate, self.deadline_ms,
                **self.options)
            tally.add(outcome, seconds, cost, overrun)
            tally.cost_s += cost
            if result is None:
                continue
            metrics = capture.qor(result)
            if label not in self.first:
                self.first[label] = (result, metrics)
            elif self.first[label][1] != metrics:
                self.problems.append(
                    f"{label}: pass {index} gave {metrics}, first pass "
                    f"gave {self.first[label][1]}")
        tally.wall_s = time.perf_counter() - start
        return tally

    def verify(self):
        problems = list(self.problems)
        for label, (result, _) in sorted(self.first.items()):
            problems.extend(f"{label}: {p}" for p in capture.verify(result))
        return problems

    def qor(self):
        pins = sum(m["total_pins"] for _, m in self.first.values())
        pipe = sum(m["latency"] for _, m in self.first.values())
        return pins, pipe

    def counters(self):
        return {}

    def teardown(self) -> None:
        pass


class SynthIlp(InProcess):
    """Chapter 3 simple-flow built-ins at the paper's rate, L = 2."""

    designs = ("ar-stacked-4", "ar-stacked-2", "ar-simple", "fir", "dct")
    rate = 2

    def inputs(self):
        items = []
        for name in self.designs:
            space = design_space(name)
            items.append((name, space.graph, space.partitioning,
                          resolve_timing(space.timing), self.rate))
        return items


class FuzzAuto(InProcess):
    """``flow="auto"`` over the fuzz stream under a 1 s deadline.

    The population is the first 200 cases of the stream named
    ``bench``; the seed shuffles their order in each pass.  Cases whose
    solve runs away take most of the wall time, so drawing a new
    population per seed would make throughput depend on how many
    runaways a seed happens to draw rather than on the program.
    """

    deadline_ms = 1000.0
    options = {"flow": "auto"}
    stream, cases = "bench", 200

    def inputs(self):
        timing = resolve_timing("ar")
        items = []
        for case in generate_cases(self.stream, self.cases):
            graph, partitioning = case.build()
            items.append((f"case-{case.seed}", graph, partitioning,
                          timing, case.rate))
        return items


# ---------------------------------------------------------------------
class Captured:
    """Workloads whose solves run in forked workers."""

    #: Whether workers stamp each job with its cost (see capture.py).
    costed = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.captures = os.path.join(scratch, "results")
        os.makedirs(self.captures, exist_ok=True)
        capture.install(self.captures, cost=self.costed)
        self.reported = {}
        self.totals = {}

    def note(self, key: str, metrics) -> None:
        """Remember the metrics the program reported for a key."""
        if metrics:
            entry = tuple(sorted((k, metrics.get(k))
                                 for k in capture.QOR_KEYS))
            self.reported.setdefault(key, set()).add(entry)

    def verify(self):
        problems = []
        for key, entries in sorted(self.reported.items()):
            result = capture.load(self.captures, key)
            if result is None:
                problems.append(f"{key[:12]}: no captured result")
                continue
            for entry in entries:
                problems.extend(f"{key[:12]}: {p}" for p in
                                capture.verify(result, dict(entry)))
        return problems

    def qor(self):
        pins = pipe = 0
        for entries in self.reported.values():
            entry = dict(next(iter(entries)))
            pins += entry["total_pins"]
            pipe += entry["latency"]
        return pins, pipe


class ExploreBus(Captured):
    """Chapters 4-6 explorer sweep with fork workers and a fresh cache.

    Grid per design: connection-first with sub-buses off and on, plus
    schedule-first (which has no sub-bus option), at three rates and
    pin_scale 1.0 and 0.9.  ``prune_dominated=False`` keeps the work of
    a pass independent of which job finishes first.
    """

    grid = (("ar-general", (3, 4, 5)), ("ar-general-bidir", (3, 4, 5)),
            ("elliptic", (6, 7, 8)))
    job_ms = 5000.0
    clients = 1
    costed = True

    @property
    def workers(self):
        return NPROC

    def setup(self) -> None:
        jobs, seen = [], set()
        for name, rates in self.grid:
            space = design_space(name)
            for spec in (
                    SweepSpec(axes={"rate": list(rates),
                                    "pin_scale": [1.0, 0.9],
                                    "subbus_sharing": [False, True]},
                              base={"flow": "connection-first"}),
                    SweepSpec(axes={"rate": list(rates),
                                    "pin_scale": [1.0, 0.9]},
                              base={"flow": "schedule-first"})):
                for job in spec.expand(space):
                    if job.key not in seen:
                        seen.add(job.key)
                        jobs.append(job)
        self.jobs = jobs

    def run_pass(self, index: int) -> Tally:
        order = list(range(len(self.jobs)))
        random.Random(f"{self.seed}:{index}").shuffle(order)
        jobs = [replace(self.jobs[i], index=n)
                for n, i in enumerate(order)]
        path = os.path.join(self.scratch, f"sweep-{index}.jsonl")
        executor = Executor(workers=self.workers, cache=ResultCache(path),
                            prune_dominated=False,
                            deadline_ms=self.job_ms * len(jobs)
                            / self.workers)
        factor = SPEED.factor()
        start = time.perf_counter()
        cpu = time.process_time()
        result = executor.run(jobs)
        tally = Tally()
        tally.wall_s = time.perf_counter() - start
        # The parent's share (dispatch, cache writes, merging) plus the
        # jobs' own, which the workers measured.
        tally.cost_s = (time.process_time() - cpu) \
            * (factor + SPEED.factor()) / 2
        os.remove(path)
        for name in ("hits", "misses"):
            self.totals[f"explore.cache_{name}"] = self.totals.get(
                f"explore.cache_{name}", 0) + result.cache_stats[name]
        answered = {self._sibling(p["params"]) for p in result.points
                    if p.get("status") in OK}
        for point in result.points:
            outcome = self._outcome(point, answered)
            overrun = None
            if outcome == "budget_exhausted":
                overrun = point["wall_ms"] - self.job_ms
            cost = point.get("bench_cost_ms", 0.0) / 1000.0
            tally.add(outcome, point.get("wall_ms", 0.0) / 1000.0, cost,
                      overrun)
            tally.cost_s += cost
            if outcome in OK:
                self.note(point["key"], point.get("metrics"))
        return tally

    @staticmethod
    def _sibling(params):
        return tuple(sorted((k, repr(v)) for k, v in params.items()
                            if k != "subbus_sharing"))

    def _outcome(self, point, answered) -> str:
        status = point.get("status")
        if status in OK or status in ("budget_exhausted", "invalid"):
            return status
        if status != "error":
            return "lost"          # pruned / skipped: must not happen
        if "Traceback" in point.get("error", ""):
            return "error"
        params = point["params"]
        if params.get("subbus_sharing") \
                and self._sibling(params) in answered:
            # Sub-buses only add sharing options, so a point that
            # schedules without them must not fail with them.
            return "known_defect"
        return "rejected"

    def counters(self):
        return dict(self.totals)

    def before_pass(self, index: int) -> None:
        pass

    def teardown(self) -> None:
        pass


class ServeMixed(Captured):
    """A blocking client in a closed loop against an in-process cluster.

    Front tier, two shards with one process-mode worker each, and a
    shared cache server.  Each pass of 100 requests holds 80 repeats of
    hot catalog points (10 each), 18 fresh ``(design, rate, pin_scale)``
    points and 2 small sweeps; the seed draws the fresh pin scales and
    the order.  Every pass after the first gets a new fleet with an
    empty cache file and oracle store, so each pass does the same kind
    of work and memory does not grow with the number of passes that
    fit in a run.  One client sends one request at a time, so the CPU the
    process tree spends while a request is in flight is that request's.
    """

    hot = (("ar-simple", 2), ("fir", 2), ("fir", 3), ("dct", 2),
           ("ar-stacked-2", 2), ("ar-general", 4),
           ("ar-general-bidir", 4), ("elliptic", 6))
    #: (design, rate, requests per pass)
    fresh = (("ar-simple", 2, 6), ("fir", 2, 3), ("fir", 3, 2),
             ("dct", 2, 3), ("dct", 3, 2), ("ar-general", 4, 2))
    sweeps = (("fir", {"rate": [2, 3]}),
              ("ar-simple", {"rate": [2], "pin_scale": [1.0, 1.5]}))
    n_hot = 80
    shards = 2
    timeout_ms = 2000.0

    clients = 1
    workers = 2

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.used = set()

    def setup(self) -> None:
        from repro.cluster import (ClusterConfig, ShardAddress,
                                   ThreadedCacheServer, ThreadedFrontTier)
        from repro.service import (ServiceClient, ServiceConfig,
                                   ShardIdentity, ThreadedServer)

        cache_file = os.path.join(self.scratch, "cache-server.jsonl")
        if os.path.exists(cache_file):
            os.remove(cache_file)
        self.cache_server = ThreadedCacheServer(
            ResultCache(cache_file)).start()
        self.shard_servers = []
        for index in range(self.shards):
            self.shard_servers.append(ThreadedServer(ServiceConfig(
                port=0, workers=1, pool_mode="process", cache_sync=False,
                cache_path=f"remote://{self.cache_server.address}",
                job_runner=capture.run_job,
                default_timeout_ms=self.timeout_ms,
                shard=ShardIdentity(f"shard-{index}", index,
                                    self.shards))).start())
        self.front = ThreadedFrontTier(ClusterConfig(
            shards=tuple(ShardAddress(f"shard-{i}", "127.0.0.1", s.port)
                         for i, s in enumerate(self.shard_servers)),
            port=0, cache_address=self.cache_server.address,
            default_timeout_ms=self.timeout_ms)).start()
        self.client = ServiceClient(port=self.front.port, timeout_s=60.0)
        deadline = time.monotonic() + 30.0
        while not all(s.up for s in self.front.front.shards.values()):
            if time.monotonic() > deadline:
                raise ReproError("cluster never became ready")
            time.sleep(0.01)
        self.client.wait_until_ready()

    def _fresh_scale(self, name: str, rate: int) -> float:
        from repro.explore.spec import scale_pins
        partitioning = design_space(name).partitioning
        while True:
            scale = round(self.rng.uniform(1.0, 2.0), 3)
            budgets = scale_pins(partitioning, scale)
            ident = (name, rate, repr(budgets))
            if ident not in self.used:
                self.used.add(ident)
                return scale

    def plan(self, index: int):
        requests = [("synthesize", name, rate, None)
                    for name, rate in self.hot
                    for _ in range(self.n_hot // len(self.hot))]
        for name, rate, count in self.fresh:
            requests += [("synthesize", name, rate,
                          self._fresh_scale(name, rate))
                         for _ in range(count)]
        requests += [("sweep", name, axes, None)
                     for name, axes in self.sweeps]
        self.rng.shuffle(requests)
        return requests

    def _call(self, request):
        from repro.service.client import ServiceError, ServiceUnavailable
        kind, name, arg, scale = request
        try:
            if kind == "sweep":
                response = self.client.sweep(
                    name, axes=arg, timeout_ms=self.timeout_ms)
            else:
                params = {} if scale is None else {"pin_scale": scale}
                response = self.client.synthesize(
                    name, rate=arg, timeout_ms=self.timeout_ms, **params)
        except ServiceUnavailable:
            return "shed", None
        except (ServiceError, OSError):
            return "lost", None
        return self._outcome(response), response

    @staticmethod
    def _outcome(response) -> str:
        status = response.get("status")
        if status == "error":
            return "rejected"
        if status in OK or status in ("budget_exhausted", "invalid"):
            return status
        return "lost"

    def before_pass(self, index: int) -> None:
        if index:
            self.teardown()
            self.setup()

    def run_pass(self, index: int) -> Tally:
        tally = Tally()
        responses = []
        start = time.perf_counter()
        for request in self.plan(index):
            factor = SPEED.factor()
            began = time.perf_counter()
            cpu = self._tree_cpu()
            outcome, response = self._call(request)
            seconds = time.perf_counter() - began
            cpu = sum(after - cpu.get(pid, 0.0)
                      for pid, after in self._tree_cpu().items())
            cost = cpu * (factor + SPEED.factor()) / 2
            tally.add(outcome, seconds, cost)
            tally.cost_s += cost
            if response is not None:
                responses.append(response)
                if response.get("cached") is True:
                    tally.hits += 1
                    tally.hit_ms += seconds * 1000.0
        tally.wall_s = time.perf_counter() - start
        for response in responses:
            for point in response.get("points") or [response]:
                if point.get("status") in OK and "key" in point:
                    self.note(point["key"], point.get("metrics"))
        return tally

    @staticmethod
    def _tree_cpu():
        """CPU seconds of this process (key 0) and each live worker."""
        cpu = {pid: common.task_cpu_s(pid) for pid in common.children()}
        cpu[0] = time.process_time()
        return cpu

    def counters(self):
        totals = {f"front.{key}": value for key, value in
                  self.front.front.metrics.snapshot()["counters"].items()}
        for shard in self.shard_servers:
            for key, value in shard.service.metrics.snapshot()[
                    "counters"].items():
                totals[f"service.{key}"] = totals.get(
                    f"service.{key}", 0) + value
        return totals

    def oracle_entries(self) -> int:
        return sum(s.service.oracle.stats()["entries"]
                   for s in self.shard_servers)

    def teardown(self) -> None:
        front = getattr(self, "front", None)
        if front is None:
            return
        front.stop()
        for shard in self.shard_servers:
            shard.stop()
        self.cache_server.stop()
        self.front = None


WORKLOADS = {"synth-ilp": SynthIlp, "explore-bus": ExploreBus,
             "fuzz-auto": FuzzAuto, "serve-mixed": ServeMixed}
