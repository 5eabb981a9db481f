#!/usr/bin/env python3
"""The repository benchmark: real solves, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-ilp --seed 1 --seconds 25
    python3 perfbench/run.py --workload serve-mixed --trace 1
    python3 perfbench/run.py --workload all      # every workload in turn

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  Their timings are scaled to a reference speed, measured by
a fixed kernel run between operations (``common.Speed``): the rate and
percentiles count CPU time and set-up counts wall time, because a
shared host's speed and load swing by more than any bound a change
could be judged by.  Wall-clock throughput and latency are printed
beside them.  ``--trace 1`` wraps each layer's public entry points
(see ``layers.py``), alternates untraced and traced passes, and
reports the per-layer metrics and ``trace.overhead_ratio``.
Human-readable tables come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every distinct successful result is run once through the design-rule
checker and the cycle-accurate simulator after the timed phase; any
finding, an ``invalid`` answer or an unexpected exception makes the
command exit 1.  Set-up and import failures exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("synth-ilp", "explore-bus", "fuzz-auto", "serve-mixed")
#: End-to-end metrics in the result line (BENCHMARK.json order).
END_TO_END = ("setup_s", "ref_ops_per_cpu_s", "ref_cpu_p50_ms",
              "ref_cpu_p90_ms", "ok_share", "peak_rss_mb")
SETUP_REPEATS = 3
#: Speed samples taken after the timed phase, so that a workload whose
#: operations run in workers still has enough in this process.
SPEED_SAMPLES = 10
HASH_SEED = "0"
#: Address-space cap per process (workers inherit it): a solve that
#: runs away fails with MemoryError instead of exhausting the machine.
MEMORY_CAP = 3 << 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so memory peaks stay apart."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"=== {name}", flush=True)
        code = subprocess.call(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, code)
    return worst


def print_table(title, rows) -> None:
    print(title)
    for name, (value, unit, samples) in rows.items():
        count = "" if samples is None else f"  n={samples}"
        print(f"  {name:34s} {value:14.6g} {unit}{count}")


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The solvers iterate over hashed sets, so their work (pivots,
        # cuts, search order) varies with string hashing; a fixed hash
        # seed makes a run's work a function of --seed alone.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(
            __file__)] + (sys.argv[1:] if argv is None else argv), env)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    resource.setrlimit(resource.RLIMIT_AS, (
        MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    start = time.perf_counter()
    try:
        import common
        import layers
        import workloads
        import repro.cluster  # noqa: F401  (timed with the imports)
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    scratch = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    if args.trace:
        layers.install()
    try:
        with common.MemoryWatch() as memory:
            setups = []
            for _ in range(SETUP_REPEATS):
                workload.teardown()
                begin = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - begin)
            plain_passes, traced_passes, delta, counted = \
                common.run_passes(args.seconds, bool(args.trace), workload)
            for _ in range(SPEED_SAMPLES):
                common.SPEED.sample()
            oracle_entries = (workload.oracle_entries()
                              if hasattr(workload, "oracle_entries") else 0)
            workload.teardown()
        problems = workload.verify()
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it

    # Set-up is wall time, quoted at reference speed too: scaled by the
    # median speed of the whole run, which one sample taken in a
    # freshly started process would measure poorly.
    speed = common.REFERENCE_MS / 1000.0 / statistics.median(
        common.SPEED.history)
    setup_s = (import_s + statistics.median(setups)) * speed
    traced = common.merged(traced_passes)
    everything = common.merged(plain_passes + traced_passes)
    broken = everything.broken
    correct = not problems and everything.outcomes["invalid"] == 0 \
        and everything.outcomes["error"] == 0

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"clients={workload.clients} workers={workload.workers}")
    print(f"outcomes: {dict(sorted(everything.outcomes.items()))}")
    print(f"reference kernel: median "
          f"{statistics.median(common.SPEED.history) * 1000:.3f} ms over "
          f"{len(common.SPEED.history)} runs in this process "
          f"(reference speed: {common.REFERENCE_MS:g} ms)")
    print(f"setup runs (s): {[round(s, 4) for s in setups]} "
          f"+ imports {import_s:.4f}, times speed factor {speed:.4f}")
    metrics = {}
    if not args.trace:
        rows = common.end_to_end(plain_passes, setup_s, memory.peak_mb())
        pins, pipe = workload.qor()
        if args.workload in ("synth-ilp", "explore-bus"):
            rows["qor_pins_total"] = (pins, "pins", None)
            rows["qor_pipe_total"] = (pipe, "steps", None)
        print_table("end-to-end metrics:", rows)
        metrics = {name: {"value": rows[name][0], "unit": rows[name][1]}
                   for name in END_TO_END}
    else:
        n = traced.attempted
        service = {k[len("service."):]: v for k, v in counted.items()
                   if k.startswith("service.")}
        front = {k[len("front."):]: v for k, v in counted.items()
                 if k.startswith("front.")}
        # Explorer: lookups of the sweep cache.  Cluster: requests
        # answered from the result cache at the front or a shard.
        hits = counted.get("explore.cache_hits", 0) + traced.hits
        lookups = counted.get("explore.cache_hits", 0) \
            + counted.get("explore.cache_misses", 0) \
            + (n if args.workload == "serve-mixed" else 0)
        extra = {
            "budget_exhausted": traced.outcomes["budget_exhausted"],
            "overrun_ms": (statistics.mean(traced.overruns_ms)
                           if traced.overruns_ms else 0.0),
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "oracle_entries": oracle_entries,
            "service": service, "front": front,
            "hit_latency_ms": traced.hit_ms,
        }
        values = layers.per_layer(delta, n, extra)
        values["trace.overhead_ratio"] = common.overhead_ratio(
            plain_passes, traced_passes)
        rows = {name: (value, unit_of(name), n)
                for name, value in values.items()}
        print_table(f"per-layer metrics (mean per operation over {n} "
                    f"traced operations):", rows)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in rows.items()}
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({"correct": correct,
                      "attempted": everything.attempted,
                      "failed": broken + len(problems),
                      "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op" if not name.startswith("robustness.") else "ms"
    if name.endswith(("_ratio", "_share")) or name == "trace.overhead_ratio":
        return "ratio"
    if name == "solve.ms":
        return "ms/op"
    if name == "oracle_store.entries":
        return "count"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
