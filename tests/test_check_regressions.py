"""Pinned regressions for bugs the unified checker / fuzzer surfaced.

Each test here encodes one concrete bug found by the Issue-5 checking
campaign, reduced to its smallest reproduction, so the fix cannot
silently rot.
"""

import threading
from fractions import Fraction

import pytest

from repro.cdfg import CdfgBuilder
from repro.check import check_result, run_case
from repro.check.fuzz import FuzzCase
from repro.core.flow import synthesize
from repro.core.interconnect import Bus, Interconnect
from repro.core.oracle_store import OracleStore
from repro.designs.random_designs import random_partitioned_design
from repro.errors import ReproError, SchedulingError
from repro.explore.cache import ResultCache
from repro.graphs import hungarian_max_weight
from repro.modules.library import (DesignTiming, HardwareModule, ModuleSet,
                                   ar_filter_timing)
from repro.partition.model import ChipSpec, Partitioning
from repro.scheduling import ForceDirectedScheduler
from repro.service.client import (MAX_DATE_RETRY_AFTER_S,
                                  parse_retry_after)


# ---------------------------------------------------------------------
# Bug: ConnectionSearch ignored fixed input/output pin splits — it
# budgeted only the total pin pool, so a chip declared with
# ``output_pins=4`` could come back wired with 8+ output pins, and its
# own ``verify()`` (which also only checked totals) waved the invalid
# result through.  Found by the fixed-split fuzz cases.
# ---------------------------------------------------------------------
def _split_design(output_pins):
    return random_partitioned_design(7, n_chips=2, widths=(8,),
                                     pin_budget=64,
                                     output_pins=output_pins)


def test_connection_first_honors_fixed_split():
    graph, pins = _split_design(output_pins=4)
    try:
        result = synthesize(graph, pins, ar_filter_timing(), 2,
                            flow="connection-first")
    except ReproError:
        return  # an honest give-up/proof beats a silently-bad result
    report = check_result(result)
    assert "pin-split" not in report.by_rule(), report.messages()
    assert "pin-step" not in report.by_rule(), report.messages()


def test_connection_first_loose_split_is_clean():
    graph, pins = _split_design(output_pins=24)
    result = synthesize(graph, pins, ar_filter_timing(), 2,
                        flow="connection-first")
    assert check_result(result).ok


def test_subbus_search_honors_fixed_split():
    graph, pins = _split_design(output_pins=4)
    try:
        result = synthesize(graph, pins, ar_filter_timing(), 2,
                            flow="connection-first",
                            subbus_sharing=True)
    except ReproError:
        return
    report = check_result(result)
    assert "pin-split" not in report.by_rule(), report.messages()


def test_check_budget_reports_split_overruns():
    # Interconnect.check_budget previously only compared totals.
    pins = Partitioning({
        0: ChipSpec(64),
        1: ChipSpec(64, input_pins=60, output_pins=4),
    })
    inter = Interconnect([Bus(1, out_widths={1: 8}, in_widths={0: 8})])
    problems = inter.check_budget(pins)
    assert any("output-pin budget" in p for p in problems)
    # The wording carries "budget" so the schedule-first flow files it
    # under its declared overruns instead of hard-failing.
    assert all("budget" in p for p in problems)


def test_pins_used_split():
    inter = Interconnect([
        Bus(1, out_widths={1: 8}, in_widths={2: 8}),
        Bus(2, out_widths={1: 4}, in_widths={1: 16}),
    ])
    assert inter.pins_used_split(1) == (12, 16)
    assert inter.pins_used_split(2) == (0, 8)


# ---------------------------------------------------------------------
# Bug: the oracle flagged "simple proved infeasible but
# connection-first produced a clean result" as a disagreement.  The
# Chapter 3 ILP bakes in disjoint external/interchip pin nets, so its
# proof does not cover general-bus-model results (fuzz case
# issue5:15 reduced).
# ---------------------------------------------------------------------
def test_chapter3_proof_not_refuted_by_general_result():
    case = FuzzCase(seed=598335, n_chips=2, n_ops=14, widths=(8, 16),
                    pin_budget=96, bidirectional=False,
                    output_pins=24, rate=2)
    result = run_case(case, timeout_ms=15000)
    assert not result.failed, result.oracle.to_dict()
    outcomes = {o.flow: o.outcome for o in result.oracle.outcomes}
    # The interesting shape must still be present, else this test
    # degenerates: simple proves infeasible, connection-first solves.
    assert outcomes.get("simple") in ("infeasible", "budget")
    assert outcomes.get("connection-first") in ("ok", "budget")


# ---------------------------------------------------------------------
# Satellite (b): ServiceClient crashed on a missing or non-numeric
# Retry-After header (int(None) / int("Sat, 01 Jan...")).
# ---------------------------------------------------------------------
@pytest.mark.parametrize("value,expected", [
    (None, 1),
    ("3", 3),
    (" 2 ", 2),
    ("2.7", 2),
    ("0", 1),
    ("0.2", 1),
    ("-5", 1),
    ("nan", 1),
    ("inf", 1),
    ("soon", 1),
])
def test_parse_retry_after(value, expected):
    assert parse_retry_after(value) == expected


def test_parse_retry_after_custom_default():
    assert parse_retry_after(None, default=5) == 5
    assert parse_retry_after("junk", default=5) == 5
    assert parse_retry_after("2", default=5) == 5


# ---------------------------------------------------------------------
# Satellite (issue 10): parse_retry_after fell back to 1s on RFC 9110
# HTTP-date values, so a client hammered a draining shard that asked
# for a 30s hold.  Dates are decoded via email.utils and measured
# against an injectable clock; far-future dates (clock skew, hostile
# proxies) are capped, past dates fall back to the default.
# ---------------------------------------------------------------------
#: Unix timestamp of Fri, 01 Jan 2027 00:00:00 GMT.
_NOW_2027 = 1798761600.0


@pytest.mark.parametrize("value,expected", [
    ("Fri, 01 Jan 2027 00:00:30 GMT", 30),
    ("Fri, 01 Jan 2027 00:02:00 GMT", 120),
    # IMF-fixdate is canonical, but RFC 5322 spellings parse too.
    ("1 Jan 2027 00:00:30 GMT", 30),
    # Already in the past: no hold, just the default.
    ("Thu, 31 Dec 2026 23:59:00 GMT", 1),
    # A year in the future: capped, not honored literally.
    ("Sat, 01 Jan 2028 00:00:00 GMT", MAX_DATE_RETRY_AFTER_S),
])
def test_parse_retry_after_http_date(value, expected):
    assert parse_retry_after(value, now=_NOW_2027) == expected


def test_parse_retry_after_http_date_real_clock():
    # Without an injected clock the fixed far-future pin still holds:
    # whatever today is, 2028 is capped (until it is the past, when
    # the default takes over — either way, never a literal year).
    assert parse_retry_after("Sat, 01 Jan 2028 00:00:00 GMT") \
        <= MAX_DATE_RETRY_AFTER_S


# ---------------------------------------------------------------------
# Satellite (c): ResultCache.compact() rewrote the file from the
# in-memory index alone, dropping records another thread appended
# between the file read and the os.replace.
# ---------------------------------------------------------------------
def test_compact_keeps_concurrent_appends(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ResultCache(path)
    for i in range(20):
        cache.put(f"warm{i}", {"status": "ok", "metrics": {"i": i}})

    stop = threading.Event()
    written = []

    def writer():
        i = 0
        while not stop.is_set():
            key = f"hot{i}"
            if cache.put(key, {"status": "ok", "metrics": {"i": i}}):
                written.append(key)
            i += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(10):
            summary = cache.compact()
            assert summary["compacted"]
    finally:
        stop.set()
        thread.join()

    reloaded = ResultCache(path)
    assert reloaded.corrupt_lines == 0
    for i in range(20):
        assert f"warm{i}" in reloaded
    for key in written:
        assert key in reloaded, f"compact dropped {key}"


def test_compact_merges_foreign_appends(tmp_path):
    # Another *process* (second handle on the same file) appends a
    # record this instance has never seen; compaction must keep it.
    path = str(tmp_path / "cache.jsonl")
    ours = ResultCache(path)
    ours.put("mine", {"status": "ok"})
    theirs = ResultCache(path)
    theirs.put("yours", {"status": "ok"})
    summary = ours.compact()
    assert summary["compacted"]
    reloaded = ResultCache(path)
    assert "mine" in reloaded and "yours" in reloaded


# ---------------------------------------------------------------------
# Campaign-found (issue 10, fault kind "cache-torn"): ResultCache.put
# appended straight after a torn last line (a crash mid-write leaves
# no trailing newline), welding the new record onto the fragment —
# on reload BOTH lines parsed as one corrupt line and a validly
# acknowledged write was silently gone.
# ---------------------------------------------------------------------
def test_put_survives_torn_trailing_line(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ResultCache(path)
    cache.put("before", {"status": "ok"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "key": "torn", "record":')  # no \n
    survivor = ResultCache(path)
    assert survivor.put("after", {"status": "ok"})

    reloaded = ResultCache(path)
    assert "before" in reloaded
    assert "after" in reloaded, "append welded onto the torn line"
    assert reloaded.corrupt_lines == 1  # only the fragment is lost


# ---------------------------------------------------------------------
# OracleStore had the same weld: record() appended straight after a
# crash-torn last line, so the reload lost the fresh verdict along
# with the fragment.
# ---------------------------------------------------------------------
def test_oracle_store_survives_torn_trailing_line(tmp_path):
    path = str(tmp_path / "oracle.jsonl")
    store = OracleStore(path)
    first = ("sig", (), "w1", 0)
    second = ("sig", (("w1", 0),), "w2", 1)
    store.record(first, (8, 8), True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "sig": "torn", "fp":')  # no \n
    OracleStore(path).record(second, (8, 8), False)

    reloaded = OracleStore(path)
    assert len(reloaded) == 2, "append welded onto the torn line"
    assert reloaded.lookup(first, (8, 8)) == (True, "exact")
    assert reloaded.lookup(second, (8, 8)) == (False, "exact")
    assert reloaded.corrupt_lines == 1  # only the fragment is lost


# ---------------------------------------------------------------------
# The fuzz corpus, the campaign corpus and the trace export appended
# straight after a crash-torn last line too, so the next record was
# welded onto the fragment and lost with it on reload.
# ---------------------------------------------------------------------
def _tear(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"seed": 7, "torn": tr')  # no newline


def test_fuzz_corpus_append_survives_torn_trailing_line(tmp_path):
    from types import SimpleNamespace

    from repro.check.fuzz import CaseResult, append_corpus, load_corpus

    path = str(tmp_path / "corpus.jsonl")
    _tear(path)
    oracle = SimpleNamespace(outcomes=[], disagreements=[],
                             checker_gaps=[])
    append_corpus(path, CaseResult(FuzzCase(seed=11), oracle))
    assert [case.seed for case in load_corpus(path)] == [11]


def test_campaign_corpus_append_survives_torn_trailing_line(tmp_path):
    from repro.check.campaign import (CampaignCase, CampaignCaseResult,
                                      append_campaign_corpus,
                                      load_campaign_corpus)

    path = str(tmp_path / "campaign.jsonl")
    _tear(path)
    append_campaign_corpus(path, CampaignCaseResult(
        CampaignCase(seed=5, design="ar-simple"), ["lost:x"]))
    assert [case.seed for case in load_campaign_corpus(path)] == [5]


def test_trace_export_survives_torn_trailing_line(tmp_path):
    from repro.obs.render import load_spans
    from repro.obs.trace import JsonlExporter

    path = str(tmp_path / "trace.jsonl")
    _tear(path)
    exporter = JsonlExporter(path)
    exporter.export({"trace_id": "t1", "span_id": "s1", "name": "a"})
    exporter.export({"trace_id": "t1", "span_id": "s2", "name": "b"})
    exporter.close()
    spans, corrupt = load_spans(path)
    assert [span["span_id"] for span in spans] == ["s1", "s2"]
    assert corrupt == 1  # only the fragment is lost


# ---------------------------------------------------------------------
# A shard that closed mid-body (or sent a malformed status line) made
# request_json raise IncompleteReadError / ValueError instead of the
# documented OSError: FrontTier.probe raised instead of returning
# False, call_shard skipped mark-down and failover (the caller got a
# 500), and the exception ended the background prober for good, so a
# recovered shard was never brought back.
# ---------------------------------------------------------------------
@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"st",
    b"HTTP/1.1 abc OK\r\n\r\n",
])
def test_truncated_shard_answer_marks_shard_down(reply):
    import asyncio

    from repro.cluster import ClusterConfig, FrontTier, ShardAddress
    from repro.cluster.front import ShardDown

    async def answer(reader, writer):
        await reader.readline()
        writer.write(reply)
        await writer.drain()
        writer.close()

    async def scenario():
        listener = await asyncio.start_server(answer, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        front = FrontTier(ClusterConfig(
            shards=(ShardAddress("s0", "127.0.0.1", port),),
            probe_interval_s=0.01))
        state = front.shards["s0"]
        try:
            assert await front.probe(state) is False
            state.healthy = True
            with pytest.raises(ShardDown):
                await front.call_shard(state, "GET", "/healthz", None)
            assert state.healthy is False
            assert front.metrics.snapshot()["counters"][
                "shard_errors"] == 1
            await front.start()
            await asyncio.sleep(0.1)  # several failing probe rounds
            assert not front._prober.done()
        finally:
            await front.drain()
            listener.close()
            await listener.wait_closed()

    asyncio.run(scenario())


# ---------------------------------------------------------------------
# Campaign-found (issue 10, fault kind "cache-kill"): write-through
# puts during a cache-server outage were dropped forever — after the
# server came back, results this shard solved during the outage never
# reached the shared cache, so other shards re-executed them
# (fleet-wide exactly-once violation seen by the campaign checker).
# ---------------------------------------------------------------------
def test_read_through_replays_unshipped_puts_on_reconnect():
    import time as _time

    from repro.cluster import ReadThroughCache, ThreadedCacheServer

    served = ThreadedCacheServer().start()
    port = served.port
    shared = served.cache
    mounted = ReadThroughCache(served.address, probe_interval_s=0.05)
    served.stop()

    solved = {"status": "ok", "metrics": {"total_pins": 1}}
    assert mounted.put("during-outage", solved)   # local only
    assert mounted.unshipped == 1

    revived = ThreadedCacheServer(shared, port=port).start()
    try:
        deadline = _time.monotonic() + 5.0
        while shared.get("during-outage") is None \
                and _time.monotonic() < deadline:
            _time.sleep(0.06)
            mounted.get("poke")  # any remote op re-probes + replays
        assert shared.get("during-outage") is not None, \
            "outage-era put never reached the recovered server"
        assert mounted.unshipped == 0
    finally:
        revived.stop()
        mounted.client.close()


# ---------------------------------------------------------------------
# Bug: ForceDirectedScheduler ignored Section 2.2's two-minor-clock
# rule (``DesignTiming.io_step_multiple``).  Every step of a transfer's
# frame was a candidate, so transfers landed on steps the I/O clock
# never starts on (steps 3 at L=2, pipe 4; steps 1 and 5 elsewhere),
# while ListScheduler has always gated them.
# ---------------------------------------------------------------------
def _minor_clock_timing(add_ns, chaining):
    return DesignTiming(100.0, default=ModuleSet.of(
        HardwareModule("adder", "add", add_ns)), io_delay_ns=10.0,
        chaining=chaining, io_step_multiple=2)


def _add_feeding_transfers():
    b = CdfgBuilder()
    s = b.op("s", "add", 1)
    for i in range(4):
        b.io(f"x{i}", f"v{i}", source=s, dests=[], source_partition=1,
             dest_partition=2, bit_width=8)
    return b.build()


@pytest.mark.parametrize("rate, pipe", [(2, 4), (2, 6), (4, 6), (4, 8)])
def test_fds_honors_io_minor_clock(rate, pipe):
    timing = _minor_clock_timing(90.0, chaining=False)
    schedule = ForceDirectedScheduler(_add_feeding_transfers(), timing,
                                      rate, pipe).run()
    steps = [schedule.step(f"x{i}") for i in range(4)]
    assert all(timing.io_step_allowed(step) for step in steps), steps


def test_fds_rejects_frames_without_a_minor_clock_step():
    # Pipe length 2 leaves the transfers only step 1, which the I/O
    # clock never starts on.
    timing = _minor_clock_timing(90.0, chaining=False)
    scheduler = ForceDirectedScheduler(_add_feeding_transfers(), timing,
                                       2, 2)
    with pytest.raises(SchedulingError, match="minor clock"):
        scheduler.run()


def test_fds_legalizer_refuses_disallowed_io_step():
    # a1 and a2 fixed in one step cannot chain (60 + 60 ns > 100 ns),
    # so legalization pushes a2 a step later and the transfer after it
    # from its allowed step 2 to step 3.
    b = CdfgBuilder()
    a1 = b.op("a1", "add", 1)
    a2 = b.op("a2", "add", 1, inputs=[a1])
    b.io("x", "v", source=a2, dests=[], source_partition=1,
         dest_partition=2, bit_width=8)
    scheduler = ForceDirectedScheduler(
        b.build(), _minor_clock_timing(60.0, chaining=True), 2, 6)
    with pytest.raises(SchedulingError, match="minor clock"):
        scheduler._legalize({"a1": 1, "a2": 1, "x": 2})


# ---------------------------------------------------------------------
# Bug: hungarian_max_weight scaled weights by (n + 1) before adding the
# one-edge tie-break unit, which only keeps weight ahead of cardinality
# for integer weights.  With weights in tenths, two zero-weight edges
# (a->y, b->x) beat one edge of weight 1/10 (a->x).
# ---------------------------------------------------------------------
def test_hungarian_weight_beats_cardinality_with_fractional_weights():
    weights = {("a", "x"): Fraction(1, 10), ("a", "y"): Fraction(0),
               ("b", "x"): Fraction(0)}
    result = hungarian_max_weight(["a", "b"], ["x", "y"],
                                  lambda u, v: weights.get((u, v)))
    assert result == {"a": "x"}
