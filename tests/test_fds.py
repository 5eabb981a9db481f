"""Tests for force-directed scheduling (Chapter 5)."""

import pytest

from repro.cdfg import CdfgBuilder
from repro.cdfg.analysis import UnitTiming
from repro.errors import SchedulingError
from repro.modules.library import ar_filter_timing, elliptic_filter_timing
from repro.scheduling import ForceDirectedScheduler, measured_resources


def parallel_adds(n=4):
    b = CdfgBuilder()
    src = b.op("s", "add", 1)
    for i in range(n):
        b.op(f"a{i}", "add", 1, inputs=[src])
    return b.build()


class TestBalancing:
    def test_spreads_parallel_ops(self):
        # 4 independent adds, frames [1, 4] at pipe 5, L=2: balancing
        # should use both groups with at most 2 per group.
        g = parallel_adds(4)
        s = ForceDirectedScheduler(g, UnitTiming(), 2, 5).run()
        usage = measured_resources(s)
        assert usage[(1, "add")] <= 3  # balanced, not all-in-one-group

    def test_respects_pipe_length(self):
        g = parallel_adds(2)
        s = ForceDirectedScheduler(g, UnitTiming(), 2, 3).run()
        assert s.pipe_length <= 3
        assert s.verify() == []

    def test_infeasible_pipe_raises(self):
        b = CdfgBuilder()
        prev = b.op("n0", "add", 1)
        for i in range(1, 5):
            prev = b.op(f"n{i}", "add", 1, inputs=[prev])
        g = b.build()
        with pytest.raises(SchedulingError):
            ForceDirectedScheduler(g, UnitTiming(), 2, 3).run()


class TestRecursion:
    def test_loop_constraint_respected(self):
        b = CdfgBuilder()
        x = b.op("x", "add", 1)
        y = b.op("y", "add", 1, inputs=[x])
        z = b.op("z", "add", 1, inputs=[y])
        b.recursive(z, x, degree=1)
        g = b.build()
        s = ForceDirectedScheduler(g, UnitTiming(), 4, 6).run()
        assert s.step("z") - s.step("x") <= 3
        assert s.verify() == []


class TestChainingLegalization:
    def test_chained_design_schedules(self):
        b = CdfgBuilder()
        i = b.inp("i", partition=1)
        m = b.op("m", "mul", 1, inputs=[i])
        a = b.op("a", "add", 1, inputs=[m])
        b.out("o", a, partition=1)
        g = b.build()
        s = ForceDirectedScheduler(g, ar_filter_timing(), 2, 4).run()
        assert s.verify() == []

    def test_multicycle_design(self):
        b = CdfgBuilder()
        i = b.inp("i", partition=1, bit_width=16)
        m = b.op("m", "mul", 1, inputs=[i], bit_width=16)
        a = b.op("a", "add", 1, inputs=[m], bit_width=16)
        b.out("o", a, partition=1, bit_width=16)
        g = b.build()
        s = ForceDirectedScheduler(g, elliptic_filter_timing(), 3, 6).run()
        assert s.verify() == []
        assert s.step("a") >= s.step("m") + 2


class TestBenchmarks:
    def test_elliptic_feasible_at_rate_5(self):
        # The boundary case: list scheduling fails at rate 5, FDS
        # succeeds (Section 4.4.2 vs Chapter 5).
        from repro.designs import elliptic_design
        g = elliptic_design()
        s = ForceDirectedScheduler(g, elliptic_filter_timing(), 5, 24).run()
        assert s.verify() == []

    def test_ar_general_at_rate_3(self):
        from repro.designs import ar_general_design
        g = ar_general_design()
        s = ForceDirectedScheduler(g, ar_filter_timing(), 3, 8).run()
        assert s.verify() == []


def _grid_row(result):
    """(pipe, pins per chip, adders, multipliers) as Tables 5.1/5.3
    print them."""
    adders = sum(n for (_, t), n in result.resources.items() if t == "add")
    muls = sum(n for (_, t), n in result.resources.items() if t == "mul")
    return result.pipe_length, result.pins_used(), adders, muls


class TestGoldenChoices:
    """FDS choices pinned to the committed Chapter 5 tables, so a
    change to the force arithmetic (even the order of its float
    additions) that flips a tie shows up here."""

    # benchmarks/results/table5.1_fds_grid.txt, rate 4.
    @pytest.mark.parametrize("budget, pipe, pins, adders, muls", [
        (6, 6, (136, 120, 64, 80), 6, 9),
        (7, 7, (100, 84, 64, 72), 4, 6),
        (8, 8, (88, 80, 64, 48), 4, 7),
        (9, 8, (96, 80, 56, 80), 5, 8),
        (10, 10, (92, 68, 56, 64), 6, 6),
    ])
    def test_table_5_1_rate_4(self, budget, pipe, pins, adders, muls):
        from repro import synthesize_schedule_first
        from repro.designs import AR_GENERAL_PINS_UNIDIR, ar_general_design
        result = synthesize_schedule_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 4, pipe_length=budget)
        got_pipe, got_pins, got_adders, got_muls = _grid_row(result)
        assert (got_pipe, tuple(got_pins[i] for i in range(4)),
                got_adders, got_muls) == (pipe, pins, adders, muls)

    # benchmarks/results/table5.3_fds_grid.txt, rate 6.
    @pytest.mark.parametrize("budget, pipe, pins, adders, muls", [
        (22, 22, 288, 8, 7),
        (23, 23, 288, 8, 6),
        (24, 24, 320, 7, 6),
        (25, 25, 288, 8, 6),
        (26, 25, 272, 6, 6),
    ])
    def test_table_5_3_rate_6(self, budget, pipe, pins, adders, muls):
        from repro import synthesize_schedule_first
        from repro.designs import ELLIPTIC_PINS_UNIDIR, elliptic_design
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 6, pipe_length=budget)
        got_pipe, got_pins, got_adders, got_muls = _grid_row(result)
        assert (got_pipe, sum(got_pins.values()), got_adders,
                got_muls) == (pipe, pins, adders, muls)

    def test_rerun_on_one_instance_is_identical(self):
        # The per-placement memos must be reset, not carried over from
        # the previous run's last placement.
        from repro.designs import ar_general_design
        graph = ar_general_design()
        scheduler = ForceDirectedScheduler(graph, ar_filter_timing(), 4, 8)
        first = scheduler.run()
        second = scheduler.run()
        fresh = ForceDirectedScheduler(graph, ar_filter_timing(), 4, 8).run()
        for other in (second, fresh):
            assert other.start_step == first.start_step
            assert other.start_ns == first.start_ns
