"""Every unified-checker rule must fire on a targeted corruption.

A checker that always returns a clean report would pass every flow
test; these tests take valid synthesis results, corrupt exactly the
invariant one rule guards, and demand a violation from that rule (and
a clean report beforehand).
"""

import pytest

from repro import synthesize, synthesize_connection_first
from repro.check import CheckError, check_result, rule_names
from repro.cdfg.ops import IO_KINDS
from repro.check.rules import RULES, enforceable_violations
from repro.designs import (AR_GENERAL_PINS_UNIDIR, AR_SIMPLE_PINS,
                           ar_general_design, ar_simple_design)
from repro.errors import ReproError
from repro.modules.library import ar_filter_timing
from repro.partition.model import ChipSpec, Partitioning


@pytest.fixture()
def result():
    return synthesize_connection_first(
        ar_general_design(), AR_GENERAL_PINS_UNIDIR,
        ar_filter_timing(), 3)


@pytest.fixture(scope="module")
def simple_result():
    return synthesize(ar_simple_design(), AR_SIMPLE_PINS,
                      ar_filter_timing(), 2, flow="simple")


def rules_hit(result):
    return set(check_result(result).by_rule())


def test_clean_result_is_clean(result):
    report = check_result(result)
    assert report.ok, report.messages()
    assert report.rules_run == rule_names()
    assert not report.rules_skipped


def test_scheduled_rule(result):
    victim = next(n.name for n in result.graph.functional_nodes())
    del result.schedule.start_step[victim]
    assert "scheduled" in rules_hit(result)


def test_precedence_rule(result):
    schedule = result.schedule
    for edge in result.graph.edges():
        if edge.is_recursive():
            continue
        if schedule.is_scheduled(edge.src) \
                and schedule.is_scheduled(edge.dst) \
                and schedule.step(edge.dst) > schedule.step(edge.src):
            schedule.start_step[edge.dst] = max(
                0, schedule.step(edge.src) - 1)
            schedule.start_ns[edge.dst] = schedule.start_step[edge.dst] \
                * schedule.timing.clock_period
            break
    assert "precedence" in rules_hit(result)


def test_recursion_rule():
    from repro.designs import (ELLIPTIC_PINS_UNIDIR, elliptic_design,
                               elliptic_resources)
    from repro.modules.library import elliptic_filter_timing
    res = synthesize_connection_first(
        elliptic_design(), ELLIPTIC_PINS_UNIDIR,
        elliptic_filter_timing(), 6, resources=elliptic_resources(6))
    res.schedule.start_step["add26"] = res.schedule.step("X33") \
        + 4 * 6 + 1
    res.schedule.start_ns["add26"] = res.schedule.start_step["add26"] \
        * res.schedule.timing.clock_period
    assert "recursion" in rules_hit(res)


def test_chaining_rule(result):
    schedule = result.schedule
    period = schedule.timing.clock_period
    for name in schedule.start_step:
        node = result.graph.node(name)
        if node.is_free():
            continue
        if schedule.timing.must_start_at_boundary(node):
            schedule.start_ns[name] += 0.4 * period
            break
    else:  # no boundary op: overrun a cycle window instead
        name = next(n.name for n in result.graph.functional_nodes()
                    if n.name in schedule.start_step)
        schedule.start_ns[name] += 10 * period
    assert "chaining" in rules_hit(result)


def test_resources_rule(result):
    key = next(iter(result.resources))
    result.resources[key] = 0
    assert "resources" in rules_hit(result)


def test_pin_budget_rule(result):
    result.partitioning = result.partitioning.with_pins({1: 8})
    assert "pin-budget" in rules_hit(result)


def test_pin_split_rule(result):
    # Re-declare chip 1 with a 4-pin output split: the existing ports
    # cannot possibly fit.
    chips = {i: result.partitioning.chip(i)
             for i in result.partitioning.indices()}
    total = chips[1].total_pins
    chips[1] = ChipSpec(total, input_pins=total - 4, output_pins=4)
    result.partitioning = Partitioning(chips)
    assert "pin-split" in rules_hit(result)


def test_pin_step_rule(result):
    # One pin total: the per-group transferred bits cannot fit no
    # matter what interconnect is built.
    result.partitioning = result.partitioning.with_pins({1: 1})
    assert "pin-step" in rules_hit(result)


def test_port_model_rule(result):
    bus = result.interconnect.buses[0]
    assert bus.out_widths or bus.in_widths
    bus.bi_widths[1] = 8
    assert "port-model" in rules_hit(result)


def test_assignment_rule_missing_bus(result):
    victim = next(iter(result.assignment.bus_of))
    del result.assignment.bus_of[victim]
    assert "assignment" in rules_hit(result)


def test_assignment_rule_unknown_op(result):
    result.assignment.assign("ghost-op", 1)
    assert "assignment" in rules_hit(result)


def test_bus_capable_rule(result):
    victim = next(iter(result.assignment.bus_of))
    result.assignment.assign(victim, 999)
    assert "bus-capable" in rules_hit(result)


def test_bus_conflict_rule(result):
    # Pile every transfer onto bus 1 (widening its ports so the
    # capability rule stays quiet): group collisions are inevitable.
    bus1 = result.interconnect.bus(1)
    for node in result.graph.io_nodes():
        bus1.out_widths[node.source_partition] = max(
            bus1.out_widths.get(node.source_partition, 0),
            node.bit_width)
        bus1.in_widths[node.dest_partition] = max(
            bus1.in_widths.get(node.dest_partition, 0),
            node.bit_width)
        result.assignment.assign(node.name, 1)
    assert "bus-conflict" in rules_hit(result)


def test_subbus_rule_bad_segment(result):
    result.interconnect.buses[0].segments = [0, 8]
    assert "subbus" in rules_hit(result)


def test_subbus_rule_port_exceeds_segments(result):
    bus = result.interconnect.buses[0]
    width = max(list(bus.out_widths.values())
                + list(bus.in_widths.values()))
    bus.segments = [1, 1]
    hit = check_result(result).by_rule()
    assert width > 2
    assert "subbus" in hit


def test_simple_alloc_rule_missing(simple_result):
    import copy
    res = copy.deepcopy(simple_result)
    victim = next(iter(res.simple_allocation.allocation))
    del res.simple_allocation.allocation[victim]
    assert "simple-alloc" in rules_hit(res)


def test_simple_alloc_rule_width_mismatch(simple_result):
    import copy
    res = copy.deepcopy(simple_result)
    victim = next(iter(res.simple_allocation.allocation))
    bus, bits = res.simple_allocation.allocation[victim][0]
    res.simple_allocation.allocation[victim] = [(bus, bits + 1)]
    assert "simple-alloc" in rules_hit(res)


def test_simple_result_is_clean(simple_result):
    assert check_result(simple_result).ok


# ---------------------------------------------------------------------
def test_rules_toggle_off(result):
    result.partitioning = result.partitioning.with_pins({1: 1})
    report = check_result(result,
                          disable=("pin-budget", "pin-step"))
    assert "pin-budget" not in report.by_rule()
    assert "pin-step" not in report.by_rule()
    assert set(report.rules_skipped) == {"pin-budget", "pin-step"}


def test_rules_subset(result):
    report = check_result(result, rules=("precedence", "resources"))
    assert report.rules_run == ["precedence", "resources"]


def test_unknown_rule_raises(result):
    with pytest.raises(ReproError):
        check_result(result, rules=("not-a-rule",))
    with pytest.raises(ReproError):
        check_result(result, disable=("not-a-rule",))


def test_io_minor_clock_rule(result):
    # Re-time the valid result under a two-minor-clock scheme: every
    # transfer now sitting on an odd step violates it.
    odd = {name for name, step in result.schedule.start_step.items()
           if result.graph.node(name).kind in IO_KINDS and step % 2}
    assert odd
    assert "io-minor-clock" not in rules_hit(result)
    result.schedule.timing.io_step_multiple = 2
    report = check_result(result, rules=["io-minor-clock"])
    assert {dict(v.where)["op"] for v in report.violations} == odd


def test_io_minor_clock_rule_without_gate():
    # A timing model with no ``io_step_allowed`` allows every step.
    from types import SimpleNamespace
    from repro.cdfg.analysis import UnitTiming
    from repro.check.rules import _rule_io_minor_clock
    result = SimpleNamespace(schedule=SimpleNamespace(
        timing=UnitTiming(), start_step={"x": 1}))
    assert _rule_io_minor_clock(result) == []


def test_every_rule_has_description():
    assert len({r.name for r in RULES}) == len(RULES)
    assert all(r.description for r in RULES)


def test_raise_if_violations(result):
    result.partitioning = result.partitioning.with_pins({1: 1})
    with pytest.raises(CheckError) as info:
        check_result(result).raise_if_violations()
    assert not info.value.report.ok


def test_enforceable_tolerates_declared_overruns(result):
    result.partitioning = result.partitioning.with_pins({1: 1})
    report = check_result(result)
    assert enforceable_violations(result, report)
    result.stats["budget_overruns"] = ["partition 1 over budget"]
    hard = enforceable_violations(result, report)
    assert all(v.rule not in ("pin-budget", "pin-step", "pin-split")
               for v in hard)


def test_synthesize_check_kwarg():
    res = synthesize(ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                     ar_filter_timing(), 3, flow="connection-first",
                     check=True)
    assert check_result(res).ok
