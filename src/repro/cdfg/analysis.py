"""Timing analyses over CDFGs: topological order, ASAP/ALAP, time frames.

The dissertation's designs mix chained sub-cycle operations (AR filter:
30 ns adders and 210 ns multipliers chained within a 250 ns stage) with
multi-cycle operations (elliptic filter: 2-cycle non-pipelined
multipliers).  The analyses here therefore work at nanosecond precision
and report control-step results; a :class:`TimingSpec` supplies the node
timing model.

Data-recursive edges never participate in precedence (ASAP/ALAP); they
impose the *maximum* time constraint of Section 7.1,
``t_b - t_a < d*L - (c_b - 1)``, which :class:`FrameTightener`
applies as an iterative tightening over the frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.errors import CdfgError, SchedulingError

_EPS = 1e-9


class TimingSpec(Protocol):
    """Node timing model consumed by the analyses and the schedulers."""

    clock_period: float

    def delay_ns(self, node: Node) -> float:
        """Propagation delay of the node in nanoseconds."""

    def cycles(self, node: Node) -> int:
        """Number of whole control steps the node occupies (>= 1)."""

    def must_start_at_boundary(self, node: Node) -> bool:
        """Whether the node must begin exactly at a clock edge."""

    def chaining_allowed(self) -> bool:
        """Whether sub-cycle operations may chain within one step."""


@dataclass
class UnitTiming:
    """Simplest timing: every node takes exactly one control step.

    Useful for tests and for step-granular designs like the elliptic
    filter where only the multiplier is multi-cycle (pass
    ``cycles_by_op_type={"mul": 2}``).
    """

    clock_period: float = 1.0
    cycles_by_op_type: Optional[Dict[str, int]] = None

    def delay_ns(self, node: Node) -> float:
        return self.cycles(node) * self.clock_period

    def cycles(self, node: Node) -> int:
        if node.is_free():
            return 0
        table = self.cycles_by_op_type or {}
        return max(1, int(table.get(node.op_type, 1)))

    def must_start_at_boundary(self, node: Node) -> bool:
        return True

    def chaining_allowed(self) -> bool:
        return False


def topological_order(graph: Cdfg) -> List[str]:
    """Topological order ignoring data-recursive edges.

    Raises :class:`CdfgError` if the degree-0 subgraph contains a cycle
    (forbidden by the Section 2.2 assumptions).
    """
    indeg: Dict[str, int] = {name: 0 for name in graph.node_names()}
    for edge in graph.edges():
        if not edge.is_recursive():
            indeg[edge.dst] += 1
    ready = sorted(name for name, d in indeg.items() if d == 0)
    order: List[str] = []
    # Use a simple stack with deterministic tie-breaking (sorted seeds,
    # insertion order afterwards) so analyses are reproducible.
    queue = list(ready)
    while queue:
        name = queue.pop(0)
        order.append(name)
        for succ in graph.successors(name):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    if len(order) != len(indeg):
        stuck = sorted(set(indeg) - set(order))
        raise CdfgError(f"cycle through non-recursive edges near {stuck[:5]}")
    return order


def _boundary_up(t: float, period: float) -> float:
    """Smallest multiple of ``period`` that is >= ``t`` (with tolerance)."""
    steps = math.ceil(t / period - _EPS)
    return max(0, steps) * period


def _step_of(start_ns: float, period: float) -> int:
    return int(math.floor(start_ns / period + _EPS))


def asap_schedule(graph: Cdfg, timing: TimingSpec) -> Dict[str, int]:
    """Earliest control step of every node under chaining rules.

    Chained nodes must complete within the step they start in (values
    latch only at clock boundaries, Section 7.4), so a node whose delay
    does not fit before the next edge is pushed to the next step.
    """
    period = timing.clock_period
    start_ns: Dict[str, float] = {}
    finish_ns: Dict[str, float] = {}
    for name in topological_order(graph):
        node = graph.node(name)
        earliest = 0.0
        for edge in graph.in_edges(name):
            if edge.is_recursive():
                continue
            earliest = max(earliest, finish_ns[edge.src])
        start = _place_start(node, earliest, timing)
        start_ns[name] = start
        finish_ns[name] = start + timing.delay_ns(node)
    return {name: _step_of(t, period) for name, t in start_ns.items()}


def _place_start(node: Node, earliest: float, timing: TimingSpec) -> float:
    """Earliest legal start time >= ``earliest`` for the node."""
    period = timing.clock_period
    if node.is_free():
        return earliest
    if timing.must_start_at_boundary(node) or not timing.chaining_allowed():
        return _boundary_up(earliest, period)
    delay = timing.delay_ns(node)
    if delay > period + _EPS:
        # Multi-cycle operations always start at a boundary (Section 7.4).
        return _boundary_up(earliest, period)
    # Chained: must fit before the next clock edge.
    next_edge = _boundary_up(earliest, period)
    if next_edge - earliest < _EPS:
        # Exactly on a boundary already.
        return earliest
    if earliest + delay <= next_edge + _EPS:
        return earliest
    return next_edge


def asap_finish_ns(graph: Cdfg, timing: TimingSpec) -> Dict[str, float]:
    """Earliest finish time (ns) of every node; used for pipe length."""
    finish: Dict[str, float] = {}
    for name in topological_order(graph):
        node = graph.node(name)
        earliest = 0.0
        for edge in graph.in_edges(name):
            if edge.is_recursive():
                continue
            earliest = max(earliest, finish[edge.src])
        start = _place_start(node, earliest, timing)
        finish[name] = start + timing.delay_ns(node)
    return finish


def critical_path_length(graph: Cdfg, timing: TimingSpec) -> int:
    """Minimum pipe length (in control steps) ignoring resources."""
    finish = asap_finish_ns(graph, timing)
    if not finish:
        return 0
    latest = max(finish.values())
    return max(1, int(math.ceil(latest / timing.clock_period - _EPS)))


def alap_schedule(graph: Cdfg, timing: TimingSpec,
                  pipe_length: int) -> Dict[str, int]:
    """Latest control step of every node for a given pipe length.

    Raises :class:`SchedulingError` if ``pipe_length`` is shorter than
    the critical path.
    """
    period = timing.clock_period
    deadline = pipe_length * period
    latest_finish: Dict[str, float] = {}
    start_ns: Dict[str, float] = {}
    for name in reversed(topological_order(graph)):
        node = graph.node(name)
        limit = deadline
        for edge in graph.out_edges(name):
            if edge.is_recursive():
                continue
            limit = min(limit, start_ns[edge.dst])
        start = _place_start_latest(node, limit, timing)
        if start < -_EPS:
            raise SchedulingError(
                f"pipe length {pipe_length} shorter than critical path "
                f"(node {name!r} would start at {start:.3f} ns)")
        start_ns[name] = start
        latest_finish[name] = start + timing.delay_ns(node)
    return {name: _step_of(t, period) for name, t in start_ns.items()}


def _place_start_latest(node: Node, latest_finish: float,
                        timing: TimingSpec) -> float:
    """Latest legal start so the node finishes by ``latest_finish``."""
    period = timing.clock_period
    delay = timing.delay_ns(node)
    start = latest_finish - delay
    if node.is_free():
        return start
    if timing.must_start_at_boundary(node) or not timing.chaining_allowed():
        return math.floor(start / period + _EPS) * period
    if delay > period + _EPS:
        return math.floor(start / period + _EPS) * period
    # Chained: must not cross a boundary; if [start, start+delay) crosses
    # one, pull the start back so it finishes exactly at that boundary.
    start_step = math.floor(start / period + _EPS)
    finish_step = math.floor((start + delay) / period - _EPS)
    if finish_step > start_step:
        boundary = finish_step * period
        return boundary - delay if boundary - delay >= start_step * period \
            else start_step * period
    return start


@dataclass
class TimeFrames:
    """Per-node scheduling windows ``[asap, alap]`` in control steps."""

    asap: Dict[str, int]
    alap: Dict[str, int]

    def frame(self, name: str) -> Tuple[int, int]:
        return self.asap[name], self.alap[name]

    def width(self, name: str) -> int:
        return self.alap[name] - self.asap[name] + 1

    def feasible(self) -> bool:
        return all(self.alap[n] >= self.asap[n] for n in self.asap)


class FrameTightener:
    """ASAP/ALAP frames tightened by recursive-edge max-time constraints.

    Everything that does not depend on ``fixed`` is computed once at
    construction: the base ASAP/ALAP frames, the topological order, the
    forward and backward precedence gaps and the recursive-edge
    constants.  Each :meth:`frames` call then only clamps the fixed
    nodes and runs the tightening loop, so a scheduler that re-derives
    frames after every decision pays for the fixpoint alone.

    With an ``initiation_rate`` ``L``, each recursive edge ``src -> dst``
    of degree ``d`` (in the dissertation's orientation the edge runs
    *producer -> consumer*, and the constraint binds the producer
    ``op_b`` relative to the consumer ``op_a``) contributes
    ``t_src <= t_dst + d*L - c_src`` where ``c_src`` is the producer's
    cycle count (Section 7.1).  Without a rate, one precedence pass
    runs and recursive edges are ignored.
    """

    def __init__(self, graph: Cdfg, timing: TimingSpec, pipe_length: int,
                 initiation_rate: Optional[int] = None) -> None:
        self.asap = asap_schedule(graph, timing)
        self.alap = alap_schedule(graph, timing, pipe_length)
        self.initiation_rate = initiation_rate
        chain = timing.chaining_allowed()
        order = topological_order(graph)
        #: (node, [(predecessor, gap), ...]) in topological order.
        self.forward: List[Tuple[str, List[Tuple[str, int]]]] = [
            (name, [(edge.src, _min_step_gap(graph.node(edge.src),
                                             graph.node(name), timing,
                                             chain))
                    for edge in graph.in_edges(name)
                    if not edge.is_recursive()])
            for name in order]
        #: (node, [(successor, gap), ...]) in reverse topological order.
        self.backward: List[Tuple[str, List[Tuple[str, int]]]] = [
            (name, [(edge.dst, _min_step_gap(graph.node(name),
                                             graph.node(edge.dst), timing,
                                             chain))
                    for edge in graph.out_edges(name)
                    if not edge.is_recursive()])
            for name in reversed(order)]
        #: (producer, consumer, d*L - c_src) per recursive edge.
        self.recursive: List[Tuple[str, str, int]] = [] \
            if initiation_rate is None else [
                (edge.src, edge.dst, edge.degree * initiation_rate
                 - max(1, timing.cycles(graph.node(edge.src))))
                for edge in graph.recursive_edges()]

    def frames(self, fixed: Optional[Dict[str, int]] = None) -> TimeFrames:
        """Frames with ``fixed`` nodes pinned to their steps.

        Each pass can only shrink frames; once any frame empties the
        design is infeasible at this rate and the loop stops (callers
        inspect ``frames.feasible()``).
        """
        asap = dict(self.asap)
        alap = dict(self.alap)
        if fixed:
            for name, step in fixed.items():
                asap[name] = max(asap[name], step)
                alap[name] = min(alap[name], step)
        frames = TimeFrames(asap, alap)
        if self.initiation_rate is None:
            self._precedence(asap, alap)
            return frames
        changed = True
        guard = 0
        while changed:
            guard += 1
            if not frames.feasible():
                return frames
            if guard > 10 * (len(asap) + 1):
                raise SchedulingError("time-frame tightening did not converge")
            changed = self._precedence(asap, alap)
            for producer, consumer, slack in self.recursive:
                # t_producer <= t_consumer + d*L - c_src
                bound = alap[consumer] + slack
                if alap[producer] > bound:
                    alap[producer] = bound
                    changed = True
                # t_consumer >= t_producer - d*L + c_src
                low = asap[producer] - slack
                if asap[consumer] < low:
                    asap[consumer] = low
                    changed = True
        return frames

    def _precedence(self, asap: Dict[str, int],
                    alap: Dict[str, int]) -> bool:
        """One forward+backward pass of step-granular precedence
        tightening; returns whether anything changed.

        This is conservative (step-level, chaining treated as same-step
        allowance) -- exact ns feasibility stays with the scheduler.
        """
        changed = False
        for name, preds in self.forward:
            for src, gap in preds:
                low = asap[src] + gap
                if asap[name] < low:
                    asap[name] = low
                    changed = True
        for name, succs in self.backward:
            for dst, gap in succs:
                high = alap[dst] - gap
                if alap[name] > high:
                    alap[name] = high
                    changed = True
        return changed


def compute_time_frames(graph: Cdfg,
                        timing: TimingSpec,
                        pipe_length: int,
                        initiation_rate: Optional[int] = None,
                        fixed: Optional[Dict[str, int]] = None) -> TimeFrames:
    """ASAP/ALAP frames tightened by recursive-edge max-time constraints.

    A one-shot :class:`FrameTightener`; ``fixed`` pins some nodes to
    known steps (used by schedulers to propagate partial decisions).
    """
    return FrameTightener(graph, timing, pipe_length,
                          initiation_rate).frames(fixed)


def _min_step_gap(pred: Node, succ: Node, timing: TimingSpec,
                  chain: bool) -> int:
    """Minimum step distance from pred's start to succ's start."""
    if pred.is_free():
        return 0
    cycles = max(1, timing.cycles(pred))
    if chain and cycles == 1 and not timing.must_start_at_boundary(succ):
        # Chaining may let the successor start in the same step; the
        # ns-level check belongs to the scheduler.
        return 0
    return cycles
