"""Communication-slot allocation with dynamic reassignment (Sec 4.2, 6.2).

During list scheduling each I/O operation holds a *tentative* bus
assignment (from the connection-synthesis phase).  When the scheduler
wants to place operation ``w`` in control step ``s`` but ``w``'s bus is
already allocated in group ``s mod L``, ``w`` may *preempt* another
not-yet-scheduled operation whose bus is free in that group; the
preempted operation relocates in turn — an augmenting-path search over
the bipartite (operation, communication slot) graph, with slots grouped
per bus (Figure 4.5).

For sub-bus-split buses (Chapter 6) an operation may need one or both
segments; the search is restricted to *single preemption* (Section 6.2),
which can answer "no" although a two-victim shuffle existed — the
dissertation accepts the same pruning.

Transfers of the same value scheduled in the same control step may share
one slot (one output drives all connected inputs).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import OpKind
from repro.core.interconnect import BusAssignment, Interconnect
from repro.errors import BusAssignmentError
from repro.perf import PERF
from repro.scheduling.base import Schedule

#: A concrete placement: (bus index, starting segment).
Position = Tuple[int, int]
#: One relocation step of a plan.
Move = Tuple[str, Position]


class BusGeometry:
    """The interconnect's placements, tabulated once per scheduling run.

    The interconnect is fixed while operations are scheduled, so each
    I/O operation's capable ``(bus, segment)`` positions and the
    segments each one spans are computed here once, instead of through
    ``Bus.fitting_segments``/``capable``/``segments_spanned`` on every
    probe.  Allocators over the same graph and interconnect (the
    postponement backend makes one per round) can share one instance.
    """

    def __init__(self, graph: Cdfg, interconnect: Interconnect) -> None:
        #: bus index -> number of (effective) segments.
        self.n_segments: Dict[int, int] = {
            bus.index: len(bus.effective_segments())
            for bus in interconnect.buses}
        self.split = any(n > 1 for n in self.n_segments.values())
        #: op -> {capable position: segments spanned}, in interconnect
        #: order.
        self.spans: Dict[str, Dict[Position, Tuple[int, ...]]] = {}
        #: op -> its capable positions, sorted.
        self.positions: Dict[str, List[Position]] = {}
        for node in graph.io_nodes():
            spans: Dict[Position, Tuple[int, ...]] = {}
            for bus in interconnect.buses:
                for segment in bus.fitting_segments(node):
                    if bus.capable(node, segment):
                        spans[(bus.index, segment)] = tuple(
                            bus.segments_spanned(node, segment))
            self.spans[node.name] = spans
            self.positions[node.name] = sorted(spans)


class BusAllocator:
    """IoHooks implementation for Chapter 4 / Chapter 6 scheduling."""

    def __init__(self,
                 graph: Cdfg,
                 interconnect: Interconnect,
                 initial: BusAssignment,
                 initiation_rate: int,
                 reassignment: bool = True,
                 single_preemption: Optional[bool] = None,
                 geometry: Optional[BusGeometry] = None) -> None:
        self.graph = graph
        self.interconnect = interconnect
        self.L = initiation_rate
        self.reassignment = reassignment
        self.geometry = (BusGeometry(graph, interconnect)
                         if geometry is None else geometry)
        self.single_preemption = (self.geometry.split
                                  if single_preemption is None
                                  else single_preemption)

        self.assignment: Dict[str, Position] = {}
        self.scheduled: Dict[str, int] = {}
        #: (bus, segment, group) -> list of (value, step, op name);
        #: several entries coexist only for same-value-same-step
        #: sharing or mutually exclusive conditional transfers.
        self.occupancy: Dict[Tuple[int, int, int],
                             List[Tuple[str, int, str]]] = {}
        #: bus -> number of its (segment, group) slots in ``occupancy``
        #: (entries are only ever appended, so every key is occupied).
        self.occupied: Dict[int, int] = {
            bus.index: 0 for bus in interconnect.buses}
        self._unscheduled_on: Dict[int, Set[str]] = {
            bus.index: set() for bus in interconnect.buses}
        self._plan_cache: Dict[Tuple[str, int], List[Move]] = {}
        self.reassignments = 0

        for node in graph.io_nodes():
            if node.name not in initial.bus_of:
                raise BusAssignmentError(
                    f"I/O op {node.name!r} missing from the initial bus "
                    f"assignment")
            bus_index, segment = initial.of(node.name)
            bus = interconnect.bus(bus_index)
            if not bus.capable(node, segment):
                raise BusAssignmentError(
                    f"initial assignment puts {node.name!r} on an "
                    f"incapable bus {bus_index} (segment {segment})")
            self.assignment[node.name] = (bus_index, segment)
            self._unscheduled_on[bus_index].add(node.name)

    # ------------------------------------------------------------------
    def final_assignment(self) -> BusAssignment:
        out = BusAssignment()
        for op, (bus, segment) in sorted(self.assignment.items()):
            out.assign(op, bus, segment)
        return out

    # -- capacity accounting --------------------------------------------
    def _capacity(self, bus: int) -> int:
        return self.L * self.geometry.n_segments[bus]

    def _need(self, op: str, position: Position) -> int:
        return len(self.geometry.spans[op][position])

    def _used(self, bus: int, exclude: frozenset = frozenset()) -> int:
        demand = 0
        seen_values: Set[str] = set()
        for op in self._unscheduled_on[bus]:
            if op in exclude:
                continue
            node = self.graph.node(op)
            key = node.value or op
            if key in seen_values:
                continue
            seen_values.add(key)
            demand += self._need(op, self.assignment[op])
        return self.occupied[bus] + demand

    def _spare(self, bus: int, exclude: frozenset = frozenset()) -> int:
        return self._capacity(bus) - self._used(bus, exclude)

    # -- position availability -------------------------------------------
    def _position_free(self, node: Node, position: Position,
                       step: int) -> bool:
        group = step % self.L
        for seg in self.geometry.spans[node.name][position]:
            for value, other_step, other in self.occupancy.get(
                    (position[0], seg, group), []):
                same_value = (value == (node.value or node.name)
                              and other_step == step)
                exclusive = (other_step == step
                             and node.mutually_exclusive_with(
                                 self.graph.node(other)))
                if not (same_value or exclusive):
                    return False
        return True

    def _positions(self, node: Node) -> List[Position]:
        """Capable positions: the current assignment first, then low
        indices."""
        current = self.assignment.get(node.name)
        positions = self.geometry.positions[node.name]
        rest = [pos for pos in positions if pos != current]
        if len(rest) < len(positions):
            return [current] + rest
        return rest

    # -- IoHooks -----------------------------------------------------------
    def can_schedule(self, node: Node, step: int,
                     schedule: Schedule) -> bool:
        if node.kind is not OpKind.IO:
            return True  # raw INPUT/OUTPUT nodes bypass buses
        plan = self._find_plan(node, step)
        if plan is None:
            return False
        self._plan_cache[(node.name, step)] = plan
        return True

    def commit(self, node: Node, step: int, schedule: Schedule) -> None:
        if node.kind is not OpKind.IO:
            return
        plan = self._plan_cache.pop((node.name, step), None)
        if plan is None:
            plan = self._find_plan(node, step)
            if plan is None:
                raise BusAssignmentError(
                    f"commit without a feasible plan for {node.name!r}")
        self._apply(node, step, plan)

    # -- planning -----------------------------------------------------------
    def _strands_someone(self, node: Node, position: Position,
                         step: int) -> bool:
        """Would committing here leave an unscheduled op with no slot?

        Sub-bus geometry can dead-end even when raw capacity is fine:
        two narrow transfers committed in different groups strand a
        whole-bus transfer.  Simulate the occupancy the commit would
        create and confirm every other unscheduled operation still has
        *some* free (bus, segment, group) home.  Only relevant when a
        bus is split; unsplit buses are already covered by the
        capacity accounting.
        """
        if not self.geometry.split:
            return False
        added = {}
        group = step % self.L
        for seg in self.geometry.spans[node.name][position]:
            added[(position[0], seg, group)] = [
                (node.value or node.name, step, node.name)]
        pending = set()
        for ops in self._unscheduled_on.values():
            pending |= ops
        pending.discard(node.name)
        for other in pending:
            if not self._has_home(self.graph.node(other), added):
                return True
        return False

    def _has_home(self, node: Node, extra_occupancy) -> bool:
        for (bus, _segment), spanned in \
                self.geometry.spans[node.name].items():
            for group in range(self.L):
                free = True
                for seg in spanned:
                    key = (bus, seg, group)
                    entries = list(self.occupancy.get(key, [])) \
                        + list(extra_occupancy.get(key, []))
                    for value, _step, other in entries:
                        if value == (node.value or node.name):
                            continue
                        if node.mutually_exclusive_with(
                                self.graph.node(other)):
                            continue
                        free = False
                        break
                    if not free:
                        break
                if free:
                    return True
        return False

    def _find_plan(self, node: Node, step: int) -> Optional[List[Move]]:
        current = self.assignment[node.name]
        if self._position_free(node, current, step) \
                and not self._strands_someone(node, current, step):
            return [(node.name, current)]
        if not self.reassignment:
            return None
        # Kuhn-style augmenting search: each bus is explored at most
        # once per plan (visited), and every operation already moving
        # along the path (in_flight) stops consuming capacity on its
        # old bus.
        visited: Set[int] = set()
        in_flight = frozenset({node.name})
        for position in self._positions(node):
            if position == current:
                continue
            bus_index = position[0]
            if not self._position_free(node, position, step):
                continue
            if self._strands_someone(node, position, step):
                continue
            need = self._need(node.name, position)
            if self._spare(bus_index, exclude=in_flight) >= need:
                self.reassignments += 1
                PERF.inc("bus.reassignments")
                return [(node.name, position)]
            if bus_index in visited:
                continue
            visited.add(bus_index)
            # Preemption: relocate one victim off the target bus.
            victims = sorted(self._unscheduled_on[bus_index]
                             - {node.name})
            for victim in victims:
                victim_node = self.graph.node(victim)
                moving = in_flight | {victim}
                relocation = self._relocate(
                    victim_node, visited, moving,
                    chain_budget=(0 if self.single_preemption else
                                  len(self.interconnect.buses)))
                if relocation is None:
                    continue
                freed = self._spare(bus_index, exclude=in_flight) \
                    + self._victim_demand(victim_node, bus_index)
                if freed >= need:
                    self.reassignments += 1
                    PERF.inc("bus.reassignments")
                    return [(node.name, position)] + relocation
        return None

    def _victim_demand(self, victim: Node, bus: int) -> int:
        # The victim's demand only frees capacity if no same-value twin
        # stays behind on the bus (the victim is assigned to it).
        key = victim.value or victim.name
        for other in self._unscheduled_on[bus]:
            if other == victim.name:
                continue
            other_node = self.graph.node(other)
            if (other_node.value or other) == key:
                return 0
        return self._need(victim.name, self.assignment[victim.name])

    def _relocate(self, victim: Node, visited: Set[int],
                  in_flight: frozenset,
                  chain_budget: int) -> Optional[List[Move]]:
        """Find a new home for a preempted unscheduled operation.

        ``visited`` buses are never re-entered (shared across the whole
        augmenting search, as in Kuhn's algorithm); ``in_flight`` ops
        are mid-move and release their old capacity.
        """
        for position in self._positions(victim):
            bus_index = position[0]
            if bus_index in visited:
                continue
            need = self._need(victim.name, position)
            if self._spare(bus_index, exclude=in_flight) >= need:
                return [(victim.name, position)]
        if chain_budget <= 0:
            return None
        # Chain: the victim preempts somebody else in turn.
        for position in self._positions(victim):
            bus_index = position[0]
            if bus_index in visited:
                continue
            visited.add(bus_index)
            need = self._need(victim.name, position)
            for next_victim in sorted(self._unscheduled_on[bus_index]
                                      - set(in_flight)):
                next_node = self.graph.node(next_victim)
                tail = self._relocate(next_node, visited,
                                      in_flight | {next_victim},
                                      chain_budget - 1)
                if tail is None:
                    continue
                freed = self._spare(bus_index, exclude=in_flight) \
                    + self._victim_demand(next_node, bus_index)
                if freed >= need:
                    return [(victim.name, position)] + tail
        return None

    # -- application ------------------------------------------------------
    def _apply(self, node: Node, step: int, plan: List[Move]) -> None:
        # Later moves first: they free capacity the earlier moves use.
        for op, position in reversed(plan[1:]):
            old_bus = self.assignment[op][0]
            self._unscheduled_on[old_bus].discard(op)
            self.assignment[op] = position
            self._unscheduled_on[position[0]].add(op)
        op, position = plan[0]
        assert op == node.name
        old_bus = self.assignment[op][0]
        self._unscheduled_on[old_bus].discard(op)
        self.assignment[op] = position
        bus = position[0]
        group = step % self.L
        key = (node.value or node.name, step, node.name)
        for seg in self.geometry.spans[op][position]:
            entries = self.occupancy.get((bus, seg, group))
            if entries is None:
                entries = self.occupancy[(bus, seg, group)] = []
                self.occupied[bus] += 1
            if key not in entries:
                entries.append(key)
        self.scheduled[op] = step
