"""Interchip connection synthesis *after* scheduling (Chapter 5).

Once every I/O operation has a control step, compatibility is fixed:
operations in different control-step groups can always share a bus;
operations in the same group share only when they move the same value in
the same step.  Minimizing pins becomes a max-gain clique partitioning
of the layered compatibility graph (Figure 5.1), which the dissertation
solves by merging the groups with successive Hungarian (max-weight
bipartite) matchings, largest group first (Figure 5.2).

Edge weights follow Section 5.2: two compatible transfers sharing their
source (destination) partition can share ``min(B_w1, B_w2)`` output
(input) pins, scaled by per-partition weighting factors ``wf_i``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import ConnectionError_
from repro.graphs.hungarian import hungarian_max_weight
from repro.partition.model import Partitioning
from repro.perf import PERF
from repro.scheduling.base import Schedule

Clique = Tuple[str, ...]  # sorted member op names


def pair_weight(w1: Node, w2: Node, bidirectional: bool,
                wf: Mapping[int, Fraction]) -> Fraction:
    """Pin-sharing benefit of putting two transfers on one bus."""
    shared = Fraction(min(w1.bit_width, w2.bit_width))
    total = Fraction(0)
    if bidirectional:
        parts1 = {w1.source_partition, w1.dest_partition}
        parts2 = {w2.source_partition, w2.dest_partition}
        for partition in parts1 & parts2:
            total += wf.get(partition, Fraction(1)) * shared
        return total
    if w1.source_partition == w2.source_partition:
        total += wf.get(w1.source_partition, Fraction(1)) * shared
    if w1.dest_partition == w2.dest_partition:
        total += wf.get(w1.dest_partition, Fraction(1)) * shared
    return total


class PostScheduleConnector:
    """Builds the interconnect for a finished schedule."""

    def __init__(self, graph: Cdfg, schedule: Schedule,
                 partitioning: Optional[Partitioning] = None,
                 bidirectional: bool = False,
                 weighting: Optional[Mapping[int, Fraction]] = None
                 ) -> None:
        self.graph = graph
        self.schedule = schedule
        self.partitioning = partitioning
        self.bidirectional = bidirectional
        self.wf = {partition: Fraction(factor)
                   for partition, factor in (weighting or {}).items()}
        self.L = schedule.initiation_rate
        #: Every pair weight is a multiple of 1/_den (wf's common
        #: denominator); _pair_units memoizes (op1, op2) -> weight * _den
        #: for the run, so clique weights sum as integers.
        self._den = math.lcm(*(f.denominator for f in self.wf.values()))
        self._pair_units: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def run(self) -> Tuple[Interconnect, BusAssignment]:
        cliques = self.partition_cliques()
        PERF.inc("connect.cliques", len(cliques))
        interconnect = Interconnect(bidirectional=self.bidirectional)
        assignment = BusAssignment()
        for index, members in enumerate(cliques, start=1):
            bus = self._bus_for(index, members)
            interconnect.add_bus(bus)
            for op in members:
                assignment.assign(op, index)
        if self.partitioning is not None:
            problems = interconnect.check_budget(self.partitioning)
            if problems:
                raise ConnectionError_(
                    "post-schedule connection exceeds pin budgets:\n  "
                    + "\n  ".join(problems))
        return interconnect, assignment

    # ------------------------------------------------------------------
    def partition_cliques(self) -> List[Clique]:
        """The successive-matching clique partitioning of Figure 5.2."""
        groups = self._grouped_supernodes()
        if not groups:
            return []
        groups.sort(key=lambda g: (-len(g), g))
        pool: List[Clique] = list(groups[0])
        for other in groups[1:]:
            matching = hungarian_max_weight(
                pool, list(other), self._clique_weight)
            merged: List[Clique] = []
            taken = set()
            for left in pool:
                right = matching.get(left)
                if right is None:
                    merged.append(left)
                else:
                    taken.add(right)
                    merged.append(tuple(sorted(left + right)))
            for right in other:
                if right not in taken:
                    merged.append(right)
            pool = merged
        return sorted(pool)

    def _grouped_supernodes(self) -> List[List[Clique]]:
        """Per control-step group, subgroup ops by (value, step).

        Ops transferring the same value in the same step form one
        supernode — they can share a communication slot (Section 5.2).
        """
        per_group: Dict[int, Dict[Tuple[str, int], List[str]]] = {}
        for node in self.graph.io_nodes():
            if not self.schedule.is_scheduled(node.name):
                raise ConnectionError_(
                    f"I/O op {node.name!r} is unscheduled; Chapter 5 "
                    f"synthesis needs a complete schedule")
            step = self.schedule.step(node.name)
            group = step % self.L
            key = (node.value or node.name, step)
            per_group.setdefault(group, {}).setdefault(key, []).append(
                node.name)
        out: List[List[Clique]] = []
        for group in sorted(per_group):
            subgroups = [tuple(sorted(members))
                         for members in per_group[group].values()]
            out.append(sorted(subgroups))
        return out

    def _clique_weight(self, a: Clique, b: Clique) -> Fraction:
        units = self._pair_units
        total = 0
        for op1 in a:
            for op2 in b:
                pair = units.get((op1, op2))
                if pair is None:
                    weight = pair_weight(self.graph.node(op1),
                                         self.graph.node(op2),
                                         self.bidirectional, self.wf)
                    pair = units[(op1, op2)] = int(weight * self._den)
                total += pair
        return Fraction(total, self._den)

    # ------------------------------------------------------------------
    def _bus_for(self, index: int, members: Clique) -> Bus:
        bus = Bus(index)
        for op in members:
            node = self.graph.node(op)
            width = node.bit_width
            if self.bidirectional:
                for partition in (node.source_partition,
                                  node.dest_partition):
                    bus.bi_widths[partition] = max(
                        bus.bi_widths.get(partition, 0), width)
            else:
                bus.out_widths[node.source_partition] = max(
                    bus.out_widths.get(node.source_partition, 0), width)
                bus.in_widths[node.dest_partition] = max(
                    bus.in_widths.get(node.dest_partition, 0), width)
        return bus


def connect_after_scheduling(graph: Cdfg, schedule: Schedule,
                             partitioning: Optional[Partitioning] = None,
                             bidirectional: bool = False
                             ) -> Tuple[Interconnect, BusAssignment]:
    """Convenience wrapper around :class:`PostScheduleConnector`."""
    return PostScheduleConnector(graph, schedule, partitioning,
                                 bidirectional).run()
