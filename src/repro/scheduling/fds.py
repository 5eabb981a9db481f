"""Force-directed scheduling for multi-chip pipelined designs (Ch. 5).

Paulin's FDS balances expected resource concurrency across control
steps, folded modulo the initiation rate for pipelined designs.  All
partitions schedule together.  For I/O operations the distribution
graphs of the *output side* (source partition) and the *input side*
(destination partition) are combined, weighted by bit width — the
approximation the dissertation itself notes cannot capture bus usage
exactly (Section 5.1); the subsequent interchip-connection synthesis of
:mod:`repro.core.post_sched` does the pin optimization.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.cdfg.analysis import (FrameTightener, TimingSpec,
                                 topological_order, _EPS)
from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import IO_KINDS
from repro.errors import SchedulingError
from repro.perf import PERF
from repro.robustness.budget import as_token
from repro.scheduling.base import Schedule

#: Distribution-graph bucket: ("fu", partition, op_type) for functional
#: units, ("out", partition)/("in", partition) for pin pressure.
DgKey = Tuple


class ForceDirectedScheduler:
    """Schedule within ``pipe_length`` steps minimizing concurrency.

    Cost model: one placement prices every free operation at every step
    of its frame.  What does not change during a run is tabulated in
    ``__init__`` (cycles, distribution-graph entries and neighbour gaps
    per node, occupied groups per (cycles, step mod L)) or memoized for
    the run (the mass spread over a step range, per cycles); what does not
    change during one placement (a node's probability mass, a
    neighbour's restriction force) is memoized and cleared when the
    next placement starts.  Every force still adds its terms in the
    same order, so the choices do not depend on the caching.
    """

    def __init__(self, graph: Cdfg, timing: TimingSpec,
                 initiation_rate: int, pipe_length: int,
                 io_weight_by_bits: bool = True,
                 budget=None) -> None:
        self.graph = graph
        self.timing = timing
        self.L = initiation_rate
        self.pipe_length = pipe_length
        self.io_weight_by_bits = io_weight_by_bits
        #: Cooperative cancellation token, ticked once per force-directed
        #: placement (each pass of the main loop fixes one operation).
        self.budget = as_token(budget)

        # Per-run tables.
        nodes = [node for node in graph.nodes() if not node.is_free()]
        #: Section 2.2 minor-clock gate for transfers; timing models
        #: without the feature allow every step (nothing is gated).
        self._io_step_allowed = getattr(timing, "io_step_allowed", None)
        self._gated = set() if self._io_step_allowed is None else {
            node.name for node in nodes if node.kind in IO_KINDS}
        self._cycles: Dict[str, int] = {
            node.name: max(1, timing.cycles(node)) for node in nodes}
        self._entries: Dict[str, List[Tuple[DgKey, float]]] = {
            node.name: self._dg_entries(node) for node in nodes}
        #: cycles -> step mod L -> groups the node occupies from there.
        self._groups: Dict[int, List[List[int]]] = {
            cycles: [[(step + j) % self.L for j in range(cycles)]
                     for step in range(self.L)]
            for cycles in set(self._cycles.values())}
        chaining = timing.chaining_allowed()
        #: Non-free, non-recursive neighbours with the step gap the
        #: candidate imposes on them.
        self._preds: Dict[str, List[Tuple[str, int]]] = {}
        self._succs: Dict[str, List[Tuple[str, int]]] = {}
        for node in nodes:
            self._preds[node.name] = [
                (edge.src, 0 if chaining else self._cycles[edge.src])
                for edge in graph.in_edges(node.name)
                if not edge.is_recursive() and edge.src in self._cycles]
            self._succs[node.name] = [
                (edge.dst, 0 if chaining else self._cycles[node.name])
                for edge in graph.out_edges(node.name)
                if not edge.is_recursive() and edge.dst in self._cycles]
        #: (cycles, lo, hi) -> per-group mass; depends on nothing else.
        self._masses: Dict[Tuple[int, int, int], Dict[int, float]] = {}

        # Per-placement memos (frames, ``fixed`` and dgs are constant
        # within one placement).
        self._probabilities: Dict[str, Dict[int, float]] = {}
        self._restrict_forces: Dict[Tuple[str, int, int], float] = {}

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        fixed: Dict[str, int] = {}
        movable = [n.name for n in self.graph.nodes() if not n.is_free()]

        tightener = FrameTightener(self.graph, self.timing,
                                   self.pipe_length,
                                   initiation_rate=self.L)
        frames = tightener.frames()
        if not frames.feasible():
            raise SchedulingError(
                f"no feasible frames within pipe length {self.pipe_length}")

        while len(fixed) < len(movable):
            if self.budget is not None:
                self.budget.note_incumbent(
                    solver="fds", fixed=len(fixed), total=len(movable))
                self.budget.tick("fds")
            self._probabilities.clear()
            self._restrict_forces.clear()
            dgs = self._distribution_graphs(frames, fixed)
            best: Optional[Tuple[float, str, int]] = None
            for name in movable:
                if name in fixed:
                    continue
                lo, hi = frames.frame(name)
                for step in range(lo, hi + 1):
                    if name in self._gated \
                            and not self._io_step_allowed(step):
                        continue
                    force = self._total_force(name, step, frames, dgs,
                                              fixed)
                    key = (force, name, step)
                    if best is None or key < best:
                        best = key
            if best is None:
                raise SchedulingError(
                    "the I/O minor clock allows no step in the frames of "
                    + ", ".join(repr(n) for n in movable if n not in fixed))
            _, chosen, step = best
            fixed[chosen] = step
            PERF.inc("fds.placements")
            frames = tightener.frames(fixed)
            if not frames.feasible():
                raise SchedulingError(
                    f"fixing {chosen!r} at step {step} emptied a frame "
                    f"(pipe length {self.pipe_length} too tight)")
        return self._legalize(fixed)

    # ------------------------------------------------------------------
    def _dg_entries(self, node: Node) -> List[Tuple[DgKey, float]]:
        if node.is_io():
            weight = float(node.bit_width) if self.io_weight_by_bits else 1.0
            return [(("out", node.source_partition), weight),
                    (("in", node.dest_partition), weight)]
        if node.is_functional():
            return [(("fu", node.partition, node.op_type), 1.0)]
        return []

    def _occupied_groups(self, node: Node, step: int) -> List[int]:
        return self._groups[self._cycles[node.name]][step % self.L]

    def _distribution_graphs(self, frames, fixed: Dict[str, int]
                             ) -> Dict[DgKey, List[float]]:
        dgs: Dict[DgKey, List[float]] = {}
        L = self.L
        for name, entries in self._entries.items():
            if not entries:
                continue
            groups = self._groups[self._cycles[name]]
            lo, hi = frames.frame(name)
            if name in fixed:
                lo = hi = fixed[name]
            prob = 1.0 / (hi - lo + 1)
            for key, weight in entries:
                dg = dgs.setdefault(key, [0.0] * L)
                for step in range(lo, hi + 1):
                    for group in groups[step % L]:
                        dg[group] += prob * weight
        return dgs

    def _probability(self, name: str, frames,
                     fixed: Dict[str, int]) -> Dict[int, float]:
        """Current per-group probability mass of one node (memoized
        for the current placement)."""
        mass = self._probabilities.get(name)
        if mass is not None:
            return mass
        lo, hi = frames.frame(name)
        if name in fixed:
            lo = hi = fixed[name]
        mass = self._mass(name, lo, hi)
        self._probabilities[name] = mass
        return mass

    def _mass(self, name: str, lo: int, hi: int) -> Dict[int, float]:
        """Per-group mass of ``name`` spread evenly over ``[lo, hi]``
        (memoized for the run; callers must not mutate it)."""
        cycles = self._cycles[name]
        mass = self._masses.get((cycles, lo, hi))
        if mass is not None:
            return mass
        groups = self._groups[cycles]
        prob = 1.0 / (hi - lo + 1)
        mass = {}
        for step in range(lo, hi + 1):
            for group in groups[step % self.L]:
                mass[group] = mass.get(group, 0.0) + prob
        self._masses[(cycles, lo, hi)] = mass
        return mass

    def _force(self, name: str, old: Dict[int, float],
               new: Dict[int, float], dgs) -> float:
        """Force of moving ``name``'s mass from ``old`` to ``new``."""
        force = 0.0
        groups = set(old) | set(new)
        for key, weight in self._entries[name]:
            dg = dgs.get(key, [0.0] * self.L)
            for group in groups:
                force += weight * dg[group] * (new.get(group, 0.0)
                                               - old.get(group, 0.0))
        return force

    def _self_force(self, name: str, step: int, frames,
                    dgs, fixed: Dict[str, int]) -> float:
        old = self._probability(name, frames, fixed)
        return self._force(name, old, self._mass(name, step, step), dgs)

    def _total_force(self, name: str, step: int, frames, dgs,
                     fixed: Dict[str, int]) -> float:
        force = self._self_force(name, step, frames, dgs, fixed)
        # First-order predecessor/successor forces: tightening their
        # frames by the candidate assignment.
        for src, gap in self._preds[name]:
            if src not in fixed:
                force += self._restrict_force(src, None, step - gap,
                                              frames, dgs, fixed)
        for dst, gap in self._succs[name]:
            if dst not in fixed:
                force += self._restrict_force(dst, step + gap, None,
                                              frames, dgs, fixed)
        return force

    def _restrict_force(self, name: str, new_lo: Optional[int],
                        new_hi: Optional[int], frames, dgs,
                        fixed: Dict[str, int]) -> float:
        lo, hi = frames.frame(name)
        rlo = lo if new_lo is None else max(lo, new_lo)
        rhi = hi if new_hi is None else min(hi, new_hi)
        if rlo > rhi:
            return float("inf")  # would empty the neighbor's frame
        if (rlo, rhi) == (lo, hi):
            return 0.0
        key = (name, rlo, rhi)
        force = self._restrict_forces.get(key)
        if force is None:
            old = self._probability(name, frames, fixed)
            force = self._force(name, old, self._mass(name, rlo, rhi), dgs)
            self._restrict_forces[key] = force
        return force

    # ------------------------------------------------------------------
    def _legalize(self, fixed: Dict[str, int]) -> Schedule:
        """Assign exact ns starts; chained ops may slip to later steps.

        FDS works at step granularity, so chains longer than one clock
        period could be over-packed; the legalizer respects each fixed
        step as a *minimum* and pushes operations later when the data
        arrives late, failing if the pipe length is exceeded.
        """
        schedule = Schedule(self.graph, self.timing, self.L)
        period = self.timing.clock_period
        for name in topological_order(self.graph):
            node = self.graph.node(name)
            if node.is_free():
                continue
            ready = 0.0
            for edge in self.graph.in_edges(name):
                if edge.is_recursive():
                    continue
                src = self.graph.node(edge.src)
                if src.is_free():
                    continue
                ready = max(ready, schedule.finish_ns(edge.src))
            target = fixed[name]
            start = max(ready, target * period)
            if self.timing.must_start_at_boundary(node) \
                    or not self.timing.chaining_allowed():
                start = math.ceil(start / period - _EPS) * period
            else:
                delay = self.timing.delay_ns(node)
                boundary = math.floor(start / period + _EPS) * period
                if start + delay > boundary + period + _EPS:
                    start = boundary + period  # cannot chain; next step
            step = int(math.floor(start / period + _EPS))
            if name in self._gated and not self._io_step_allowed(step):
                raise SchedulingError(
                    f"legalization pushed transfer {name!r} to step {step}, "
                    f"which the I/O minor clock does not allow")
            schedule.place(name, step, start)
        if schedule.pipe_length > self.pipe_length:
            raise SchedulingError(
                f"legalized schedule needs {schedule.pipe_length} steps "
                f"(> pipe length {self.pipe_length})")
        problems = [p for p in schedule.verify() if "unscheduled" not in p]
        if problems:
            raise SchedulingError(
                "FDS produced an invalid schedule: " + "; ".join(problems))
        return schedule
