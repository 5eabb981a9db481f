"""Pin allocation for simple partitionings (Chapter 3).

The ILP of Section 3.1.1 asks whether every I/O operation can still be
assigned to some control-step group without exceeding any chip's
input/output pins:

* input:   ``sum B_w x_{w,k} <= I_i``            (3.2 / 3.7 with o_i)
* output:  ``sum B_v y_{v,k} <= O_j``            (3.5 / 3.8 with o_j)
* link:    ``sum_{w in W_v} x_{w,k} <= |W_v| y_{v,k}``        (3.6)
* cover:   ``sum_k x_{w,k} >= 1``                             (3.4)

with ``o_j`` integer output-pin-split variables when the chips do not
fix the input/output pin division.

Bundle refinement
-----------------
Pins are physically grouped into *bundles* (nets): a chip's pins facing
the outside world cannot double as pins on an interchip star bundle —
only transfers on the *same net* may time-share pins across control-step
groups.  The per-group constraints above are therefore necessary but not
sufficient for the constructive connection of Theorem 3.1 once external
traffic enters the picture.  This implementation adds the bundle-aware
strengthening: per chip end, ``max_k(external bits) +
max_k(interchip bits) <= pins`` (each max realized by an auxiliary
integer variable), and the pseudo partition pays per-chip dedicated
bundles.  Theorem 3.1 then guarantees the interchip share is wireable,
and the external share is point-to-point by construction.

The trivial objective makes the initial tableau dual feasible, so the
Gomory dual all-integer algorithm (Section 3.3) answers feasibility; the
scheduler commits ``x_{w,k} >= 1`` incrementally as operations are
placed (the Equations 3.12 -> 3.13 tableau update).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.core.oracle_store import (INIT_GROUP, INIT_NODE, OracleStore,
                                     budget_vector, get_active)
from repro.errors import IlpError, InfeasibleError
from repro.ilp import (DualAllIntegerSolver, Model, Var, WarmBasis, lsum,
                       solve_ilp)
from repro.ilp.model import LinExpr, SolveStatus
from repro.ilp.simplex import solve_lp
from repro.io_json import graph_to_dict
from repro.partition.model import OUTSIDE_WORLD, Partitioning
from repro.perf import PERF
from repro.robustness.budget import BudgetExhausted, as_token
from repro.scheduling.base import Schedule


def design_signature(graph: Cdfg, partitioning: Partitioning,
                     initiation_rate: int) -> str:
    """Structure key for the shared pin oracle.

    Covers everything a pin-feasibility verdict depends on *except* the
    budget values themselves: the CDFG, the initiation rate, and each
    chip's port-model pattern (bidirectional / split-fixed flags).
    Budgets live in the per-entry vector so verdicts recorded at one
    budget can answer dominated queries at another.
    """
    payload = {
        "graph": graph_to_dict(graph),
        "rate": int(initiation_rate),
        "chips": [[index,
                   bool(partitioning.chip(index).bidirectional),
                   bool(partitioning.chip(index).split_fixed)]
                  for index in partitioning.indices()],
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def assignment_usage(graph: Cdfg, partitioning: Partitioning,
                     initiation_rate: int,
                     assignment: Mapping[str, int]) -> Tuple[int, ...]:
    """Pin usage of a complete group assignment, model-free.

    ``assignment`` maps every I/O operation name to its control-step
    group.  The result is in :func:`budget_vector` coordinates and is a
    valid feasibility witness at any budget vector it fits — used to
    re-record a finished schedule's commit trajectory with the tightest
    witness available (the schedule's own usage), without building the
    ILP model.
    """

    def xval(node: Node, k: int) -> int:
        return 1 if assignment.get(node.name) == k else 0

    return _usage_from_assignment(
        graph.io_nodes(), graph.values_map(), partitioning,
        initiation_rate, xval)


def _usage_from_assignment(ios, values_map, partitioning: Partitioning,
                           L: int, xval) -> Tuple[int, ...]:
    """Shared load accounting behind the witness vectors.

    ``xval(node, k)`` is the 0/1 placement indicator; shared-output
    indicators are derived from it (a value's output bundle is loaded
    in group ``k`` iff any of its transfers lands there).  Mirrors the
    model rows exactly: per-group bundle peaks, split external vs
    interchip traffic, one dedicated world bundle per chip.  Slots the
    model never bounds (total pins of a split-fixed chip, the per-side
    caps of a pooled one) come back as ``0``/``-1`` so they never block
    a transfer.
    """

    def peak(loads) -> int:
        return max(loads, default=0)

    def chip_usage(index: int) -> Tuple[int, int]:
        ext_in = [n for n in ios if n.dest_partition == index
                  and n.source_partition == OUTSIDE_WORLD]
        star_in = [n for n in ios if n.dest_partition == index
                   and n.source_partition != OUTSIDE_WORLD]
        out_values = {v: members for v, members in values_map.items()
                      if members[0].source_partition == index}
        ein = peak(sum(n.bit_width * xval(n, k) for n in ext_in)
                   for k in range(L)) if ext_in else 0
        sin = peak(sum(n.bit_width * xval(n, k) for n in star_in)
                   for k in range(L)) if star_in else 0

        def term_val(members, k: int) -> int:
            return 1 if any(xval(m, k) for m in members) else 0

        ext_vals = {v: [m for m in ms
                        if m.dest_partition == OUTSIDE_WORLD]
                    for v, ms in out_values.items()}
        star_vals = {v: [m for m in ms
                         if m.dest_partition != OUTSIDE_WORLD]
                     for v, ms in out_values.items()}
        eout = peak(
            sum(members[0].bit_width * term_val(members, k)
                for members in ext_vals.values() if members)
            for k in range(L)) if any(ext_vals.values()) else 0
        sout = peak(
            sum(members[0].bit_width * term_val(members, k)
                for members in star_vals.values() if members)
            for k in range(L)) if any(star_vals.values()) else 0
        return ein + sin, eout + sout

    def world_usage() -> Tuple[int, int]:
        in_use = out_use = 0
        for chip in partitioning.indices():
            if chip == OUTSIDE_WORLD:
                continue
            to_chip = [n for n in ios
                       if n.source_partition == OUTSIDE_WORLD
                       and n.dest_partition == chip]
            from_chip = [n for n in ios
                         if n.source_partition == chip
                         and n.dest_partition == OUTSIDE_WORLD]
            if to_chip:
                out_use += peak(
                    sum(n.bit_width * xval(n, k) for n in to_chip)
                    for k in range(L))
            if from_chip:
                in_use += peak(
                    sum(n.bit_width * xval(n, k) for n in from_chip)
                    for k in range(L))
        return in_use, out_use

    # The per-chip 3-slot encoding lives with the unified pin
    # accounting so the ILP rows and the witness vectors can't drift.
    from repro.pipeline.resource_table import usage_row

    out: List[int] = []
    for index in partitioning.indices():
        spec = partitioning.chip(index)
        if index == OUTSIDE_WORLD:
            in_use, out_use = world_usage()
        else:
            in_use, out_use = chip_usage(index)
        out.extend(usage_row(spec, in_use, out_use))
    return tuple(out)


class PinAllocationProblem:
    """Builds and owns the Section 3.1.1 model for one design."""

    def __init__(self, graph: Cdfg, partitioning: Partitioning,
                 initiation_rate: int) -> None:
        self.graph = graph
        self.partitioning = partitioning
        self.L = initiation_rate
        self.model = Model("pin-allocation")
        self.x: Dict[Tuple[str, int], Var] = {}
        self.y: Dict[Tuple[str, int], Var] = {}
        self.o: Dict[int, Var] = {}
        #: Cached graph views — witness extraction walks them per
        #: feasible probe, and they are pure functions of the graph.
        self._ios = graph.io_nodes()
        self._values_map = graph.values_map()
        self._build()

    # ------------------------------------------------------------------
    def _chip_dest_members(self, members: List[Node]) -> List[Node]:
        return [m for m in members if m.dest_partition != OUTSIDE_WORLD]

    def _out_term(self, members: List[Node], value: str, k: int):
        """Shared-output load term: y for multi-fanout, x otherwise."""
        if len(members) > 1:
            key = (value, k)
            if key not in self.y:
                self.y[key] = self.model.binary(f"y[{value},{k}]")
                self.model.add(
                    lsum(self.x[(m.name, k)] for m in members)
                    <= len(members) * self.y[key],
                    name=f"link[{value},{k}]")
            return self.y[key]
        return self.x[(members[0].name, k)]

    def _build(self) -> None:
        model, L = self.model, self.L
        graph = self.graph
        ios = graph.io_nodes()
        values = graph.values_map()

        for node in ios:
            for k in range(L):
                self.x[(node.name, k)] = model.binary(f"x[{node.name},{k}]")

        for index in self.partitioning.indices():
            spec = self.partitioning.chip(index)
            if spec.bidirectional:
                raise IlpError(
                    "the Chapter 3 pin-allocation model assumes "
                    "unidirectional pins")
            if not spec.split_fixed:
                self.o[index] = model.add_var(
                    f"o[{index}]", 0, spec.total_pins)

        for index in self.partitioning.indices():
            if index == OUTSIDE_WORLD:
                self._build_world(ios)
            else:
                self._build_chip(index, ios, values)

        # Every I/O operation lands in some group (Constraint 3.4).
        for node in ios:
            model.add(
                lsum(self.x[(node.name, k)] for k in range(L)) >= 1,
                name=f"cover[{node.name}]")

        model.minimize(0)

    # ------------------------------------------------------------------
    def _input_pins_bound(self, index: int):
        """(expression, rhs) such that input load <= expr form works."""
        spec = self.partitioning.chip(index)
        if spec.split_fixed:
            return None, spec.input_pins
        return self.o[index], spec.total_pins

    def _build_chip(self, index: int, ios: List[Node],
                    values: Dict[str, List[Node]]) -> None:
        model, L = self.model, self.L
        spec = self.partitioning.chip(index)
        ext_in = [n for n in ios if n.dest_partition == index
                  and n.source_partition == OUTSIDE_WORLD]
        star_in = [n for n in ios if n.dest_partition == index
                   and n.source_partition != OUTSIDE_WORLD]
        out_values = {v: members for v, members in values.items()
                      if members[0].source_partition == index}

        bound = spec.total_pins
        # Bundle peaks: external and interchip traffic use disjoint
        # nets, so each side pays its own per-group maximum.
        ein = model.add_var(f"ein[{index}]", 0, bound) if ext_in else None
        sin = model.add_var(f"sin[{index}]", 0, bound) if star_in else None
        for k in range(L):
            if ext_in:
                model.add(ein >= lsum(n.bit_width * self.x[(n.name, k)]
                                      for n in ext_in))
            if star_in:
                model.add(sin >= lsum(n.bit_width * self.x[(n.name, k)]
                                      for n in star_in))
        in_terms = [t for t in (ein, sin) if t is not None]
        if in_terms:
            load = lsum(in_terms)
            if spec.split_fixed:
                model.add(load <= spec.input_pins,
                          name=f"in[{index}]")
            else:
                model.add(load + self.o[index] <= spec.total_pins,
                          name=f"in[{index}]")

        eout = sout = None
        ext_vals = {v: [m for m in ms
                        if m.dest_partition == OUTSIDE_WORLD]
                    for v, ms in out_values.items()}
        star_vals = {v: self._chip_dest_members(ms)
                     for v, ms in out_values.items()}
        if any(ext_vals.values()):
            eout = model.add_var(f"eout[{index}]", 0, bound)
            for k in range(L):
                terms = []
                for value, members in sorted(ext_vals.items()):
                    if members:
                        terms.append(members[0].bit_width
                                     * self._out_term(members, value + "@w",
                                                      k))
                model.add(eout >= lsum(terms))
        if any(star_vals.values()):
            sout = model.add_var(f"sout[{index}]", 0, bound)
            for k in range(L):
                terms = []
                for value, members in sorted(star_vals.items()):
                    if members:
                        terms.append(members[0].bit_width
                                     * self._out_term(members, value, k))
                model.add(sout >= lsum(terms))
        out_terms = [t for t in (eout, sout) if t is not None]
        if out_terms:
            load = lsum(out_terms)
            if spec.split_fixed:
                model.add(load <= spec.output_pins,
                          name=f"out[{index}]")
            else:
                model.add(load - self.o[index] <= 0,
                          name=f"out[{index}]")

    def _build_world(self, ios: List[Node]) -> None:
        """The pseudo partition pays one dedicated bundle per chip."""
        model, L = self.model, self.L
        spec = self.partitioning.chip(OUTSIDE_WORLD)
        chips = [i for i in self.partitioning.indices()
                 if i != OUTSIDE_WORLD]
        out_bundles = []
        in_bundles = []
        for chip in chips:
            to_chip = [n for n in ios
                       if n.source_partition == OUTSIDE_WORLD
                       and n.dest_partition == chip]
            from_chip = [n for n in ios
                         if n.source_partition == chip
                         and n.dest_partition == OUTSIDE_WORLD]
            if to_chip:
                bundle = model.add_var(f"w.out[{chip}]", 0,
                                       spec.total_pins)
                for k in range(L):
                    model.add(bundle >= lsum(
                        n.bit_width * self.x[(n.name, k)]
                        for n in to_chip))
                out_bundles.append(bundle)
            if from_chip:
                bundle = model.add_var(f"w.in[{chip}]", 0,
                                       spec.total_pins)
                for k in range(L):
                    model.add(bundle >= lsum(
                        n.bit_width * self.x[(n.name, k)]
                        for n in from_chip))
                in_bundles.append(bundle)
        # P0's *output* pins drive the system's inputs and vice versa.
        if out_bundles:
            if spec.split_fixed:
                model.add(lsum(out_bundles) <= spec.output_pins,
                          name="world-out")
            else:
                model.add(lsum(out_bundles) - self.o[OUTSIDE_WORLD] <= 0,
                          name="world-out")
        if in_bundles:
            if spec.split_fixed:
                model.add(lsum(in_bundles) <= spec.input_pins,
                          name="world-in")
            else:
                model.add(lsum(in_bundles) + self.o[OUTSIDE_WORLD]
                          <= spec.total_pins, name="world-in")

    # ------------------------------------------------------------------
    def var(self, op: str, group: int) -> Var:
        return self.x[(op, group)]

    def tableau_size(self) -> Tuple[int, int]:
        """(variables, constraints) — Section 3.1.2's sizing."""
        n, _n_int, m = self.model.stats()
        return n, m

    def build_aggregated_model(self) -> Model:
        """The Section 3.1.2 size reduction, as a separate model.

        Single-fanout transfers with the same (source, destination,
        bit width) are interchangeable for feasibility; ``q`` of them
        collapse into one integer variable per group with
        ``sum_k x[class,k] >= q``.  "In practice, most of the values
        have the same bit width[, so] the tableau size can be reduced
        quite a lot."  Used for feasibility probes and size reporting —
        the *incremental* checker keeps per-op variables because
        scheduling pins individual operations.
        """
        graph, L = self.graph, self.L
        model = Model("pin-allocation-aggregated")
        values = graph.values_map()

        classes: Dict[Tuple[int, int, int], List[Node]] = {}
        multi: List[Node] = []
        for node in graph.io_nodes():
            if len(values[node.value or node.name]) > 1:
                multi.append(node)
            else:
                key = (node.source_partition, node.dest_partition,
                       node.bit_width)
                classes.setdefault(key, []).append(node)

        agg: Dict[Tuple[Tuple[int, int, int], int], Var] = {}
        for key, members in sorted(classes.items()):
            q = len(members)
            for k in range(L):
                agg[(key, k)] = model.add_var(
                    f"x[{key[0]}->{key[1]}w{key[2]},{k}]", 0, q)
            model.add(lsum(agg[(key, k)] for k in range(L)) >= q)
        xm: Dict[Tuple[str, int], Var] = {}
        ym: Dict[Tuple[str, int], Var] = {}
        for node in multi:
            for k in range(L):
                xm[(node.name, k)] = model.binary(
                    f"x[{node.name},{k}]")
        for value, members in sorted(values.items()):
            if len(members) <= 1:
                continue
            for k in range(L):
                y = model.binary(f"y[{value},{k}]")
                ym[(value, k)] = y
                model.add(lsum(xm[(m.name, k)] for m in members)
                          <= len(members) * y)
        for node in multi:
            model.add(lsum(xm[(node.name, k)] for k in range(L)) >= 1)

        for index in self.partitioning.indices():
            spec = self.partitioning.chip(index)
            for k in range(L):
                in_terms = []
                for key, members in sorted(classes.items()):
                    if key[1] == index:
                        in_terms.append(key[2] * agg[(key, k)])
                for node in multi:
                    if node.dest_partition == index:
                        in_terms.append(node.bit_width
                                        * xm[(node.name, k)])
                out_terms = []
                for key, members in sorted(classes.items()):
                    if key[0] == index:
                        out_terms.append(key[2] * agg[(key, k)])
                seen = set()
                for node in multi:
                    value = node.value or node.name
                    if node.source_partition == index \
                            and value not in seen:
                        seen.add(value)
                        out_terms.append(node.bit_width
                                         * ym[(value, k)])
                if not in_terms and not out_terms:
                    continue
                if spec.split_fixed:
                    if in_terms:
                        model.add(lsum(in_terms) <= spec.input_pins)
                    if out_terms:
                        model.add(lsum(out_terms) <= spec.output_pins)
                else:
                    o = model.var_by_name(f"o[{index}]") \
                        if f"o[{index}]" in model._names \
                        else model.add_var(f"o[{index}]", 0,
                                           spec.total_pins)
                    if in_terms:
                        model.add(lsum(in_terms) + o <= spec.total_pins)
                    if out_terms:
                        model.add(lsum(out_terms) - o <= 0)
        model.minimize(0)
        return model

    def usage_vector(self, values: Mapping[int, int]
                     ) -> Tuple[int, ...]:
        """Per-chip pin usage of a feasible point, in the coordinates
        of :func:`repro.core.oracle_store.budget_vector`.

        Mirrors the model's own load accounting (bundle peaks over the
        ``L`` groups, shared-output ``y`` terms), so a verdict proved
        feasible here stays feasible at *any* budget vector the usage
        fits — the oracle store's witness shortcut.  The shared-output
        indicators are re-derived from the ``x`` values rather than
        read back (a solver is free to leave a ``y`` at 1 with every
        member unplaced; dropping it keeps the point feasible and the
        witness strictly tighter).
        """

        def xval(node: Node, k: int) -> int:
            return int(values.get(self.x[(node.name, k)].index, 0))

        return _usage_from_assignment(
            self._ios, self._values_map, self.partitioning, self.L,
            xval)

    def solve_with_fixed(self, fixed: Mapping[str, int],
                         budget=None) -> bool:
        """One-shot feasibility with some ops pinned to groups (B&B)."""
        model = _clone_with_fixed(self.model, self.x, fixed)
        return solve_ilp(model, budget=budget).feasible

    def lp_relaxation_feasible(self, fixed: Mapping[str, int]) -> bool:
        """Feasibility of the LP *relaxation* with ops pinned to groups.

        The weakest rung of the degradation chain: relaxation
        feasibility is a necessary condition for ILP feasibility, so a
        "no" here is sound while a "yes" is optimistic — the end-to-end
        :meth:`repro.core.flow.SynthesisResult.require_valid` check
        still guards every answer built on top of it.
        """
        model = _clone_with_fixed(self.model, self.x, fixed)
        return solve_lp(model).status is SolveStatus.OPTIMAL


def _clone_with_fixed(model: Model, x: Mapping[Tuple[str, int], Var],
                      fixed: Mapping[str, int]) -> Model:
    clone = Model(model.name)
    raised = {x[(op, group)].index for op, group in fixed.items()}
    for var in model.vars:
        lb = 1 if var.index in raised else var.lb
        clone.add_var(var.name, lb, var.ub, var.integer)
    clone.constraints = list(model.constraints)
    clone.objective = model.objective
    clone.sense = model.sense
    return clone


class PinAllocationChecker:
    """IoHooks implementation: the bold boxes of Figure 3.4.

    ``method="gomory"`` (default) keeps one incrementally-updated dual
    all-integer tableau, exactly as Section 3.3 describes; ``"bnb"``
    re-solves from scratch with branch & bound (used for cross-checking
    and as an automatic fallback if the cutting planes hit their
    iteration cap).

    Feasibility oracle cache
    ------------------------
    The probe verdict ("would pinning op ``w`` to group ``k`` keep the
    ILP feasible?") is a pure function of the *set* of committed
    ``x_{w,k} >= 1`` bounds plus the probed bound — it does not depend
    on the order bounds were committed or on the cuts accumulated along
    the way (cuts never remove integer points).  The checker therefore
    memoizes verdicts under a canonical fingerprint of the committed
    set; the list scheduler re-probes equivalent states constantly
    (priority ties within a step, postpone/retry passes), and each hit
    skips a full cutting-plane probe.

    The fingerprint cannot catch the commonest repeat, though: an op
    refused in group ``k`` is retried in the same group ``L`` steps
    later, after other ops were committed in between.  Commits only
    add lower bounds, so such a retry is still infeasible — the
    checker keeps the (op, group) pairs an *exact* verdict refuted
    (Gomory, branch & bound, a confirmed warm "no", or a store "no";
    never the LP rung) and answers them without probing for the rest
    of the run.

    Graceful degradation
    --------------------
    Under a :class:`repro.robustness.budget.SolveBudget` the probe
    strategy forms a fallback chain: when the cutting planes exhaust
    their budget share the checker latches onto exact branch & bound;
    when that exhausts too it latches onto the conservative
    LP-relaxation bound (sound "no", optimistic "yes" — the flow-level
    ``require_valid()`` still verifies the final answer).  Every latch
    is recorded on the ``diagnostics`` trail.

    Warm-start tier
    ---------------
    Two optional inputs make near-duplicate solves cheap:

    * ``oracle_store`` — a shared :class:`repro.core.oracle_store
      .OracleStore` (defaults to the process-wide active one).  Exact
      verdicts are published under (design signature, committed set,
      node, group) plus the budget vector; queries are first answered
      from the store, including by budget-dominance, and count as
      ``pin.store_hits``.  With a hot store the checker may never build
      a tableau at all: the base-model feasibility check and the
      store-proven commits are *deferred* until the first genuine probe
      materializes the solver and replays them.
    * ``warm_basis`` — a :class:`repro.ilp.WarmBasis` exported by a
      structurally identical parent solve.  Materialization tries
      :meth:`DualAllIntegerSolver.warm_start` first and falls back to a
      cold build.  A warm tableau carries the parent's Gomory cuts,
      which are valid certificates for "feasible" but not for
      "infeasible" on the perturbed model — so the first infeasible
      verdict from a warm tableau demotes it: the solver is rebuilt
      cold (replaying committed bounds) and the probe re-asked, keeping
      every answer bit-identical to a cold run.
    """

    def __init__(self, graph: Cdfg, partitioning: Partitioning,
                 initiation_rate: int, method: str = "gomory",
                 budget=None, diagnostics=None,
                 oracle_store: Optional[OracleStore] = None,
                 warm_basis=None) -> None:
        if method not in ("gomory", "bnb"):
            raise IlpError(f"unknown method {method!r}")
        self.graph = graph
        self.partitioning = partitioning
        self.L = initiation_rate
        self.method = method
        self.budget = as_token(budget)
        self.diagnostics = diagnostics
        #: Latched budget fallback: None (configured method) -> "bnb"
        #: -> "lp".  Never un-latches within one synthesis run.
        self._degraded_method: Optional[str] = None
        self.fixed: Dict[str, int] = {}
        self.checks = 0
        self.cache_hits = 0
        self.store_hits = 0
        self._oracle: Dict[Tuple[Tuple[Tuple[str, int], ...], str, int],
                           bool] = {}
        self._fingerprint: Tuple[Tuple[str, int], ...] = ()
        #: (op, group) pairs proven infeasible by an exact verdict.
        self._refuted: Set[Tuple[str, int]] = set()
        self._problem: Optional[PinAllocationProblem] = None
        self._solver: Optional[DualAllIntegerSolver] = None
        self._ready = False
        self._warm_active = False
        #: Store-proven commits awaiting replay onto a real tableau.
        self._pending: List[Tuple[str, int]] = []
        #: Bounds already applied to the *current* tableau — a warm
        #: demotion replays all of ``fixed`` at once, so later replay
        #: loops must not commit the same bound twice.
        self._applied: Dict[str, int] = {}
        self._export: Optional[WarmBasis] = None
        if isinstance(warm_basis, dict):
            warm_basis = WarmBasis.from_dict(warm_basis)
        self._warm: Optional[WarmBasis] = warm_basis
        store = oracle_store if oracle_store is not None else get_active()
        #: Private stores replicate the old per-checker memo exactly;
        #: shared ones add cross-solve and dominance answers.
        self._store = store if store is not None else OracleStore()
        self._sig = design_signature(graph, partitioning, initiation_rate)
        self._budget_vec = budget_vector(partitioning)
        init_key = (self._sig, (), INIT_NODE, INIT_GROUP)
        hit = self._store.lookup(init_key, self._budget_vec)
        if hit is not None:
            self.store_hits += 1
            PERF.inc("pin.store_hits")
            if not hit[0]:
                raise InfeasibleError(
                    "no feasible pin allocation exists for this design "
                    "(oracle store)")
            # Known feasible: defer building the tableau until a probe
            # actually needs one.
        else:
            self._materialize()

    # -- lazy materialization --------------------------------------------
    @property
    def problem(self) -> PinAllocationProblem:
        if self._problem is None:
            self._problem = PinAllocationProblem(
                self.graph, self.partitioning, self.L)
        return self._problem

    def _materialize(self) -> None:
        """Build the model and solver, then replay deferred commits.

        Raises :class:`InfeasibleError` when the base model is
        infeasible (recording the proof in the store).
        """
        if self._ready:
            return
        problem = self.problem
        init_key = (self._sig, (), INIT_NODE, INIT_GROUP)
        if self.method == "gomory" and self._degraded_method is None:
            solver = None
            if self._warm is not None:
                solver = DualAllIntegerSolver.warm_start(
                    problem.model, self._warm, budget=self.budget)
            # "Active" here means *suspect*: inherited cuts certify
            # feasible answers only.  A tightening warm start (new rhs
            # <= parent rhs) keeps the cuts valid outright, so its
            # verdicts need no confirmation.
            self._warm_active = (solver is not None
                                 and not getattr(solver, "warm_sound",
                                                 True))
            if solver is None:
                solver = DualAllIntegerSolver(problem.model,
                                              budget=self.budget)
                if not solver.reoptimize():
                    self._store.record(init_key, self._budget_vec, False)
                    raise InfeasibleError(
                        "no feasible pin allocation exists for this "
                        "design (infeasible initial ILP, Section 3.3)")
            self._solver = solver
            self._applied = {}
            self._store.record(init_key, self._budget_vec, True,
                               witness=self._witness_of(solver))
            # Capture the exportable basis now, before any committed
            # x >= 1 bounds make the tableau parent-specific.
            self._export = solver.export_warm_basis()
        else:
            if not problem.solve_with_fixed({}, budget=self.budget):
                self._store.record(init_key, self._budget_vec, False)
                raise InfeasibleError(
                    "no feasible pin allocation exists for this design")
            self._store.record(init_key, self._budget_vec, True)
        self._ready = True
        pending, self._pending = self._pending, []
        for op, group in pending:
            self._commit_to_solver(op, group)

    def _witness_of(self, solver) -> Optional[Tuple[int, ...]]:
        """Pin usage of the solver's current feasible point, or None."""
        values = solver.solution_values()
        if values is None:  # pragma: no cover - all-integer invariant
            return None
        return self.problem.usage_vector(values)

    def _demote_warm(self) -> None:
        """Replace a suspect warm tableau with a cold build.

        Inherited cuts certify "feasible" but not "infeasible"; on the
        first infeasible answer the warm tableau is thrown away, the
        solver rebuilt from the pristine model, and every committed
        bound replayed (each was proved feasible before commit, so the
        replay succeeds unless the budget runs out).
        """
        PERF.inc("pin.warm_demotions")
        self._warm_active = False
        problem = self.problem
        try:
            solver = DualAllIntegerSolver(problem.model,
                                          budget=self.budget)
            if not solver.reoptimize():
                raise InfeasibleError(
                    "no feasible pin allocation exists for this "
                    "design (infeasible initial ILP, Section 3.3)")
            self._solver = solver
            self._applied = {}
            if not self.fixed:
                self._export = solver.export_warm_basis()
            for op, group in self.fixed.items():
                solver.commit_lower_bound(problem.var(op, group))
                self._applied[op] = group
        except BudgetExhausted as exc:
            self._degrade("bnb", exc)

    def _commit_to_solver(self, op: str, group: int) -> None:
        assert self._solver is not None
        if op in self._applied:
            return
        try:
            self._solver.commit_lower_bound(self.problem.var(op, group))
            self._applied[op] = group
        except BudgetExhausted as exc:
            # The commit's re-optimization ran out of budget; the
            # tableau was rolled back, so abandon it and latch onto
            # branch & bound (``self.fixed`` carries the state).
            self._degrade("bnb", exc)
        except InfeasibleError:
            if not self._warm_active:
                raise
            # Spurious infeasibility from inherited cuts: rebuild cold
            # (which replays every committed bound, this one included).
            self._demote_warm()

    # -- IoHooks ---------------------------------------------------------
    def can_schedule(self, node: Node, step: int,
                     schedule: Schedule) -> bool:
        group = step % self.L
        if not self._sharing_consistent(node, step, schedule):
            return False
        self.checks += 1
        PERF.inc("pin.checks")
        key = (self._fingerprint, node.name, group)
        cached = self._oracle.get(key)
        if cached is not None:
            self.cache_hits += 1
            PERF.inc("pin.cache_hits")
            return cached
        pair = (node.name, group)
        store_key = (self._sig, self._fingerprint, node.name, group)
        hit = self._store.lookup(store_key, self._budget_vec)
        if hit is not None:
            self.store_hits += 1
            PERF.inc("pin.store_hits")
            self._oracle[key] = hit[0]
            if not hit[0]:
                self._refuted.add(pair)
            return hit[0]
        if pair in self._refuted:
            # Refuted under a subset of today's committed bounds, so
            # still infeasible.  Publish it as the probe would have.
            self.cache_hits += 1
            PERF.inc("pin.cache_hits")
            self._oracle[key] = False
            self._store.record(store_key, self._budget_vec, False)
            return False
        PERF.inc("pin.cache_misses")
        verdict, exact, witness = self._probe(node, group)
        self._oracle[key] = verdict
        if exact:
            if not verdict:
                self._refuted.add(pair)
            self._store.record(store_key, self._budget_vec, verdict,
                               witness=witness)
        return verdict

    @property
    def active_method(self) -> str:
        """The probe strategy currently in force (after any latches)."""
        return self._degraded_method or self.method

    def _probe(self, node: Node, group: int
               ) -> Tuple[bool, bool, Optional[Tuple[int, ...]]]:
        """Uncached feasibility probe (solver, branch & bound, or LP).

        Returns ``(verdict, exact, witness)``; only exact verdicts
        (cutting planes or branch & bound, never the LP relaxation)
        may enter the shared oracle store.  ``witness`` is the pin
        usage of the feasible point a Gomory probe found, letting the
        store transfer the "yes" to every budget it fits.
        """
        tentative = dict(self.fixed)
        tentative[node.name] = group
        if self.active_method == "gomory":
            self._materialize()
        if self.active_method == "gomory":
            assert self._solver is not None
            var = self.problem.var(node.name, group)
            try:
                verdict, values = self._solver.probe_lower_bound(var)
                if not verdict and self._warm_active:
                    # Suspect "no": a relaxed warm model inherits cuts
                    # that may over-constrain.  Confirm cheaply — an
                    # infeasible LP relaxation is a sound "no" and the
                    # tableau survives; otherwise ask branch & bound
                    # for the exact answer and demote the tableau only
                    # if it provably lied.
                    PERF.inc("pin.warm_confirms")
                    if not self.problem.lp_relaxation_feasible(tentative):
                        return False, True, None
                    confirmed = self.problem.solve_with_fixed(
                        tentative, budget=self.budget)
                    if confirmed:
                        self._demote_warm()
                    return confirmed, True, None
                witness = (self.problem.usage_vector(values)
                           if verdict and values is not None else None)
                return verdict, True, witness
            except BudgetExhausted as exc:
                self._degrade("bnb", exc)
            except IlpError:
                # Cutting-plane cap: fall back to exact branch & bound
                # for this probe only (no budget involved, no latch).
                PERF.inc("pin.bnb_fallbacks")
                return self.problem.solve_with_fixed(
                    tentative, budget=self.budget), True, None
        if self.active_method == "bnb":
            try:
                return self.problem.solve_with_fixed(
                    tentative, budget=self.budget), True, None
            except BudgetExhausted as exc:
                self._degrade("lp", exc)
        # Weakest rung: one bounded LP-relaxation solve, not ticked
        # against the budget (it IS the last-resort answer).
        return self.problem.lp_relaxation_feasible(tentative), False, None

    def _degrade(self, to: str, exc: BudgetExhausted) -> None:
        """Latch onto a cheaper probe strategy for the rest of the run."""
        frm = self.active_method
        self._degraded_method = to
        PERF.inc(f"pin.budget_fallback_{to}")
        # Verdicts cached under the stronger method stay valid for
        # "no" but may be sharper than the weaker oracle; keep them —
        # they are sound answers to the same question.
        if self.diagnostics is not None:
            detail = exc.progress()
            detail.pop("phase", None)
            self.diagnostics.record_fallback(
                "pin_allocation", frm=frm, to=to, **detail)

    def commit(self, node: Node, step: int, schedule: Schedule) -> None:
        group = step % self.L
        proven = self._oracle.get((self._fingerprint, node.name, group))
        self.fixed[node.name] = group
        self._fingerprint = tuple(sorted(self.fixed.items()))
        if self.method == "gomory" and self._degraded_method is None:
            if not self._ready and proven:
                # The tableau was never built and the store already
                # proved this placement feasible: defer the Eq 3.12
                # -> 3.13 update until something actually probes.
                self._pending.append((node.name, group))
                return
            self._materialize()
            self._commit_to_solver(node.name, group)

    # -- warm-start export -----------------------------------------------
    def export_warm_basis(self) -> Optional[WarmBasis]:
        """A :class:`WarmBasis` for structurally-identical neighbors.

        Captured at materialization time (pre-commit tableau); when the
        store answered everything and no tableau was ever built, the
        inherited parent basis is passed through unchanged.
        """
        if self._export is not None:
            return self._export
        return self._warm

    def finalize(self) -> None:
        """Re-record the finished schedule's trajectory, tightly.

        A completed schedule is one concrete feasible point of the pin
        ILP — and of every intermediate ILP along the commit trajectory
        (dropping the extra placements only lowers the ``<=``-form
        loads, and each cover row keeps its one placement).  Its usage
        vector is therefore a witness for the init query *and* every
        (prefix, op, group) step actually taken, far tighter than the
        arbitrary feasible points the probes happened to find.  With
        these on record, a neighbor solve whose budgets fit the usage
        replays the whole trajectory straight from the store and never
        materializes a tableau.

        Skipped when the LP rung answered anything (optimistic "yes"
        verdicts must not seed the store as proofs).
        """
        if self._degraded_method == "lp":
            return
        io_names = {n.name for n in self.graph.io_nodes()}
        if not io_names or set(self.fixed) != io_names:
            return  # partial schedule: nothing sound to re-record
        usage = assignment_usage(self.graph, self.partitioning, self.L,
                                 self.fixed)
        self._store.record((self._sig, (), INIT_NODE, INIT_GROUP),
                           self._budget_vec, True, witness=usage)
        prefix: Dict[str, int] = {}
        for op, group in self.fixed.items():  # insertion == commit order
            key = (self._sig, tuple(sorted(prefix.items())), op, group)
            self._store.record(key, self._budget_vec, True,
                               witness=usage)
            prefix[op] = group

    def oracle_stats(self) -> Dict[str, int]:
        """Checker-level cache/store hit counts (for flow stats)."""
        return {
            "checks": self.checks,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
        }

    # ---------------------------------------------------------------
    def _sharing_consistent(self, node: Node, step: int,
                            schedule: Schedule) -> bool:
        """Same-value transfers in one group must be in one *step*.

        The group-granular ILP lets sibling transfers of one value share
        output pins within a control-step group; physically they carry
        different pipeline instances unless they are in the very same
        control step, so the checker forbids the mixed case.
        """
        group = step % self.L
        for sibling in self.graph.values_map().get(node.value, []):
            if sibling.name == node.name:
                continue
            if not schedule.is_scheduled(sibling.name):
                continue
            other = schedule.step(sibling.name)
            if other % self.L == group and other != step:
                return False
        return True
