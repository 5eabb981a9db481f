"""Gomory's dual all-integer cutting-plane algorithm (Section 3.3).

The pin-allocation ILP has all-integer data and a trivial objective, so
its initial tableau is dual feasible and all-integer.  Each iteration of
the dual simplex generates an all-integer cut from the pivot row chosen
so the pivot element is exactly ``-1``; pivoting then keeps every
tableau entry integral.  The scheduler re-checks feasibility before each
I/O operation is placed by adding ``x_{w,k} >= 1`` to the *current*
tableau via the substitution update of Equations 3.12 -> 3.13 (the rhs
column decreases by the variable's current column), then resuming the
cutting-plane loop — usually a handful of iterations, since the feasible
region changed only slightly.

Performance architecture
------------------------
Because every entry stays integral, the whole solver runs on the sparse
integer fast path of :class:`repro.ilp.tableau.Tableau` (per-row
denominators are provably 1 throughout, asserted cheaply).  Feasibility
probes (``try_lower_bound`` / ``check_feasible``) no longer copy the
tableau: they drop a :meth:`Tableau.mark`, run the cutting-plane loop,
and roll back through the undo journal in O(touched) — the old
``snapshot()/restore()`` protocol cost O(rows x cols) Fraction copies
per probe and dominated every scheduling run.  ``snapshot``/``restore``
remain available for callers that need a detached deep copy.

The scheduler commits almost every bound right after probing it, so a
feasible probe *parks* its re-optimized tableau instead of rolling it
back: a :meth:`~DualAllIntegerSolver.commit_lower_bound` of the same
bound adopts it outright (the re-solve would replay the very same
deterministic pivots from the very same state), and every other public
entry point rolls the parked state back first, so callers only ever see
the rolled-back solver.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import IlpError, InfeasibleError
from repro.ilp.model import Model, Sense, Solution, SolveStatus, Var
from repro.ilp.tableau import Tableau, ZERO, ONE
from repro.perf import PERF
from repro.robustness.budget import BudgetExhausted, as_token


def _require_integer(value: Fraction, what: str) -> int:
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise IlpError(f"{what} must be integral, got {value}")
    return int(value)


def build_initial(model: Model) -> Tuple[
        List[Tuple[Dict[int, int], int]], Dict[int, int], Dict[int, int]]:
    """Initial (gcd-reduced) row set for the dual all-integer tableau.

    Returns ``(rows, cost, shifts)``: the ``<=``-form rows (coefficient
    dict, reduced rhs) in canonical build order — per-variable upper
    bounds first, then constraints — the minimization cost dict over
    structural columns, and the per-variable lower-bound shifts.  This
    is the shared front half of a cold :class:`DualAllIntegerSolver`
    build and of warm-start compatibility checking: two models whose
    rows differ only in the reduced rhs values share a tableau
    *structure* and can exchange a :class:`WarmBasis`.
    """
    n_vars = len(model.vars)
    direction = 1 if model.sense is Sense.MINIMIZE else -1

    cost: Dict[int, int] = {}  # structural columns; slacks stay 0
    for idx, coef in model.objective.terms.items():
        value = _require_integer(coef, "objective coeff") * direction
        if value < 0:
            raise IlpError(
                "initial tableau is not dual feasible: objective "
                f"coefficient of {model.vars[idx].name} is negative "
                "in minimization form")
        if value:
            cost[idx] = value

    rows: List[Tuple[Dict[int, int], int]] = []
    shifts: Dict[int, int] = {}

    def push_le(coeffs: Dict[int, int], b: int) -> None:
        # Euclidean row reduction: dividing an all-integer row by the
        # gcd of its coefficients (flooring the rhs) preserves the
        # integer feasible set and makes +-1 pivots far more common,
        # which slashes the number of cuts the dual all-integer
        # algorithm needs.
        g = 0
        for c in coeffs.values():
            g = math.gcd(g, c)
        if g > 1:
            coeffs = {i: c // g for i, c in coeffs.items()}
            b = b // g  # floor division: b may be negative
        rows.append((coeffs, b))

    for var in model.vars:
        if not var.integer:
            raise IlpError(
                f"dual all-integer solver needs integer variables; "
                f"{var.name} is continuous")
        lb = _require_integer(var.lb, f"lower bound of {var.name}")
        shifts[var.index] = lb
        if var.ub is not None:
            ub = _require_integer(var.ub, f"upper bound of {var.name}")
            push_le({var.index: 1}, ub - lb)

    for constraint in model.constraints:
        shift = constraint.expr.const
        coeffs: Dict[int, int] = {}
        for i, c in constraint.expr.terms.items():
            ci = _require_integer(c, "constraint coefficient")
            coeffs[i] = ci
            shift += ci * model.vars[i].lb
        b = _require_integer(-shift, "constraint constant")
        if constraint.op == "<=":
            push_le(coeffs, b)
        elif constraint.op == ">=":
            push_le({i: -c for i, c in coeffs.items()}, -b)
        else:  # ==
            push_le(dict(coeffs), b)
            push_le({i: -c for i, c in coeffs.items()}, -b)

    assert n_vars == len(shifts)
    return rows, cost, shifts


def structure_signature(model: Model,
                        rows: List[Tuple[Dict[int, int], int]],
                        cost: Dict[int, int]) -> str:
    """Content hash of everything a warm start must match exactly.

    Covers variable names/order/integrality/bound *presence* and every
    row's coefficient pattern plus the cost row — but **not** the rhs
    values (those are the perturbation a warm start absorbs) and not
    the bound/lower-bound *values* (they only move the reduced rhs).
    """
    payload = {
        "vars": [(v.name, bool(v.integer), v.ub is not None)
                 for v in model.vars],
        "rows": [sorted(coeffs.items()) for coeffs, _b in rows],
        "cost": sorted(cost.items()),
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


@dataclass
class WarmBasis:
    """A solved tableau exported for reuse on a structure-identical model.

    The snapshot is the *initial* optimized state of a parent solver —
    taken after the first :meth:`DualAllIntegerSolver.reoptimize` and
    before any committed lower bounds — together with the parent's
    initial reduced rhs vector.  Restoring onto a new model whose
    :func:`structure_signature` matches replays only the rhs deltas
    through the initial rows' slack columns (every final tableau row is
    the recorded linear combination of initial rows, and that
    combination is rhs-independent), then resumes the cutting-plane
    loop.  See DESIGN.md §12 for the soundness rules; all entries are
    integers (the all-integer invariant), so the snapshot is JSON
    round-trippable via :meth:`to_dict`.
    """

    signature: str
    n_structural: int
    n_cols: int
    initial_rhs: List[int]
    rows: List[Dict[int, int]]
    rhs: List[int]
    basis: List[int]
    cost_nums: Dict[int, int]
    cost_rhs: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "signature": self.signature,
            "n_structural": self.n_structural,
            "n_cols": self.n_cols,
            "initial_rhs": list(self.initial_rhs),
            "rows": [{str(j): v for j, v in row.items()}
                     for row in self.rows],
            "rhs": list(self.rhs),
            "basis": list(self.basis),
            "cost_nums": {str(j): v for j, v in self.cost_nums.items()},
            "cost_rhs": self.cost_rhs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WarmBasis":
        return cls(
            signature=str(data["signature"]),
            n_structural=int(data["n_structural"]),
            n_cols=int(data["n_cols"]),
            initial_rhs=[int(v) for v in data["initial_rhs"]],
            rows=[{int(j): int(v) for j, v in row.items()}
                  for row in data["rows"]],
            rhs=[int(v) for v in data["rhs"]],
            basis=[int(v) for v in data["basis"]],
            cost_nums={int(j): int(v)
                       for j, v in data["cost_nums"].items()},
            cost_rhs=int(data["cost_rhs"]),
        )


class DualAllIntegerSolver:
    """Feasibility/optimization of all-integer dual-feasible ILPs.

    Requirements checked at construction time:

    * every variable is integer with an integral lower bound;
    * every constraint coefficient and constant is integral;
    * the (minimization-form) objective has non-negative integral
      coefficients — the trivial ``minimize 0`` of the pin-allocation
      problem qualifies.
    """

    def __init__(self, model: Model, max_iter: int = 50_000,
                 budget=None) -> None:
        self.model = model
        self.max_iter = max_iter
        #: Cooperative cancellation token (SolveBudget/BudgetToken/None);
        #: ticked once per cutting-plane iteration in :meth:`reoptimize`.
        self.budget = as_token(budget)
        self._shifts: Dict[int, int] = {}
        self._col_of: Dict[int, int] = {}
        self._shift_log: List[Tuple[int, int]] = []
        #: ``(undo token, var index, amount)`` of a feasible probe whose
        #: re-optimized tableau is kept for a matching commit.
        self._parked: Optional[Tuple[Any, int, int]] = None
        self.cuts_generated = 0
        self.pivots = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        model = self.model
        n = len(model.vars)
        rows, cost, shifts = build_initial(model)
        self._shifts = shifts
        self._initial_rhs = [b for _coeffs, b in rows]

        m = len(rows)
        tab_rows: List[Tuple[Dict[int, int], int]] = []
        basis: List[int] = []
        for i, (coeffs, b) in enumerate(rows):
            row = dict(coeffs)
            row[n + i] = 1  # slack
            tab_rows.append((row, b))
            basis.append(n + i)
        self.tableau = Tableau.from_sparse(n + m, tab_rows, cost, basis)
        self.tableau.enable_undo()
        for var in model.vars:
            self._col_of[var.index] = var.index

    # -- warm starts ----------------------------------------------------
    def export_warm_basis(self) -> Optional["WarmBasis"]:
        """Snapshot the current tableau as a :class:`WarmBasis`.

        Only exports *initial* states: after committed lower bounds the
        tableau encodes bounds a structure-identical sibling model does
        not have, so the export refuses (returns ``None``).  Likewise
        if any row left the all-integer fast path (never happens on the
        Gomory path, checked defensively).
        """
        self._unpark()
        if self._shift_log:
            return None
        tab = self.tableau
        for var in self.model.vars:
            if self._shifts[var.index] != _require_integer(
                    var.lb, f"lower bound of {var.name}"):
                return None
        if tab._cost_den != 1 or any(d != 1 for d in tab._dens):
            return None  # pragma: no cover - all-integer invariant
        rows, cost, _shifts = build_initial(self.model)
        return WarmBasis(
            signature=structure_signature(self.model, rows, cost),
            n_structural=len(self.model.vars),
            n_cols=tab.n_cols,
            initial_rhs=list(self._initial_rhs),
            rows=[dict(r) for r in tab._nums],
            rhs=list(tab._rhs_num),
            basis=list(tab.basis),
            cost_nums=dict(tab._cost_nums),
            cost_rhs=tab._cost_rhs,
        )

    @classmethod
    def warm_start(cls, model: Model, warm: WarmBasis,
                   max_iter: int = 50_000,
                   budget=None) -> Optional["DualAllIntegerSolver"]:
        """Solver for ``model`` started from a parent's solved tableau.

        Accepts when ``model`` shares the parent's tableau structure
        (same variables, same row coefficient patterns — only reduced
        rhs values may differ) **and** the resumed cutting-plane loop
        restores primal feasibility.  The rhs perturbation is replayed
        exactly: every final tableau row is a fixed linear combination
        of initial rows whose weights are the row's entries in the
        initial slack columns, so ``rhs[i] += delta_j * row[i][n + j]``.

        Returns ``None`` — counting ``gomory.warm_rejected`` — on any
        structure mismatch, on an iteration cap, or when the warm
        tableau reoptimizes to *infeasible*: the parent's Gomory cuts
        are valid for the new rhs only as one-sided evidence (a feasible
        basis is a genuine integer point of the new system, but an
        infeasible verdict may be an artifact of cuts derived for the
        old rhs), so infeasibility must be re-proved cold.
        """
        PERF.inc("gomory.warm_attempts")
        try:
            rows, cost, shifts = build_initial(model)
        except IlpError:
            PERF.inc("gomory.warm_rejected")
            return None
        if (len(rows) != len(warm.initial_rhs)
                or len(model.vars) != warm.n_structural
                or structure_signature(model, rows, cost)
                != warm.signature):
            PERF.inc("gomory.warm_rejected")
            return None

        solver = cls.__new__(cls)
        solver.model = model
        solver.max_iter = max_iter
        solver.budget = as_token(budget)
        solver._shifts = shifts
        solver._col_of = {var.index: var.index for var in model.vars}
        solver._shift_log = []
        solver._parked = None
        solver.cuts_generated = 0
        solver.pivots = 0
        solver._initial_rhs = [b for _coeffs, b in rows]
        # Every initial row is <=-form with identical coefficients, so
        # rhs <= parent rhs component-wise means the new feasible set
        # is a *subset* of the parent's — the inherited cuts are then
        # valid outright and even "infeasible" answers are sound.
        solver.warm_sound = all(
            new_b <= old_b for old_b, new_b
            in zip(warm.initial_rhs, solver._initial_rhs))

        nums = [dict(r) for r in warm.rows]
        rhs = list(warm.rhs)
        cost_nums = dict(warm.cost_nums)
        cost_rhs = warm.cost_rhs
        n = warm.n_structural
        for j, (old_b, new_b) in enumerate(zip(warm.initial_rhs,
                                               solver._initial_rhs)):
            delta = new_b - old_b
            if not delta:
                continue
            col = n + j
            for i in range(len(nums)):
                w = nums[i].get(col, 0)
                if w:
                    rhs[i] += w * delta
            cw = cost_nums.get(col, 0)
            if cw:
                cost_rhs += cw * delta
        tab = Tableau.from_sparse(
            warm.n_cols, list(zip(nums, rhs)), cost_nums,
            list(warm.basis))
        tab._cost_rhs = cost_rhs
        tab._rebuild_shadow()
        solver.tableau = tab
        solver.tableau.enable_undo()
        try:
            feasible = solver.reoptimize()
        except (IlpError, BudgetExhausted):
            PERF.inc("gomory.warm_rejected")
            return None
        if not feasible:
            PERF.inc("gomory.warm_rejected")
            return None
        PERF.inc("gomory.warm_accepted")
        return solver

    # -- undo-log backtracking -----------------------------------------
    def _mark(self):
        """Checkpoint of tableau + shifts + counters for :meth:`_undo`."""
        self._unpark()
        return (self.tableau.mark(), len(self._shift_log),
                self.cuts_generated, self.pivots)

    def _unpark(self) -> None:
        """Roll back a parked feasible probe (no-op when none is)."""
        if self._parked is not None:
            token = self._parked[0]
            self._parked = None
            self._undo(token)

    def _undo(self, token) -> None:
        tab_mark, shift_mark, cuts, pivots = token
        self.tableau.undo_to(tab_mark)
        while len(self._shift_log) > shift_mark:
            idx, amount = self._shift_log.pop()
            self._shifts[idx] -= amount
        self.cuts_generated = cuts
        self.pivots = pivots

    def _commit_journal(self) -> None:
        """Forget undo state: committed changes are never rolled back."""
        self.tableau.journal_clear()
        self._shift_log.clear()

    # -- detached deep-copy snapshots (debugging / external callers) ---
    def snapshot(self) -> Tuple[Tableau, Dict[int, int], int, int]:
        self._unpark()
        return (self.tableau.copy(), dict(self._shifts),
                self.cuts_generated, self.pivots)

    def restore(self, state) -> None:
        tableau, shifts, cuts, pivots = state
        self.tableau = tableau
        self.tableau.enable_undo()
        self._shifts = shifts
        self._shift_log = []
        self._parked = None
        self.cuts_generated = cuts
        self.pivots = pivots

    # ------------------------------------------------------------------
    def add_lower_bound(self, var: Var, amount: int = 1) -> None:
        """Raise ``var``'s lower bound by ``amount`` incrementally.

        Implements the tableau update of Equations 3.12 -> 3.13:
        substituting ``x = x' + amount`` subtracts ``amount`` times the
        variable's current column from the rhs column.
        """
        if amount <= 0:
            raise IlpError("amount must be positive")
        self._unpark()
        col = self._col_of[var.index]
        self.tableau.apply_column_shift(col, amount)
        self._shifts[var.index] += amount
        self._shift_log.append((var.index, amount))

    # ------------------------------------------------------------------
    def reoptimize(self) -> bool:
        """Run the dual all-integer loop; True iff (still) feasible."""
        PERF.inc("gomory.reoptimize_calls")
        self._unpark()
        tab = self.tableau
        nums = tab._nums
        rhs = tab._rhs_num
        budget = self.budget
        for _ in range(self.max_iter):
            if budget is not None:
                budget.tick("gomory")
            # Re-fetch each round: pivots replace the cost dict
            # copy-on-write, so a loop-wide alias would go stale.
            cost = tab._cost_nums
            # Most-negative-rhs row selection (all dens are 1 here: the
            # initial data is integral and every pivot element is -1).
            row = -1
            most_negative = 0
            for i in range(len(rhs)):
                value = rhs[i]
                if value < most_negative:
                    most_negative = value
                    row = i
            if row < 0:
                return True

            # Eligible columns: negative entries in the pivot row.  The
            # sparse row yields only its nonzeros, so this is O(nnz).
            prow = nums[row]
            eligible = [j for j, v in prow.items() if v < 0]
            if not eligible:
                return False

            # Column choice: smallest reduced cost (guarantees m_j >= 1
            # below); among cost ties prefer entries of -1 — they pivot
            # directly without generating a cut — then small magnitudes.
            k = min(eligible,
                    key=lambda j: (cost.get(j, 0), -prow[j] != 1,
                                   -prow[j], j))
            cost_k = cost.get(k, 0)
            # lam as an exact ratio lam_num/lam_den (both positive).
            lam_num = -prow[k]
            lam_den = 1
            if cost_k != 0:
                for j in eligible:
                    if j == k:
                        continue
                    m_j = cost.get(j, 0) // cost_k  # floor; >= 1 by k
                    cand = -prow[j]
                    if cand * lam_den > lam_num * m_j:
                        lam_num = cand
                        lam_den = m_j

            if lam_num == lam_den:
                # Pivot element is already -1: plain dual-simplex pivot.
                tab.pivot(row, k)
                self.pivots += 1
                continue

            # Generate the all-integer cut floor(row / lam) and pivot on
            # its k entry, which equals -1 by construction.  lam > 0, so
            # zero entries floor to zero and stay out of the sparse row.
            cut: Dict[int, int] = {}
            for j, v in prow.items():
                c = (v * lam_den) // lam_num
                if c:
                    cut[j] = c
            cut_rhs = (rhs[row] * lam_den) // lam_num
            slack_col = tab.add_column(0)
            cut[slack_col] = 1
            cut_row = tab.add_row(cut, cut_rhs, slack_col)
            if nums[cut_row].get(k, 0) != -1:  # pragma: no cover
                raise IlpError("all-integer cut pivot is not -1")
            tab.pivot(cut_row, k)
            self.cuts_generated += 1
            self.pivots += 1
            PERF.inc("gomory.cuts")
        raise IlpError("dual all-integer iteration limit exceeded")

    # ------------------------------------------------------------------
    def check_feasible(self) -> bool:
        """Non-destructively check feasibility of the current state."""
        PERF.inc("gomory.checks")
        token = self._mark()
        try:
            return self.reoptimize()
        finally:
            self._undo(token)

    def try_lower_bound(self, var: Var, amount: int = 1) -> bool:
        """Would raising the bound keep the ILP feasible?

        Leaves the solver as it was, as seen through every public
        method (a feasible probe stays parked for a matching commit).
        """
        return self.probe_lower_bound(var, amount)[0]

    def probe_lower_bound(self, var: Var, amount: int = 1
                          ) -> Tuple[bool, Optional[Dict[int, int]]]:
        """:meth:`try_lower_bound` plus the feasible point it found.

        Returns ``(feasible, values)`` where ``values`` maps variable
        index to its integral value in the re-optimized solution (or
        ``None`` when infeasible) — the *witness* callers hand to the
        oracle store so "feasible" verdicts transfer to every budget
        vector the witness still fits.  An infeasible probe rolls back
        at once; a feasible one parks its re-optimized tableau, which a
        :meth:`commit_lower_bound` of the same bound adopts and any
        other public method rolls back first.
        """
        PERF.inc("gomory.probes")
        token = self._mark()
        self.add_lower_bound(var, amount)
        try:
            feasible = self.reoptimize()
            values = self.solution_values() if feasible else None
        except (IlpError, BudgetExhausted):
            self._undo(token)
            raise
        if feasible:
            self._parked = (token, var.index, amount)
        else:
            self._undo(token)
        return feasible, values

    def solution_values(self) -> Optional[Dict[int, int]]:
        """Integral values of the current basic solution, by var index."""
        self._unpark()
        basic = self.tableau.integral_basic_values()
        if basic is None:  # pragma: no cover - all-integer invariant
            return None
        return {var.index: int(basic.get(self._col_of[var.index], 0)
                               + self._shifts[var.index])
                for var in self.model.vars}

    def commit_lower_bound(self, var: Var, amount: int = 1) -> None:
        """Raise the bound for real; raises if it makes the ILP infeasible."""
        with PERF.phase("gomory.commit"):
            self._commit_lower_bound(var, amount)

    def _commit_lower_bound(self, var: Var, amount: int = 1) -> None:
        PERF.inc("gomory.commits")
        parked = self._parked
        if parked is not None and parked[1:] == (var.index, amount):
            # The parked probe already re-optimized this exact bound
            # from this exact state; re-solving would replay it pivot
            # for pivot.
            self._parked = None
            self._commit_journal()
            return
        token = self._mark()
        self.add_lower_bound(var, amount)
        feasible = False
        try:
            feasible = self.reoptimize()
        finally:
            if not feasible:
                self._undo(token)
        if not feasible:
            raise InfeasibleError(
                f"raising {var.name} by {amount} makes the pin allocation "
                f"infeasible")
        # The bound is permanent: truncate the undo log so memory stays
        # bounded by the work since the last commit.
        self._commit_journal()

    # ------------------------------------------------------------------
    def solve(self) -> Solution:
        """Solve to optimality (for models with a dual-feasible start)."""
        with PERF.phase("gomory.solve"):
            return self._solve()

    def _solve(self) -> Solution:
        if not self.reoptimize():
            return Solution(SolveStatus.INFEASIBLE)
        values: Dict[int, Fraction] = {}
        basic = self.tableau.integral_basic_values()
        if basic is None:  # pragma: no cover - all-integer invariant
            raise IlpError("dual all-integer tableau left a fractional rhs")
        for var in self.model.vars:
            col = self._col_of[var.index]
            value = Fraction(basic.get(col, 0) + self._shifts[var.index])
            values[var.index] = value
        objective = self.model.objective.value(values)
        return Solution(SolveStatus.OPTIMAL, objective, values)
