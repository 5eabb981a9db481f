"""Properties of the fast ILP kernel: oracle cache, undo log, shadow.

The guarantees the performance work must not erode:

1. the memoized feasibility oracle in :class:`PinAllocationChecker`
   returns exactly what a cold, from-scratch solve returns, at every
   point of a randomized commit walk;
2. rejected probes roll the solver tableau back to byte-identical
   sparse state (not merely equivalent values);
3. cross-check mode — every sparse mutation mirrored onto the dense
   Fraction reference tableau — passes on small models end to end;
4. a feasible probe's parked tableau is invisible to every public
   entry point, and a commit that adopts it ends in the same state as
   a commit that re-solves;
5. every "no" the checker gives without probing (fingerprint memo,
   store, infeasibility memo) agrees with branch & bound.
"""

from fractions import Fraction

import pytest

from repro.check.fuzz import generate_cases
from repro.core.flow import synthesize
from repro.core.pin_allocation import PinAllocationChecker
from repro.designs import (AR_SIMPLE_PINS, ar_simple_design,
                           random_partitioned_design)
from repro.errors import ReproError
from repro.explore.worker import resolve_timing
from repro.ilp import (DualAllIntegerSolver, Model, SolveStatus,
                       cross_check_enabled, lsum, set_cross_check,
                       solve_ilp, solve_lp)
from repro.modules.library import ar_filter_timing
from repro.perf import PERF
from repro.robustness import SolveBudget
from repro.scheduling.base import Schedule
from repro.service.catalog import design_space


def _packing_model(n_items, caps):
    m = Model()
    xs = {}
    for w in range(n_items):
        for k in range(len(caps)):
            xs[w, k] = m.binary(f"x{w}_{k}")
        m.add(lsum(xs[w, k] for k in range(len(caps))) >= 1)
    for k, cap in enumerate(caps):
        m.add(lsum(xs[w, k] for w in range(n_items)) <= cap)
    m.minimize(0)
    return m, xs


# ---------------------------------------------------------------------
class TestOracleCache:
    def _walk(self, graph, partitioning, L):
        """Greedy commit walk over io nodes, probing twice per state."""
        checker = PinAllocationChecker(graph, partitioning, L)
        schedule = Schedule(graph, ar_filter_timing(), L)
        for node in graph.io_nodes():
            for step in range(2 * L):
                cached = checker.can_schedule(node, step, schedule)
                again = checker.can_schedule(node, step, schedule)
                assert again == cached, "cache is not idempotent"
                # Independent reference: a cold branch & bound solve of
                # the same model with the same committed + probed bounds.
                tentative = dict(checker.fixed)
                tentative[node.name] = step % L
                cold = checker.problem.solve_with_fixed(tentative)
                assert cached == cold, (
                    f"oracle/cold disagreement at {node.name} "
                    f"step {step} with fixed={checker.fixed}")
                if cached:
                    checker.commit(node, step, schedule)
                    break
        assert checker.cache_hits > 0

    def test_ar_simple_walk(self):
        self._walk(ar_simple_design(), AR_SIMPLE_PINS, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_design_walk(self, seed):
        graph, partitioning = random_partitioned_design(seed, n_chips=2,
                                                        n_ops=8)
        try:
            self._walk(graph, partitioning, 2)
        except ReproError:
            pytest.skip("random instance infeasible from the start")

    def test_cache_distinguishes_commit_states(self):
        """Same probe, different committed set -> separate entries."""
        graph = ar_simple_design()
        checker = PinAllocationChecker(graph, AR_SIMPLE_PINS, 2)
        schedule = Schedule(graph, ar_filter_timing(), 2)
        ios = list(graph.io_nodes())
        probe = ios[0]
        checker.can_schedule(probe, 0, schedule)
        checker.commit(ios[1], 0, schedule)
        before = len(checker._oracle)
        checker.can_schedule(probe, 0, schedule)
        assert len(checker._oracle) == before + 1


# ---------------------------------------------------------------------
def _sparse_state(tableau):
    """The complete internal sparse representation, for byte-equality."""
    return (list(tableau._nums), list(tableau._rhs_num),
            list(tableau._dens), dict(tableau._cost_nums),
            tableau._cost_rhs, tableau._cost_den, list(tableau.basis))


class TestUndoLog:
    def test_rejected_probes_restore_identical_state(self):
        m, xs = _packing_model(3, [2, 1])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        solver.commit_lower_bound(xs[1, 0])
        state = _sparse_state(solver.tableau)
        shifts = dict(solver._shifts)
        # Feasible and infeasible probes alike must leave no trace.
        assert not solver.try_lower_bound(xs[2, 0])
        assert solver.try_lower_bound(xs[2, 1])
        assert not solver.try_lower_bound(xs[2, 0])
        assert _sparse_state(solver.tableau) == state
        assert solver._shifts == shifts

    def test_failed_commit_rolls_back(self):
        m, xs = _packing_model(2, [1, 1])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        state = _sparse_state(solver.tableau)
        with pytest.raises(ReproError):
            solver.commit_lower_bound(xs[1, 0])  # bin 0 is full
        assert _sparse_state(solver.tableau) == state
        # ... and the solver is still usable afterwards.
        assert solver.try_lower_bound(xs[1, 1])

    def test_journal_truncated_after_commit(self):
        """Commits are permanent: the undo journal must not keep them."""
        m, xs = _packing_model(3, [2, 2])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        assert not solver.tableau._journal, \
            "journal should be empty right after a commit"


# ---------------------------------------------------------------------
class TestCrossCheck:
    """Shadow-verified runs on small models (the debug mode itself)."""

    def _with_shadow(self, fn):
        was_on = cross_check_enabled()
        set_cross_check(True)
        try:
            return fn()
        finally:
            set_cross_check(was_on)

    def test_gomory_probe_cycle(self):
        def run():
            m, xs = _packing_model(3, [2, 1])
            solver = DualAllIntegerSolver(m)
            assert solver.reoptimize()
            solver.commit_lower_bound(xs[0, 0])
            assert not solver.try_lower_bound(xs[1, 0]) \
                or solver.try_lower_bound(xs[1, 0])
            solver.commit_lower_bound(xs[1, 1])
            assert solver.check_feasible()
        self._with_shadow(run)

    def test_lp_and_ilp(self):
        def run():
            m, xs = _packing_model(3, [2, 2])
            lp = solve_lp(m)
            assert lp.status is SolveStatus.OPTIMAL
            ilp = solve_ilp(m)
            assert ilp.status is SolveStatus.OPTIMAL
            assert all(v.denominator == 1 for v in ilp.values.values())
        self._with_shadow(run)

    def test_fractional_pivot_path(self):
        """An LP whose optimum is fractional exercises den != 1 rows."""
        def run():
            m = Model()
            x = m.add_var("x", lb=0)
            y = m.add_var("y", lb=0)
            m.add(2 * x + y <= 3)
            m.add(x + 2 * y <= 3)
            m.maximize(x + y)
            lp = solve_lp(m)
            assert lp.status is SolveStatus.OPTIMAL
            assert lp.objective == Fraction(2)
        self._with_shadow(run)


# ---------------------------------------------------------------------
def _committed_pair(n_items=4, caps=(3, 2)):
    """Two identically built solvers with one bound already committed."""
    solvers = []
    for _ in range(2):
        m, xs = _packing_model(n_items, list(caps))
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        solvers.append((solver, xs))
    return solvers


def _seen(solver):
    """Tableau, shifts and counters as the public API reports them."""
    tableau, shifts, cuts, pivots = solver.snapshot()
    return _sparse_state(tableau), shifts, cuts, pivots


class TestParkedProbe:
    """A feasible probe parks its tableau; nobody else may see it.

    ``parked`` probes ``v`` first, ``fresh`` never does: every public
    entry point must behave on ``parked`` exactly as on ``fresh``.
    """

    def test_other_probe_sees_rolled_back_state(self):
        (parked, xs), (fresh, _) = _committed_pair()
        assert parked.try_lower_bound(xs[1, 0])
        assert parked.probe_lower_bound(xs[2, 1]) \
            == fresh.probe_lower_bound(xs[2, 1])
        assert _seen(parked) == _seen(fresh)

    def test_check_feasible_sees_rolled_back_state(self):
        (parked, xs), (fresh, _) = _committed_pair()
        assert parked.try_lower_bound(xs[1, 0])
        assert parked.check_feasible() == fresh.check_feasible()
        assert _seen(parked) == _seen(fresh)

    def test_snapshot_sees_rolled_back_state(self):
        (parked, xs), (fresh, _) = _committed_pair()
        before = _seen(parked)
        assert parked.try_lower_bound(xs[1, 0])
        assert _seen(parked) == before == _seen(fresh)

    def test_export_sees_rolled_back_state(self):
        m, xs = _packing_model(4, [3, 2])
        parked = DualAllIntegerSolver(m)
        fresh = DualAllIntegerSolver(_packing_model(4, [3, 2])[0])
        assert parked.reoptimize() and fresh.reoptimize()
        assert parked.try_lower_bound(xs[1, 0])
        warm = parked.export_warm_basis()
        assert warm is not None, "the parked bound leaked into the export"
        assert warm.to_dict() == fresh.export_warm_basis().to_dict()

    def test_commit_of_other_bound_sees_rolled_back_state(self):
        (parked, xs), (fresh, _) = _committed_pair()
        assert parked.try_lower_bound(xs[1, 0])
        parked.commit_lower_bound(xs[2, 1])
        fresh.commit_lower_bound(xs[2, 1])
        assert _seen(parked) == _seen(fresh)
        assert not parked.tableau._journal

    def test_commit_of_probed_bound_adopts_parked_tableau(self):
        (parked, xs), (fresh, _) = _committed_pair(5, (3, 3))
        assert parked.try_lower_bound(xs[1, 0])
        before = PERF.snapshot()
        parked.commit_lower_bound(xs[1, 0])
        counters = PERF.delta_since(before)["counters"]
        assert counters.get("tableau.pivots", 0) == 0
        # The re-solve it skips: commit after a full rollback.
        fresh.commit_lower_bound(xs[1, 0])
        assert _seen(parked) == _seen(fresh)
        assert not parked.tableau._journal
        assert parked.try_lower_bound(xs[2, 1]) \
            == fresh.try_lower_bound(xs[2, 1])

    def test_infeasible_probe_is_not_parked(self):
        (parked, xs), (fresh, _) = _committed_pair(3, (1, 2))
        assert not parked.try_lower_bound(xs[1, 0])
        assert parked.tableau._journal == fresh.tableau._journal == []
        with pytest.raises(ReproError):
            parked.commit_lower_bound(xs[1, 0])
        assert _seen(parked) == _seen(fresh)


# ---------------------------------------------------------------------
class TestInfeasibilityMemo:
    """Refuted (op, group) pairs are answered without re-probing."""

    @staticmethod
    def _spy_unprobed_refusals(monkeypatch):
        """Record (checker, committed set, pair) for every "no" given
        without a probe — the memo's answers among them."""
        answers = []
        probed = []
        check, probe = (PinAllocationChecker.can_schedule,
                        PinAllocationChecker._probe)

        def spy_probe(self, node, group):
            probed.append(True)
            return probe(self, node, group)

        def spy_check(self, node, step, schedule):
            probed.clear()
            fixed, checks = dict(self.fixed), self.checks
            verdict = check(self, node, step, schedule)
            # A refusal that never reached the pin ILP (the sibling
            # sharing rule) does not count.
            if not verdict and not probed and self.checks > checks:
                answers.append((self, fixed, (node.name, step % self.L)))
            return verdict

        monkeypatch.setattr(PinAllocationChecker, "_probe", spy_probe)
        monkeypatch.setattr(PinAllocationChecker, "can_schedule",
                            spy_check)
        return answers

    def test_memo_refutations_agree_with_branch_and_bound(
            self, monkeypatch):
        answers = self._spy_unprobed_refusals(monkeypatch)
        timing = ar_filter_timing()
        # Some stream cases run the cutting planes away; the iteration
        # caps degrade them (deterministically) instead.
        budget = SolveBudget(max_gomory_iters=400, max_bnb_nodes=200,
                             max_lp_solves=400)
        for case in generate_cases("bench", 60):
            graph, partitioning = case.build()
            try:
                synthesize(graph, partitioning, timing, case.rate,
                           flow="simple", budget=budget)
            except ReproError:
                pass
        synthesize(ar_simple_design(), AR_SIMPLE_PINS, timing, 2,
                   flow="simple")
        checked = set()
        for checker, fixed, (op, group) in answers:
            key = (id(checker), tuple(sorted(fixed.items())), op, group)
            if key in checked:
                continue
            checked.add(key)
            assert not checker.problem.solve_with_fixed(
                {**fixed, op: group}), (op, group, fixed)
        assert len(checked) > 10

    def test_no_infeasible_probe_is_repeated(self, monkeypatch):
        refuted = set()
        original = PinAllocationChecker._probe

        def spy(self, node, group):
            answer = original(self, node, group)
            verdict, exact, _witness = answer
            if exact and not verdict:
                key = (id(self), node.name, group)
                assert key not in refuted, f"re-proved {key[1:]}"
                refuted.add(key)
            return answer

        monkeypatch.setattr(PinAllocationChecker, "_probe", spy)
        space = design_space("ar-stacked-4")
        synthesize(space.graph, space.partitioning,
                   resolve_timing(space.timing), 2)
        assert refuted
