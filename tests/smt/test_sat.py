"""Unit tests for the CDCL SAT solver."""

import itertools
import time

import pytest

from repro.smt.sat import SatResult, SatSolver, luby


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(len(expected))] == expected


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve() is SatResult.SAT

    def test_single_unit(self):
        solver = SatSolver()
        solver.add_clause([1])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(1) is True

    def test_contradictory_units(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is SatResult.UNSAT

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver.solve() is SatResult.SAT

    def test_duplicate_literals_deduped(self):
        solver = SatSolver()
        solver.add_clause([1, 1, 2])
        solver.add_clause([-1])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(2) is True

    def test_simple_implication_chain(self):
        solver = SatSolver()
        solver.add_clause([1])
        for var in range(1, 50):
            solver.add_clause([-var, var + 1])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(50) is True

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2, -3], [-1, 3], [-2, 3], [1, -2], [2, -1, 3]]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        for clause in clauses:
            assert any(
                model[abs(lit)] == (lit > 0) for lit in clause
            ), f"clause {clause} unsatisfied"


def pigeonhole_clauses(holes: int) -> list[list[int]]:
    """PHP(holes+1, holes): unsatisfiable pigeonhole principle."""
    pigeons = holes + 1

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [
        [var(p, h) for h in range(holes)] for p in range(pigeons)
    ]
    for hole in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, hole), -var(p2, hole)])
    return clauses


class TestHardInstances:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        solver = SatSolver()
        for clause in pigeonhole_clauses(holes):
            solver.add_clause(clause)
        assert solver.solve() is SatResult.UNSAT

    def test_pigeonhole_learns_clauses(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(5):
            solver.add_clause(clause)
        solver.solve()
        assert solver.stats.conflicts > 0
        assert solver.stats.learned > 0

    def test_random_3sat_satisfiable_instance(self):
        # A fixed, hand-checked satisfiable instance (assignment: all True).
        solver = SatSolver()
        clauses = [[1, -2, 3], [2, 3, -4], [4, 1, 2], [-1, 2, 4], [3, 4, -2]]
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve() is SatResult.SAT


class TestAssumptions:
    def _xor_problem(self) -> SatSolver:
        # 3 <-> (1 xor 2)
        solver = SatSolver()
        solver.add_clause([-3, 1, 2])
        solver.add_clause([-3, -1, -2])
        solver.add_clause([3, -1, 2])
        solver.add_clause([3, 1, -2])
        return solver

    def test_assumptions_constrain_search(self):
        solver = self._xor_problem()
        assert solver.solve(assumptions=[1, 2, 3]) is SatResult.UNSAT

    def test_assumptions_satisfiable(self):
        solver = self._xor_problem()
        assert solver.solve(assumptions=[1, -2, 3]) is SatResult.SAT
        assert solver.model_value(1) is True
        assert solver.model_value(2) is False

    def test_solver_reusable_across_assumption_sets(self):
        solver = self._xor_problem()
        assert solver.solve(assumptions=[1, 2, 3]) is SatResult.UNSAT
        assert solver.solve(assumptions=[1, -2, 3]) is SatResult.SAT
        assert solver.solve(assumptions=[-1, -2, 3]) is SatResult.UNSAT

    def test_conflicting_assumption_with_unit(self):
        solver = SatSolver()
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is SatResult.UNSAT
        assert solver.solve(assumptions=[1]) is SatResult.SAT


class TestBudget:
    def test_budget_exhaustion_returns_unknown(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(7):
            solver.add_clause(clause)
        assert solver.solve(conflict_budget=5) is SatResult.UNKNOWN

    def test_generous_budget_still_solves(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(3):
            solver.add_clause(clause)
        assert solver.solve(conflict_budget=100_000) is SatResult.UNSAT

    def test_passed_deadline_stops_at_the_first_conflict(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(7):
            solver.add_clause(clause)
        deadline = time.perf_counter() - 1.0
        assert solver.solve(deadline=deadline) is SatResult.UNKNOWN
        assert solver.stats.conflicts == 1
        # The stopped search leaves the solver reusable.
        assert solver.solve(conflict_budget=5) is SatResult.UNKNOWN

    def test_deadline_in_the_future_changes_nothing(self):
        runs = []
        for deadline in (None, time.perf_counter() + 3600.0):
            solver = SatSolver()
            for clause in pigeonhole_clauses(4):
                solver.add_clause(clause)
            result = solver.solve(deadline=deadline)
            runs.append((result, solver.stats.conflicts, solver.stats.decisions))
        assert runs[0] == runs[1]
        assert runs[0][0] is SatResult.UNSAT

