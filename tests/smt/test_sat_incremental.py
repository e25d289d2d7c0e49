"""Incremental SAT regression tests: assumptions and the classic
learned-clause-contamination bug.

The MiniSat contract under test: assumptions are pseudo-decisions, so
every clause a call learns is implied by the clause database *alone* —
keeping learned clauses (including root-implied units parked while the
trail sat inside the assumption prefix) must never change the answer of a
later call that drops or flips an assumption.
"""

from repro.smt.sat import SatResult, SatSolver


def fresh_vars(solver, count):
    return [solver.new_var() for _ in range(count)]


class TestAssumptions:
    def test_sat_under_assumptions(self):
        solver = SatSolver()
        a, b = fresh_vars(solver, 2)
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a]) is SatResult.SAT
        assert solver.model_value(b) is True

    def test_unsat_under_assumptions_sat_without(self):
        solver = SatSolver()
        a, b = fresh_vars(solver, 2)
        solver.add_clause([-a, b])
        assert solver.solve(assumptions=[a, -b]) is SatResult.UNSAT
        # Dropping the assumptions: the clause set itself is satisfiable.
        assert solver.solve() is SatResult.SAT
        assert solver.solve(assumptions=[a]) is SatResult.SAT
        assert solver.model_value(b) is True

    def test_flip_assumption_after_unsat(self):
        solver = SatSolver()
        a, b, c = fresh_vars(solver, 3)
        solver.add_clause([-a, c])
        solver.add_clause([-b, -c])
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT
        assert solver.solve(assumptions=[a, -b]) is SatResult.SAT
        assert solver.solve(assumptions=[-a, b]) is SatResult.SAT

    def test_contradictory_assumptions(self):
        solver = SatSolver()
        (a,) = fresh_vars(solver, 1)
        assert solver.solve(assumptions=[a, -a]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT


class TestRefutedAssumptions:
    """UNSAT answers when the clause set refutes some of the assumptions."""

    def test_irrelevant_assumptions_stay_refuted(self):
        solver = SatSolver()
        a, b, c, d = fresh_vars(solver, 4)
        solver.add_clause([-a, -b])  # a and b conflict
        assert solver.solve(assumptions=[a, b, c, d]) is SatResult.UNSAT
        # c and d are irrelevant to the refutation.
        assert solver.solve(assumptions=[a, c, d]) is SatResult.SAT

    def test_refuting_assumptions_replayed_as_units_are_unsat(self):
        clauses = ([-1, -2, -3], [-4, 5])
        solver = SatSolver()
        a, b, c, d, e, f = fresh_vars(solver, 6)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(assumptions=[a, b, c, d, f]) is SatResult.UNSAT
        assert solver.solve(assumptions=[a, b, d, f]) is SatResult.SAT
        # The refuting assumptions, asserted as units, are UNSAT on their own.
        replay = SatSolver()
        replay.ensure_vars(6)
        for clause in clauses:
            replay.add_clause(clause)
        for lit in (a, b, c):
            replay.add_clause([lit])
        assert replay.solve() is SatResult.UNSAT

    def test_refutation_through_an_implication_chain(self):
        solver = SatSolver()
        a, b, c, goal = fresh_vars(solver, 4)
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c, -goal])
        assert solver.solve(assumptions=[a, goal]) is SatResult.UNSAT

    def test_unsat_clause_set_refutes_assumptions(self):
        solver = SatSolver()
        (a,) = fresh_vars(solver, 1)
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve(assumptions=[a]) is SatResult.UNSAT


class TestLearnedClausePersistence:
    def test_learned_clauses_survive_without_contamination(self):
        """The classic incremental-SAT bug: clauses learned under an
        assumption must not constrain a later call that drops it."""
        solver = SatSolver()
        n = 8
        xs = fresh_vars(solver, n)
        trigger = solver.new_var()
        # Under `trigger`, a small pigeonhole-ish contradiction over xs.
        for i in range(n - 1):
            solver.add_clause([-trigger, xs[i], xs[i + 1]])
            solver.add_clause([-trigger, -xs[i], -xs[i + 1]])
        solver.add_clause([-trigger, xs[0], xs[2]])
        solver.add_clause([-trigger, -xs[0], -xs[2]])
        first = solver.solve(assumptions=[trigger])
        # Whatever the verdict under the assumption, dropping it must
        # leave a satisfiable problem (set trigger false, xs free).
        assert first in (SatResult.SAT, SatResult.UNSAT)
        learned_after_first = solver.stats.learned
        assert solver.solve() is SatResult.SAT
        assert solver.solve(assumptions=[-trigger]) is SatResult.SAT
        # Learned clauses were retained, not wiped, across the calls.
        assert solver.stats.learned >= learned_after_first

    def test_unit_learned_under_assumptions_survives(self):
        """A unit learned while the trail is inside the assumption prefix
        is parked and re-asserted at the next root visit — not lost, and
        not mis-assigned at assumption level."""
        solver = SatSolver()
        a, b, c = fresh_vars(solver, 3)
        # b is forced false by the clause set (two binary clauses), but
        # only via search once `a` raises the decision level.
        solver.add_clause([-b, c])
        solver.add_clause([-b, -c])
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT
        # -b is now root-implied; later calls see it immediately.
        assert solver.solve(assumptions=[b]) is SatResult.UNSAT
        assert solver.solve(assumptions=[-b]) is SatResult.SAT
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(b) is False

    def test_interleaved_clause_addition(self):
        solver = SatSolver()
        a, b, c = fresh_vars(solver, 3)
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a]) is SatResult.SAT
        # Add clauses between calls (incremental use).
        solver.add_clause([-b, c])
        assert solver.solve(assumptions=[-a]) is SatResult.SAT
        assert solver.model_value(c) is True
        solver.add_clause([-c])
        assert solver.solve(assumptions=[-a]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT

    def test_many_calls_deterministic(self):
        """Repeated identical calls stay stable (no state corruption)."""
        solver = SatSolver()
        xs = fresh_vars(solver, 6)
        for i in range(5):
            solver.add_clause([xs[i], xs[i + 1]])
        for _ in range(5):
            assert solver.solve(assumptions=[-xs[0], -xs[2]]) is SatResult.SAT
            assert solver.solve(assumptions=[-xs[1], -xs[3]]) is SatResult.SAT
        assert solver.stats.solve_calls == 10


class TestPrefixConflictLearning:
    """Conflicts inside the assumption prefix still yield learned clauses.

    ``_analyze_prefix`` resolves such a conflict down to the reason-less
    frontier: negations of the assumptions used stay in the clause, parked
    root-implied units resolve away.  The result is implied by the clause
    database alone, so it is learnable permanently — later calls with the
    same hostile assumption set refute by unit propagation instead of
    re-searching.
    """

    def test_prefix_conflict_learns_assumption_core_clause(self):
        solver = SatSolver()
        a, b, c, d = fresh_vars(solver, 4)
        # Assuming b propagates c and d, which together falsify the third
        # clause — a genuine conflict inside the assumption prefix (both
        # pseudo-decision levels are assumptions, no real decision taken).
        solver.add_clause([-b, c])
        solver.add_clause([-b, d])
        solver.add_clause([-a, -c, -d])
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT
        assert solver.stats.decisions == 0
        learned = solver.learned_clauses()
        assert len(learned) == 1  # the assumption-core clause (-a or -b)
        assert set(learned[0]) == {-a, -b}
        # The learned clause is DB-implied: dropping either assumption
        # must still be SAT, and re-running the hostile set stays UNSAT.
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT
        assert solver.solve(assumptions=[a]) is SatResult.SAT
        assert solver.solve(assumptions=[b]) is SatResult.SAT
        assert solver.solve() is SatResult.SAT

    def test_prefix_clause_drops_reasonless_units(self):
        solver = SatSolver()
        a, b, c, d, u = fresh_vars(solver, 5)
        solver.add_clause([u])  # root unit, assigned without a reason
        solver.add_clause([-b, c])
        solver.add_clause([-b, d])
        solver.add_clause([-u, -c, -d])
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT
        # The prefix resolution keeps assumption negations but drops the
        # reason-less root unit entirely (it is DB-implied), leaving the
        # unit clause (-b) — parked, then asserted at the next root visit.
        assert all(
            set(clause) <= {-a, -b} for clause in solver.learned_clauses()
        )
        assert solver.solve(assumptions=[a]) is SatResult.SAT
        assert solver.model_value(b) is False  # the parked unit stuck
        assert solver.model_value(u) is True
