"""The bounded witness search that answers satisfiable checks without CDCL
(:class:`repro.smt.solver._WitnessSearch`).

Its SAT answers are cached at cost 0 and shared across processes, so the
search must be sound (every witness evaluates the goal to True), bounded
(one node-evaluation budget per query) and a pure function of the goal
(the same witness in every interpreter, whatever the interning order).
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.fuzz.generator import GenConfig, TermGenerator
from repro.smt import Result, Solver, t
from repro.smt import eval as eval_mod
from repro.smt import solver as solver_mod
from repro.smt.eval import EvalError, evaluate
from repro.smt.printer import from_canonical

DATA = os.path.join(os.path.dirname(__file__), "data")


def _remu_goal():
    """RISC-V's non-trapping ``remu`` under a path condition that rules out
    a zero divisor: UNSAT, so no witness exists."""
    p1 = t.bv_var("p1", 32)
    p2 = t.bv_var("p2", 32)
    rem = t.urem(p1, p1)
    guarded = t.ite(t.eq(p1, t.zero(32)), p1, rem)
    return t.and_(
        t.ne(p1, t.zero(32)), t.not_(t.eq(t.mul(p2, rem), t.mul(p2, guarded)))
    )


class TestRecordedGoal:
    """``fn_succeeded_0093``'s slowest check on ``fig6_mix``: a positive-form
    implication goal that cost CDCL 0.62 s and 544 conflicts.  It needs a
    64-bit sync-point variable equal to 0 while ``p2`` is nonzero and does
    not divide 24.  Captured from ``SolverSession.check`` as canonical
    text."""

    def _goal(self):
        with open(os.path.join(DATA, "witness_goal_fn_succeeded_0093.txt")) as f:
            return from_canonical(f.read().strip())

    def test_search_decides_it(self):
        goal = self._goal()
        search = solver_mod._WitnessSearch(goal)
        witness = search.run()
        assert witness is not None
        assert evaluate(goal, witness) is True
        assert search.evaluations <= solver_mod.WITNESS_BUDGET

    def test_solver_answers_without_cdcl(self):
        solver = Solver()
        assert solver.check_sat(self._goal()) is Result.SAT
        assert solver.stats.witnessed == 1
        assert solver.stats.sat_calls == 0


class TestUnsatGoal:
    def test_remu_goal_fails_within_budget(self, monkeypatch):
        # Count operation-node evaluations independently of the search's
        # own counter, which also counts variable reads and score entries.
        calls = [0]
        compile_node = solver_mod.compile_node

        def counting(node, slots, select_handler):
            fn = compile_node(node, slots, select_handler)

            def counted(values):
                calls[0] += 1
                return fn(values)

            return counted

        monkeypatch.setattr(solver_mod, "compile_node", counting)
        search = solver_mod._WitnessSearch(_remu_goal())
        assert search.run() is None
        assert 0 < calls[0] <= search.evaluations <= solver_mod.WITNESS_BUDGET

    def test_solver_refutes_it_before_cdcl(self):
        # The skeleton cannot refute it and the search cannot witness it;
        # substituting the guard ``p1 != 0`` into the miter refutes it.
        solver = Solver(conflict_budget=1)
        assert solver.check_sat(_remu_goal()) is Result.UNSAT
        assert solver.stats.witnessed == 0
        assert (solver.stats.sat_calls, solver.stats.refuted) == (0, 1)

    def test_solver_leaves_it_to_cdcl(self):
        # Without the guard, no fast path decides the miter: a one-conflict
        # search runs out of budget.
        _, miter = _remu_goal().args
        solver = Solver(conflict_budget=1)
        assert solver.check_sat(miter) is Result.UNKNOWN
        assert solver.stats.witnessed == solver.stats.refuted == 0
        assert solver.stats.sat_calls == 1


class TestWitnessRecovery:
    """An EvalError while confirming one start point's witness must move on
    to the next start point, not give up on the rest."""

    def test_later_start_tried_after_eval_error(self, monkeypatch):
        goal = t.eq(t.bv_var("rw", 8), t.bv_const(1, 8))
        original = eval_mod.evaluate
        calls = []

        def flaky_evaluate(term, env, select_handler=None):
            calls.append(dict(env))
            if len(calls) == 1:
                # Simulate an assignment whose evaluation path fails.
                raise EvalError("injected failure on the first assignment")
            return original(term, env, select_handler)

        monkeypatch.setattr(eval_mod, "evaluate", flaky_evaluate)
        # The all-1 start point satisfies rw == 1 but its confirmation
        # fails; a later start point must still find the witness.
        assert solver_mod._witness(goal) == {"rw": 1}
        assert len(calls) >= 2

    def test_all_starts_failing_is_still_none(self, monkeypatch):
        def always_fails(term, env, select_handler=None):
            raise EvalError("injected")

        monkeypatch.setattr(eval_mod, "evaluate", always_fails)
        goal = t.eq(t.bv_var("rw2", 8), t.bv_const(1, 8))
        assert solver_mod._witness(goal) is None


class TestInPlaceEvaluation:
    """The search evaluates through ``compile_node`` closures over one flat
    list and undoes each probe in place; both must agree with
    :func:`evaluate` on every node."""

    def _assert_consistent(self, search, goal):
        values = search._values
        env = {name: values[i] for i, name in enumerate(search._names)}
        stack, seen = [goal], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.args)
            slot = search._slots[node]
            assert values[slot] == evaluate(node, env, search._select), node

    def test_generated_formulas(self):
        generator = TermGenerator(2021, GenConfig(allow_select=True))
        witnessed = 0
        for _ in range(150):
            goal = generator.formula()
            if goal.is_const():
                continue
            search = solver_mod._WitnessSearch(goal)
            for start in range(search.STARTS):
                search._load(start)
                self._assert_consistent(search, goal)
            witness = search.run()
            # After descents and undos, the layout still matches a fresh
            # evaluation of whatever assignment is loaded.
            self._assert_consistent(search, goal)
            if witness is not None:
                witnessed += 1
                assert evaluate(goal, witness, search._select) is True
        assert witnessed > 0

    def test_score_is_an_exact_integer(self):
        x, y = t.bv_var("sx", 8), t.bv_var("sy", 8)
        goal = t.and_(
            t.ult(x, y),
            t.or_(t.eq(x, t.bv_const(3, 8)), t.not_(t.eq(y, t.bv_const(9, 8)))),
            t.not_(t.and_(t.eq(x, y), t.ult(y, t.bv_const(200, 8)))),
        )
        search = solver_mod._WitnessSearch(goal)
        search._load(0)
        score = search._values[search._score_slot]
        assert isinstance(score, int) and not isinstance(score, float)


class TestDeterminism:
    """The same goal must get the same decision and the same witness in
    every interpreter: PYTHONHASHSEED changes string and term hashes, and
    interning the operands in another order swaps commutative operands
    (``t.add`` and friends order them by serial)."""

    SCRIPT = textwrap.dedent(
        """
        import sys
        from repro.smt import t
        from repro.smt import solver as solver_mod

        if sys.argv[1] == "reverse":
            for name in ("z", "y", "x"):
                t.bv_var(name, 16)
            for value in (0x1234, 0x0F00, 0x00FF, 5):
                t.bv_const(value, 16)
        x, y, z = (t.bv_var(name, 16) for name in ("x", "y", "z"))

        def c(value):
            return t.bv_const(value, 16)

        total = t.add(x, y)
        goal = t.and_(
            t.eq(total, c(0x1234)),
            t.ult(c(5), t.mul(y, z)),
            t.not_(t.eq(x, z)),
            t.ult(z, c(0x0F00)),
            t.or_(t.eq(t.bvor(x, z), c(0x1234)), t.eq(t.bvxor(y, z), c(0x00FF))),
        )
        search = solver_mod._WitnessSearch(goal)
        witness = search.run()
        print([arg.name for arg in total.args])
        print(sorted(witness.items()) if witness else None, search.evaluations)
        """
    )

    def _run(self, hash_seed: str, order: str) -> list[str]:
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(
            os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=hash_seed
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, order],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()

    def test_same_witness_across_interpreters_and_operand_orders(self):
        plain = self._run("1", "plain")
        reverse = self._run("2", "reverse")
        # The reverse run really swapped the commutative operands ...
        assert plain[0] == "['x', 'y']"
        assert reverse[0] == "['y', 'x']"
        # ... and still found the same witness along the same path.
        assert plain[1] != "None", plain
        assert plain[1] == reverse[1]


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
