"""The oracles must pass on the stock stack and catch injected bugs."""

import pytest

from repro.fuzz import generator as gen
from repro.fuzz import oracles
from repro.fuzz.generator import GenConfig, TermGenerator
from repro.fuzz.oracles import (
    brute_force_eligible,
    brute_force_sat,
    check_brute_force,
    check_cache_consistency,
    check_function_session_vs_fresh,
    check_implication_forms,
    check_model_soundness,
    check_simplify_eval,
    first_true_partition,
)
from repro.smt import terms as t
from repro.smt.eval import evaluate
from repro.smt.solver import Result


class TestStockStackPasses:
    """No oracle fires on the shipped stack (a tiny fixed-seed campaign)."""

    def test_simplify_eval_clean(self):
        generator = TermGenerator(101, GenConfig(allow_select=True))
        for _ in range(30):
            assert check_simplify_eval(generator.formula()) is None
            assert check_simplify_eval(generator.bv_term(8)) is None

    def test_model_soundness_clean(self):
        generator = TermGenerator(102, GenConfig(allow_select=True))
        for _ in range(15):
            assert check_model_soundness(generator.formula()) is None

    def test_brute_force_clean(self):
        generator = TermGenerator(
            103, GenConfig(widths=(1, 8), max_depth=3, vars_per_width=1, bool_vars=1)
        )
        checked = 0
        for _ in range(40):
            formula = generator.formula()
            if brute_force_eligible(formula):
                checked += 1
                assert check_brute_force(formula) is None
        assert checked > 5

    def test_implication_forms_clean(self):
        generator = TermGenerator(104, GenConfig(max_depth=3))
        for _ in range(10):
            antecedent = generator.bool_term(3)
            conditions = [generator.bool_term(2) for _ in range(2)]
            assert check_implication_forms(antecedent, conditions) is None

    def test_cache_consistency_clean(self):
        generator = TermGenerator(105, GenConfig(max_depth=4))
        batch = [generator.formula() for _ in range(4)]
        assert check_cache_consistency(batch) is None

    def test_function_session_vs_fresh_clean(self):
        generator = TermGenerator(106, GenConfig(max_depth=4, allow_select=True))
        for _ in range(10):
            prefixes = [generator.bool_term(3), generator.formula()]
            deltas = [generator.bool_term(2) for _ in range(2)]
            assert check_function_session_vs_fresh(prefixes, deltas) is None


class TestBruteForceReference:
    def test_sat_formula(self):
        x = t.bv_var("x", 2)
        assert brute_force_sat(t.ult(x, t.bv_const(3, 2))) is True

    def test_unsat_formula(self):
        x = t.bv_var("x", 2)
        assert brute_force_sat(t.ult(x, t.zero(2))) is False

    def test_eligibility_limits(self):
        small = t.eq(t.bv_var("x", 8), t.zext(t.bv_var("y", 2), 8))
        assert brute_force_eligible(small)
        wide = t.eq(t.bv_var("x", 32), t.zero(32))
        assert not brute_force_eligible(wide)  # 32 bits > cap
        with_select = t.eq(t.select("mem", t.bv_var("x", 8), 8), t.zero(8))
        assert not brute_force_eligible(with_select)


class TestFirstTruePartition:
    def test_exactly_one_cell_holds_under_every_assignment(self):
        p, q = t.bool_var("p"), t.bool_var("q")
        cells = first_true_partition([p, t.and_(q, t.not_(p)), q])
        for p_val in (False, True):
            for q_val in (False, True):
                env = {"p": p_val, "q": q_val}
                holding = [c for c in cells if evaluate(c, env) is True]
                assert len(holding) == 1


class TestOraclesCatchInjectedBugs:
    """Sensitivity: each oracle must fire when its layer is broken."""

    def test_unsound_simplify_is_detected(self, monkeypatch):
        # A "simplifier" that rewrites every bitvector term to zero is
        # caught by the all-ones trial.
        monkeypatch.setattr(
            oracles, "simplify", lambda term: t.zero(term.width)
        )
        violation = check_simplify_eval(t.bv_var("x", 8))
        assert violation is not None
        assert violation.oracle == "simplify-eval"
        assert violation.predicate(violation.witnesses)

    def test_sat_without_model_is_detected(self, monkeypatch):
        class NoModelSolver:
            def __init__(self, **kwargs):
                self.last_model = None

            def check_sat(self, formula, need_model=False):
                return Result.SAT

        monkeypatch.setattr(oracles, "Solver", NoModelSolver)
        violation = check_model_soundness(t.bool_var("p"))
        assert violation is not None
        assert "last_model is None" in violation.detail

    def test_lying_cache_is_detected(self, monkeypatch):
        from repro.smt import cache as cache_mod

        real_cache = cache_mod.QueryCache

        class LyingCache(real_cache):
            def lookup(self, goal, budget):
                hit = super().lookup(goal, budget)
                if hit is Result.SAT:
                    return Result.UNSAT
                if hit is Result.UNSAT:
                    return Result.SAT
                return hit

        monkeypatch.setattr(cache_mod, "QueryCache", LyingCache)
        x = t.bv_var("x", 8)
        batch = [t.ult(x, t.bv_const(3, 8)), t.eq(x, t.bv_const(200, 8))]
        violation = check_cache_consistency(batch)
        assert violation is not None
        assert violation.oracle == "cache-consistency"

    def test_lying_session_is_detected(self, monkeypatch):
        # Sessions flip UNSAT verdicts to SAT; fresh solving is honest.
        def lie(solver, verdict, need_model):
            return Result.SAT if verdict is Result.UNSAT else verdict

        monkeypatch.setattr(oracles, "Solver", _tampered_solver(lie))
        x = t.bv_var("x", 8)
        prefixes = [t.eq(x, t.bv_const(3, 8)), t.ult(x, t.bv_const(10, 8))]
        deltas = [t.eq(x, t.bv_const(5, 8))]  # UNSAT under the first prefix
        violation = check_function_session_vs_fresh(prefixes, deltas)
        assert violation is not None
        assert violation.oracle == "function-session-vs-fresh"
        assert "fresh solver unsat, function session sat" in violation.detail
        assert violation.predicate(violation.witnesses)

    @pytest.mark.parametrize("fault", ["missing model", "unsatisfying model"])
    def test_session_model_faults_are_detected(self, monkeypatch, fault):
        from repro.smt.solver import TrivialModel

        def tamper(solver, verdict, need_model):
            if need_model and verdict is Result.SAT:
                # The all-zeros model puts x at 0, outside both prefixes.
                solver.last_model = (
                    None if fault == "missing model" else TrivialModel()
                )
            return verdict

        monkeypatch.setattr(oracles, "Solver", _tampered_solver(tamper))
        x = t.bv_var("x", 8)
        prefixes = [t.eq(x, t.bv_const(3, 8)), t.ult(t.bv_const(2, 8), x)]
        deltas = [t.ult(x, t.bv_const(5, 8))]  # SAT under every point
        violation = check_function_session_vs_fresh(prefixes, deltas)
        assert violation is not None
        assert violation.oracle == "function-session-vs-fresh"
        expected = {
            "missing model": "last_model is None",
            "unsatisfying model": "does not satisfy formula",
        }[fault]
        assert expected in violation.detail
        assert violation.predicate(violation.witnesses)


def _tampered_solver(tamper):
    """A solver class whose sessions pass every verdict through
    ``tamper(solver, verdict, need_model)``; fresh solving is honest."""
    from repro.smt.solver import Solver

    class TamperedSolver(Solver):
        def session(self):
            real = super().session()
            solver = self

            class TamperedSession:
                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def check(self, delta, assumptions=(), need_model=False):
                    verdict = real.check(delta, assumptions, need_model)
                    return tamper(solver, verdict, need_model)

            return TamperedSession()

    return TamperedSolver


class TestModelSoundnessWithRewrittenSelects:
    """Regression: simplify may rewrite a select's *offset*, so the select
    node in the original formula is not the node the solver encoded.  The
    oracle must read model values from the encoded (simplified) nodes."""

    def test_offset_rewritten_by_simplify(self):
        from repro.smt.printer import from_canonical

        # Shrunk counterexamples from the seed-0 campaign before the fix.
        for text in (
            "bvconst:i16[0]();bvvar:i16['v16_1']();add:i16[](1,1);"
            "select:i32['stk',32](2);extract:i16[16,1](3);eq:Bool[](0,4);"
            "not:Bool[](5)",
            "bvconst:i1[0]();boolvar:Bool['p0']();bvconst:i1[1]();"
            "ite:i1[](1,2,0);zext:i16[16](3);select:i1['stk',1](4);"
            "eq:Bool[](0,5);not:Bool[](6)",
        ):
            assert check_model_soundness(from_canonical(text)) is None


class TestUnknownIsNoVerdict:
    def test_budget_exhaustion_passes_brute_force_oracle(self, monkeypatch):
        monkeypatch.setattr(oracles, "ORACLE_BUDGET", 0)
        x, y = t.bv_var("x", 8), t.bv_var("y", 2)
        formula = t.eq(t.mul(x, x), t.zext(y, 8))
        if brute_force_eligible(formula):
            assert check_brute_force(formula) is None
