"""Word-level decisions taken before bit-blasting.

Two rewrites answer goals that CDCL would otherwise prove bit by bit:

- constant shifts join the linear normal form of ``simplify`` (``x << k``
  is ``x * 2^k``), so a strength-reduced product and the product it
  replaces intern as one term;
- top-level literal propagation (``propagate_literals``), the solver's
  last fast path, refutes goals such as RISC-V's guarded ``remu``.

Both answers are cached at cost 0, so each is checked here against the
reference evaluator, never against the solver.
"""

import itertools

import pytest

from repro.fuzz.generator import GenConfig, TermGenerator
from repro.fuzz.oracles import brute_force_sat
from repro.smt import Result, Solver, t
from repro.smt.cache import QueryCache
from repro.smt.eval import evaluate
from repro.smt.simplify import _flatten_add, propagate_literals, simplify
from repro.tv.driver import Category, TvOptions, validate_function
from repro.workloads import gcc_like_corpus
from repro.workloads.corpus import CorpusSpec

WIDTHS = (1, 8, 16, 32, 64)


def raw_shl(x, amount):
    """``x << amount`` as a node, without the constructor's folding (so a
    shift by 0 or by the full width survives to the normal form)."""
    return t.Term("shl", (x, amount), (), x.sort)


def sample_values(width):
    mask = t.mask(width)
    return sorted({0, 1, mask, 1 << (width - 1), 0x5A5A5A5A5A5A5A5A & mask})


def summands(term):
    if term.op != "add":
        return [term]
    return summands(term.args[0]) + summands(term.args[1])


def remu_goal():
    """RISC-V's non-trapping ``remu`` under a path condition that rules out
    a zero divisor (the check behind vriscv ``fn_succeeded_0051``)."""
    p1, p2 = t.bv_var("p1", 32), t.bv_var("p2", 32)
    rem = t.urem(p1, p1)
    guarded = t.ite(t.eq(p1, t.zero(32)), p1, rem)
    return t.and_(
        t.ne(p1, t.zero(32)), t.not_(t.eq(t.mul(p2, rem), t.mul(p2, guarded)))
    )


class TestShiftsInTheLinearForm:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_normal_form_evaluates_like_the_sum(self, width):
        x, y = t.bv_var("sx", width), t.bv_var("sy", width)
        for k in range(width):
            term = t.add(y, raw_shl(x, t.bv_const(k, width)))
            normal = _flatten_add(term)
            assert all(leaf.op != "shl" for leaf in summands(normal))
            for xv, yv in itertools.product(sample_values(width), repeat=2):
                env = {"sx": xv, "sy": yv}
                assert evaluate(normal, env) == evaluate(term, env), (k, env)

    @pytest.mark.parametrize("width", (8, 16, 32, 64))
    def test_decomposed_product_interns_as_the_product(self, width):
        x = t.bv_var("sx", width)
        for k in range(1, width):
            factor = t.bv_const(1 + (1 << k), width)
            shifted = t.add(x, t.shl(x, t.bv_const(k, width)))
            assert simplify(shifted) is simplify(t.mul(x, factor))
            miter = t.ne(t.mul(x, factor), shifted)
            assert simplify(miter) is t.FALSE

    @pytest.mark.parametrize("width", WIDTHS)
    def test_shift_by_width_or_more_stays_a_leaf(self, width):
        x, y = t.bv_var("sx", width), t.bv_var("sy", width)
        amounts = {width, t.mask(width)} if width > 1 else {1}
        for amount in amounts:
            shift = raw_shl(x, t.bv_const(amount, width))
            term = t.add(y, shift)
            normal = _flatten_add(term)
            assert shift in summands(normal)
            for xv, yv in itertools.product(sample_values(width), repeat=2):
                env = {"sx": xv, "sy": yv}
                assert evaluate(normal, env) == evaluate(term, env)

    def test_shift_by_a_variable_stays_a_leaf(self):
        x, y, z = (t.bv_var(name, 8) for name in ("sx", "sy", "sz"))
        shift = t.shl(x, z)
        assert shift in summands(simplify(t.add(y, shift)))


class TestLiteralRefutation:
    def test_remu_goal_is_refuted_without_cdcl(self):
        solver = Solver()
        assert solver.check_sat(remu_goal()) is Result.UNSAT
        assert (solver.stats.sat_calls, solver.stats.refuted) == (0, 1)
        assert solver.stats.fast_path == 1

    def test_session_path_refutes_it_too(self):
        p1 = t.bv_var("p1", 32)
        guard, miter = remu_goal().args
        assert guard is t.ne(p1, t.zero(32))
        solver = Solver()
        with solver.session() as session:
            assert session.check(miter, [guard]) is Result.UNSAT
        assert (solver.stats.sat_calls, solver.stats.refuted) == (0, 1)
        assert solver.stats.incremental_checks == 1

    def test_refutation_is_memoised_and_shared_at_cost_zero(self):
        cache = QueryCache()
        first = Solver(cache=cache)
        assert first.check_sat(remu_goal()) is Result.UNSAT
        assert first.check_sat(remu_goal()) is Result.UNSAT
        assert first.stats.refuted == 1  # the second answer is the memo's
        assert cache.stats.stores == 1
        # A tiny conflict budget still reads the entry: it cost nothing.
        second = Solver(conflict_budget=1, cache=cache)
        assert second.check_sat(remu_goal()) is Result.UNSAT
        assert (second.stats.cache_hits, second.stats.refuted) == (1, 0)

    def test_literal_is_never_substituted_into_itself(self):
        x = t.bv_var("lx", 8)
        literal = t.ult(x, t.bv_const(3, 8))
        odd = t.eq(t.bvand(x, t.bv_const(1, 8)), t.bv_const(1, 8))
        goal = t.and_(literal, odd)
        assert propagate_literals(goal) is goal
        assert Solver().check_sat(goal) is Result.SAT

    def test_literals_refute_each_other(self):
        # Round one substitutes b into the second literal, leaving x == 3;
        # round two substitutes that into the third, which becomes FALSE.
        b = t.bool_var("lb")
        x, y = t.bv_var("lx", 4), t.bv_var("ly", 4)
        goal = t.and_(
            b,
            t.eq(t.ite(b, x, y), t.bv_const(3, 4)),
            t.ne(t.ite(t.eq(x, t.bv_const(3, 4)), y, x), y),
        )
        assert simplify(goal) is goal
        assert propagate_literals(goal, max_rounds=1) is not t.FALSE
        assert propagate_literals(goal) is t.FALSE
        assert not brute_force_sat(goal)

    def test_generated_refutations_agree_with_enumeration(self):
        """Every goal ``lit ∧ φ`` built from a generated formula ``φ`` and
        one of its own atoms: the propagated goal evaluates like the goal
        under every assignment, and each FALSE is UNSAT by enumeration."""
        config = GenConfig(widths=(1, 2, 3), vars_per_width=1, bool_vars=1)
        generator = TermGenerator(25, config)
        refuted = 0
        for _ in range(60):
            formula = generator.formula()
            for atom in _atoms(formula)[:3]:
                for literal in (atom, t.not_(atom)):
                    goal = simplify(t.and_(literal, formula))
                    propagated = propagate_literals(goal)
                    _assert_equivalent(goal, propagated)
                    if propagated is t.FALSE and goal is not t.FALSE:
                        refuted += 1
                        assert not brute_force_sat(goal)
        assert refuted > 0


def _atoms(formula):
    """The boolean atoms under ``formula``, in a deterministic order."""
    found, seen, stack = [], set(), [formula]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.sort is t.BOOL and not node.is_const():
            if node.op not in ("and", "or", "not"):
                found.append(node)
        stack.extend(node.args)
    return found


def _assert_equivalent(before, after):
    variables = sorted(t.free_vars(before), key=lambda v: v.name)
    assert t.free_vars(after) <= t.free_vars(before)
    domains = [
        (False, True) if v.sort is t.BOOL else range(1 << v.width)
        for v in variables
    ]
    names = [v.name for v in variables]
    for values in itertools.product(*domains):
        env = dict(zip(names, values))
        assert evaluate(after, env) == evaluate(before, env), env


class TestCacheKeys:
    """The cache key is the canonical printing of the *simplified* goal.
    An entry written under the old simplifier's form of a goal that is now
    rewritten can therefore only be missed, never read for another goal."""

    def test_old_entry_of_a_rewritten_goal_is_missed(self):
        x, y, z = (t.bv_var(name, 8) for name in ("kx", "ky", "kz"))
        # Simplification used to keep this goal as it stands; now the sum
        # reads y + x·4.
        goal = t.and_(t.eq(t.add(y, t.shl(x, t.bv_const(2, 8))), z), t.ult(z, y))
        assert simplify(goal) is not goal
        cache = QueryCache()
        # Poison the old key with a wrong answer: it must never be served.
        cache.store(goal, Result.UNSAT, cost=0)
        solver = Solver(cache=cache)
        assert solver.check_sat(goal) is Result.SAT
        assert (solver.stats.cache_hits, solver.stats.cache_misses) == (0, 1)

    def test_old_entry_of_a_decided_miter_is_never_looked_up(self):
        x = t.bv_var("kx", 8)
        shifted = t.add(x, t.shl(x, t.bv_const(2, 8)))
        miter = t.ne(t.mul(x, t.bv_const(5, 8)), shifted)
        cache = QueryCache()
        cache.store(miter, Result.SAT, cost=0)  # wrong on purpose
        solver = Solver(cache=cache)
        assert solver.check_sat(miter) is Result.UNSAT
        assert solver.stats.cache_hits == solver.stats.cache_misses == 0


class TestVriscvFigure6:
    def test_guarded_remu_function_succeeds_without_cdcl(self):
        spec = gcc_like_corpus(120, 2021).by_name()["fn_succeeded_0051"]
        module = CorpusSpec(functions=[spec]).build_module()
        outcome = validate_function(
            module, spec.name, TvOptions.for_campaign(target="vriscv")
        )
        assert outcome.category == Category.SUCCEEDED
        assert outcome.solver_stats.sat_calls == 0
        assert outcome.solver_stats.refuted > 0
