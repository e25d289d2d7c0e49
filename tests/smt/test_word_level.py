"""Word-level decisions taken before bit-blasting.

These rewrites answer goals that CDCL would otherwise prove bit by bit:

- constant shifts join the linear normal form of ``simplify`` (``x << k``
  is ``x * 2^k``), so a strength-reduced product and the product it
  replaces intern as one term;
- top-level literal propagation (``propagate_literals``), the solver's
  last fast path, refutes goals such as RISC-V's guarded ``remu``;
- three rules let one relation intern as one term however a target spells
  it: a comparison spelled through flags (``a < b ∨ a == b`` is
  ``¬(b < a)``, ``¬(a < b) ∧ ¬(a == b)`` is ``b < a``), an xor of an
  ``ite`` with constant arms (``ite(c, k1, k2) ^ k`` is
  ``ite(c, k1 ^ k, k2 ^ k)``), and an xor tested against a constant
  (``(x ^ y) == 0`` is ``x == y``, ``(x ^ k) == c`` is ``x == k ^ c``).

Their answers are cached at cost 0, so each is checked here against the
reference evaluator, never against the solver.
"""

import functools
import itertools
import operator
import random

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


def raw_eq(a, b):
    """``a == b`` as a node with its operands in the order given
    (``t.eq`` orders them by term serial)."""
    return t.Term("eq", (a, b), (), t.BOOL)


def truth_table(term, envs):
    """``term``'s value under each of ``envs``, as bits of one integer."""
    return sum(1 << i for i, env in enumerate(envs) if evaluate(term, env))


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


def pair_literals(a, b):
    """The ``ult``, ``slt`` and ``eq`` atoms over one operand pair, ``eq``
    in both operand orders, and their negations."""
    atoms = [t.ult(a, b), t.ult(b, a), t.slt(a, b), t.slt(b, a)]
    atoms += [raw_eq(a, b), raw_eq(b, a)]
    return atoms + [t.not_(atom) for atom in atoms]


class TestComparisonsThroughFlags:
    """Rule 1: ``a < b ∨ a == b`` is ``¬(b < a)``, and ``¬(a < b) ∧
    ¬(a == b)`` is ``b < a``, signed and unsigned."""

    @staticmethod
    def check_combinations(width, values):
        """Every 2- and 3-way and/or of the pair's literals simplifies to a
        term that evaluates like the combination under each assignment of
        ``values``; returns how many combinations the rule rewrote."""
        a, b = t.bv_var("fa", width), t.bv_var("fb", width)
        envs = [{"fa": x, "fb": y} for x in values for y in values]
        literals = pair_literals(a, b)
        tables = {literal: truth_table(literal, envs) for literal in literals}
        simplified_tables = {}
        fused = 0
        for size in (2, 3):
            for combo in itertools.product(literals, repeat=size):
                combo_tables = [tables[literal] for literal in combo]
                for build, join in ((t.and_, operator.and_), (t.or_, operator.or_)):
                    formula = build(*combo)
                    result = simplify(formula)
                    fused += result is not formula
                    if result not in simplified_tables:
                        simplified_tables[result] = truth_table(result, envs)
                    expected = functools.reduce(join, combo_tables)
                    assert simplified_tables[result] == expected, (formula, result)
        return fused

    def test_exhaustive_at_width_3(self):
        assert self.check_combinations(3, range(8)) > 0

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sampled_at_other_widths(self, width):
        assert self.check_combinations(width, sample_values(width)) > 0

    @pytest.mark.parametrize("less", (t.ult, t.slt))
    def test_flag_spellings_intern_as_the_comparison(self, less):
        a, b = t.bv_var("fa", 8), t.bv_var("fb", 8)
        for equal in (raw_eq(a, b), raw_eq(b, a)):
            # jbe/jle and ja/jg, with the equality's operands either way.
            assert simplify(t.or_(less(a, b), equal)) is t.not_(less(b, a))
            assert simplify(t.and_(t.not_(less(a, b)), t.not_(equal))) is less(b, a)
        # The fused atom meets its spelled-out complement syntactically.
        spelled = t.and_(t.not_(less(b, a)), t.not_(t.eq(a, b)))
        assert simplify(t.and_(t.or_(less(b, a), t.eq(a, b)), spelled)) is t.FALSE

    def test_an_equality_fuses_with_one_comparison(self):
        a, b = t.bv_var("fa", 8), t.bv_var("fb", 8)
        equal = t.eq(a, b)
        both = (t.ult(a, b), t.ult(b, a))
        assert simplify(t.or_(*both, equal)) is t.TRUE
        assert simplify(t.and_(*map(t.not_, both), t.not_(equal))) is t.FALSE

    def test_other_operand_pairs_are_left_alone(self):
        a, b, c = (t.bv_var(name, 8) for name in ("fa", "fb", "fc"))
        goal = t.or_(t.ult(a, b), t.eq(a, c), t.slt(b, c))
        assert simplify(goal) is goal


class TestXorOfConstantArms:
    """Rule 2: ``ite(c, k1, k2) ^ k`` is ``ite(c, k1 ^ k, k2 ^ k)``, which the
    ``ite == constant`` fold then turns into ``c``, ``¬c`` or a constant."""

    @staticmethod
    def check(width, k1, k2, k3, k4):
        c = t.bool_var("xc")
        arms = t.ite(c, t.bv_const(k1, width), t.bv_const(k2, width))
        term = t.eq(t.bv_const(k4, width), t.bvxor(arms, t.bv_const(k3, width)))
        result = simplify(term)
        assert result in (c, t.not_(c), t.TRUE, t.FALSE), (term, result)
        for value in (False, True):
            env = {"xc": value}
            assert evaluate(result, env) == evaluate(term, env), (term, env)

    def test_exhaustive_at_width_3(self):
        for k1, k2, k3, k4 in itertools.product(range(8), repeat=4):
            self.check(3, k1, k2, k3, k4)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sampled_at_other_widths(self, width):
        rng = random.Random(width)
        values = sample_values(width)
        for _ in range(200):
            k1, k2, k3 = (rng.choice(values) for _ in range(3))
            # k4 hits an arm, or misses both.
            for k4 in (k1 ^ k3, k2 ^ k3, rng.randrange(1 << width)):
                self.check(width, k1, k2, k3, k4)

    def test_riscv_boolean_round_trip_is_the_condition(self):
        c = t.bool_var("xc")
        byte = t.ite(c, t.bv_const(1, 8), t.zero(8))
        assert simplify(t.eq(t.zero(8), t.bvxor(byte, t.bv_const(1, 8)))) is c


class TestXorTests:
    """Rule 3: ``(x ^ y) == 0`` is ``x == y``, and ``(x ^ k) == c`` is
    ``x == k ^ c``."""

    @staticmethod
    def check(width, values):
        x, y = t.bv_var("ex", width), t.bv_var("ey", width)
        envs = [{"ex": xv, "ey": yv} for xv in values for yv in values]
        assert simplify(t.eq(t.bvxor(x, y), t.zero(width))) is t.eq(x, y)
        for c in values:
            const = t.bv_const(c, width)
            cases = [(t.eq(t.bvxor(x, y), const), None)]
            cases += [
                (
                    t.eq(t.bvxor(x, t.bv_const(k, width)), const),
                    t.eq(x, t.bv_const(k ^ c, width)),
                )
                for k in values
            ]
            for term, expected in cases:
                result = simplify(term)
                assert expected is None or result is expected, (term, result)
                for env in envs:
                    assert evaluate(result, env) == evaluate(term, env), (term, env)

    def test_exhaustive_at_width_3(self):
        self.check(3, range(8))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sampled_at_other_widths(self, width):
        self.check(width, sample_values(width))

    def test_xor_chains_reach_a_fixpoint(self):
        # The xor-chain rule folds an equality of chains to `chain == 0`,
        # and this rule splits that chain at its last leaf, a form the
        # chain rule keeps: simplifying again changes nothing.
        a, b, c = (t.bv_var(name, 8) for name in ("ea", "eb", "ec"))
        k = t.bv_const(5, 8)
        for term in (
            t.eq(t.bvxor(a, k), t.bvxor(b, c)),
            t.eq(t.bvxor(t.bvxor(a, b), c), t.zero(8)),
            t.eq(t.bvxor(a, b), t.bvxor(a, c)),
            t.eq(t.bvxor(c, k), a),
            t.eq(t.bvxor(t.bvxor(c, b), k), t.bv_const(3, 8)),
        ):
            result = simplify(term)
            assert simplify(result) is result
            for values in itertools.product(sample_values(8), repeat=3):
                env = dict(zip(("ea", "eb", "ec"), values))
                assert evaluate(result, env) == evaluate(term, env)
        assert simplify(t.eq(t.bvxor(a, b), t.bvxor(a, c))) is t.eq(b, c)


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
        outcome = _validate("fn_succeeded_0051", "vriscv")
        assert outcome.category == Category.SUCCEEDED
        assert outcome.solver_stats.sat_calls == 0
        assert outcome.solver_stats.refuted > 0

    def test_xor_equality_function_needs_no_conflict(self):
        # `icmp eq` lowers to `xor` then `seqz`: the IR's `a == b` and the
        # machine's `0 == (a ^ b)` are one atom, so no CDCL search left in
        # this function has anything to refute bit by bit.
        outcome = _validate("fn_succeeded_0063", "vriscv")
        assert outcome.category == Category.SUCCEEDED
        assert outcome.solver_stats.conflicts == 0


class TestVx86Figure6:
    def test_flag_spelled_branches_settle_without_cdcl(self):
        # Both sides' branch conditions intern as one term, so KEQ pairs the
        # successors syntactically and never issues the function's two
        # nonlinear checks.
        outcome = _validate("fn_succeeded_0105", "vx86")
        assert outcome.category == Category.SUCCEEDED
        assert outcome.solver_stats.sat_calls == 0


def _validate(name, target):
    spec = gcc_like_corpus(120, 2021).by_name()[name]
    module = CorpusSpec(functions=[spec]).build_module()
    return validate_function(module, name, TvOptions.for_campaign(target=target))
