"""Unit tests for the hash-consed term layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as t


class TestInterning:
    def test_structurally_equal_terms_are_identical(self):
        a1 = t.bv_var("a", 32)
        a2 = t.bv_var("a", 32)
        assert a1 is a2

    def test_compound_terms_are_interned(self):
        a = t.bv_var("a", 32)
        b = t.bv_var("b", 32)
        assert t.add(a, b) is t.add(a, b)

    def test_same_name_different_width_is_distinct(self):
        assert t.bv_var("a", 8) is not t.bv_var("a", 16)

    def test_serial_numbers_are_distinct(self):
        a = t.bv_var("serial_a", 32)
        b = t.bv_var("serial_b", 32)
        assert a.serial != b.serial


class TestSorts:
    def test_bv_sort_interned(self):
        assert t.bv_sort(32) is t.bv_sort(32)

    def test_bv_sort_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            t.bv_sort(0)

    def test_width_accessor(self):
        assert t.bv_var("a", 17).width == 17

    def test_width_of_bool_raises(self):
        with pytest.raises(TypeError):
            t.bool_var("p").width


class TestConstantFolding:
    def test_add_wraps(self):
        assert t.add(t.bv_const(255, 8), t.bv_const(1, 8)).value == 0

    def test_sub_self_is_zero(self):
        a = t.bv_var("a", 32)
        assert t.sub(a, a) is t.zero(32)

    def test_mul_by_zero(self):
        assert t.mul(t.bv_var("a", 32), t.zero(32)) is t.zero(32)

    def test_mul_by_one(self):
        a = t.bv_var("a", 32)
        assert t.mul(a, t.bv_const(1, 32)) is a

    def test_udiv_by_zero_is_all_ones(self):
        assert t.udiv(t.bv_const(7, 8), t.zero(8)).value == 255

    def test_urem_by_zero_is_dividend(self):
        assert t.urem(t.bv_const(7, 8), t.zero(8)).value == 7

    def test_sdiv_truncates_toward_zero(self):
        # -7 / 2 == -3 in SMT-LIB (truncating), not -4 (flooring).
        result = t.sdiv(t.bv_const(-7, 8), t.bv_const(2, 8))
        assert t.to_signed(result.value, 8) == -3

    def test_srem_sign_follows_dividend(self):
        result = t.srem(t.bv_const(-7, 8), t.bv_const(2, 8))
        assert t.to_signed(result.value, 8) == -1

    def test_shl_folds(self):
        assert t.shl(t.bv_const(1, 8), t.bv_const(3, 8)).value == 8

    def test_shl_out_of_range_is_zero(self):
        assert t.shl(t.bv_var("a", 8), t.bv_const(9, 8)) is t.zero(8)

    def test_ashr_fills_sign(self):
        result = t.ashr(t.bv_const(0x80, 8), t.bv_const(7, 8))
        assert result.value == 0xFF

    def test_reassociation_of_constant_adds(self):
        a = t.bv_var("a", 32)
        nested = t.add(t.add(a, t.bv_const(1, 32)), t.bv_const(2, 32))
        assert nested is t.add(a, t.bv_const(3, 32))


class TestIdentities:
    def test_add_zero(self):
        a = t.bv_var("a", 32)
        assert t.add(a, t.zero(32)) is a

    def test_xor_self(self):
        a = t.bv_var("a", 32)
        assert t.bvxor(a, a) is t.zero(32)

    def test_and_with_all_ones(self):
        a = t.bv_var("a", 8)
        assert t.bvand(a, t.ones(8)) is a

    def test_or_with_zero(self):
        a = t.bv_var("a", 8)
        assert t.bvor(a, t.zero(8)) is a

    def test_double_negation(self):
        a = t.bv_var("a", 32)
        assert t.neg(t.neg(a)) is a

    def test_double_bvnot(self):
        a = t.bv_var("a", 32)
        assert t.bvnot(t.bvnot(a)) is a

    def test_commutative_ops_canonicalize(self):
        a = t.bv_var("a", 32)
        b = t.bv_var("b", 32)
        assert t.add(a, b) is t.add(b, a)
        assert t.mul(a, b) is t.mul(b, a)
        assert t.bvand(a, b) is t.bvand(b, a)
        assert t.bvor(a, b) is t.bvor(b, a)
        assert t.bvxor(a, b) is t.bvxor(b, a)

    def test_eq_is_symmetric_by_interning(self):
        a = t.bv_var("a", 32)
        b = t.bv_var("b", 32)
        assert t.eq(a, b) is t.eq(b, a)


class TestBooleans:
    def test_and_flattens_and_dedups(self):
        p = t.bool_var("p")
        q = t.bool_var("q")
        assert t.and_(t.and_(p, q), p) is t.and_(p, q)

    def test_and_with_false(self):
        assert t.and_(t.bool_var("p"), t.FALSE) is t.FALSE

    def test_or_with_true(self):
        assert t.or_(t.bool_var("p"), t.TRUE) is t.TRUE

    def test_contradiction_detected(self):
        p = t.bool_var("p")
        assert t.and_(p, t.not_(p)) is t.FALSE

    def test_excluded_middle_detected(self):
        p = t.bool_var("p")
        assert t.or_(p, t.not_(p)) is t.TRUE

    def test_implies_false_antecedent(self):
        assert t.implies(t.FALSE, t.bool_var("p")) is t.TRUE

    def test_iff_self(self):
        p = t.bool_var("p")
        assert t.iff(p, p) is t.TRUE

    def test_empty_conj_is_true(self):
        assert t.conj([]) is t.TRUE

    def test_empty_disj_is_false(self):
        assert t.disj([]) is t.FALSE


def negation_interning_flatten(op, operands, unit, zero):
    """The reference flattening: each kept child's negation is interned
    and looked up among the kept children."""
    seen = set()
    flat = []
    for operand in operands:
        if operand is unit:
            continue
        if operand is zero:
            return zero
        children = operand.args if operand.op == op else (operand,)
        for child in children:
            if child is zero:
                return zero
            if child is unit or child in seen:
                continue
            if t.not_(child) in seen:
                return zero
            seen.add(child)
            flat.append(child)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return t.Term(op, tuple(flat), (), t.BOOL)


_ATOMS = [t.bool_var(name) for name in ("fl_p", "fl_q", "fl_r")]
_ATOMS += [
    t.eq(t.bv_var("fl_x", 8), t.bv_const(3, 8)),
    t.ult(t.bv_var("fl_x", 8), t.bv_var("fl_y", 8)),
]

literals = st.sampled_from(_ATOMS).flatmap(
    lambda atom: st.sampled_from([atom, t.not_(atom)])
)
operands = st.recursive(
    literals | st.sampled_from([t.TRUE, t.FALSE]),
    lambda inner: st.builds(
        lambda build, children: build(*children),
        st.sampled_from([t.and_, t.or_]),
        st.lists(inner, max_size=4),
    ),
    max_leaves=8,
)


class TestFlattenByPolarity:
    """Complementary children are found by atom and polarity: the same
    result as interning each child's negation, and no term but the result
    is interned."""

    @given(
        op=st.sampled_from(["and", "or"]),
        operands=st.lists(operands, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_term_as_negation_interning(self, op, operands):
        build, unit, zero = {
            "and": (t.and_, t.TRUE, t.FALSE),
            "or": (t.or_, t.FALSE, t.TRUE),
        }[op]
        before = t.interned_count()
        result = build(*operands)
        created = t.interned_count() - before
        assert created == (1 if result.serial >= before else 0)
        assert result is negation_interning_flatten(op, operands, unit, zero)

    def test_no_negation_is_interned(self):
        a, b = t.bool_var("fl_fresh_a"), t.bool_var("fl_fresh_b")
        before = t.interned_count()
        conjunction = t.and_(a, b)
        disjunction = t.or_(a, b)
        assert t.interned_count() == before + 2
        assert conjunction.args == disjunction.args == (a, b)

    def test_complement_found_in_either_order(self):
        a, b = t.bool_var("fl_fresh_c"), t.bool_var("fl_fresh_d")
        assert t.and_(a, b, t.not_(a)) is t.FALSE
        assert t.and_(t.not_(a), b, a) is t.FALSE
        assert t.or_(t.or_(b, t.not_(b)), a) is t.TRUE


class TestExtractConcat:
    def test_extract_full_width_is_identity(self):
        a = t.bv_var("a", 32)
        assert t.extract(a, 31, 0) is a

    def test_extract_of_extract_composes(self):
        a = t.bv_var("a", 32)
        outer = t.extract(t.extract(a, 23, 8), 7, 0)
        assert outer is t.extract(a, 15, 8)

    def test_extract_out_of_range_raises(self):
        with pytest.raises(ValueError):
            t.extract(t.bv_var("a", 8), 8, 0)

    def test_concat_width(self):
        combined = t.concat(t.bv_var("a", 8), t.bv_var("b", 16))
        assert combined.width == 24

    def test_concat_of_adjacent_extracts_fuses(self):
        a = t.bv_var("a", 32)
        fused = t.concat(t.extract(a, 15, 8), t.extract(a, 7, 0))
        assert fused is t.extract(a, 15, 0)

    def test_byte_roundtrip_fuses_to_identity(self):
        a = t.bv_var("a", 32)
        byte_list = [t.extract(a, i * 8 + 7, i * 8) for i in range(4)]
        rebuilt = byte_list[0]
        for byte in byte_list[1:]:
            rebuilt = t.concat(byte, rebuilt)
        assert rebuilt is a

    def test_extract_through_concat(self):
        a = t.bv_var("a", 8)
        b = t.bv_var("b", 8)
        combined = t.concat(a, b)
        assert t.extract(combined, 7, 0) is b
        assert t.extract(combined, 15, 8) is a

    def test_zext_then_extract_low(self):
        a = t.bv_var("a", 8)
        assert t.extract(t.zext(a, 32), 7, 0) is a

    def test_zext_then_extract_high_is_zero(self):
        a = t.bv_var("a", 8)
        assert t.extract(t.zext(a, 32), 31, 8) is t.zero(24)

    def test_trunc(self):
        a = t.bv_var("a", 32)
        assert t.trunc(a, 8) is t.extract(a, 7, 0)

    def test_nested_zext_collapses(self):
        a = t.bv_var("a", 8)
        assert t.zext(t.zext(a, 16), 32) is t.zext(a, 32)


class TestPredicates:
    def test_ult_zero_rhs_is_false(self):
        assert t.ult(t.bv_var("a", 8), t.zero(8)) is t.FALSE

    def test_ult_self_is_false(self):
        a = t.bv_var("a", 8)
        assert t.ult(a, a) is t.FALSE

    def test_ule_via_ult(self):
        a = t.bv_var("a", 8)
        b = t.bv_var("b", 8)
        assert t.ule(a, b) is t.not_(t.ult(b, a))

    def test_signed_comparison_constants(self):
        assert t.slt(t.bv_const(-1, 8), t.bv_const(0, 8)) is t.TRUE
        assert t.ult(t.bv_const(-1, 8), t.bv_const(0, 8)) is t.FALSE

    def test_width_mismatch_raises(self):
        with pytest.raises(TypeError):
            t.eq(t.bv_var("a", 8), t.bv_var("b", 16))


class TestIte:
    def test_const_condition(self):
        a = t.bv_var("a", 8)
        b = t.bv_var("b", 8)
        assert t.ite(t.TRUE, a, b) is a
        assert t.ite(t.FALSE, a, b) is b

    def test_same_branches(self):
        a = t.bv_var("a", 8)
        assert t.ite(t.bool_var("p"), a, a) is a

    def test_negated_condition_swaps(self):
        p = t.bool_var("p")
        a = t.bv_var("a", 8)
        b = t.bv_var("b", 8)
        assert t.ite(t.not_(p), a, b) is t.ite(p, b, a)

    def test_bool_ite_collapses_to_condition(self):
        p = t.bool_var("p")
        assert t.ite(p, t.TRUE, t.FALSE) is p

    def test_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            t.ite(t.bool_var("p"), t.bv_var("a", 8), t.bv_var("b", 16))


class TestHelpers:
    def test_to_signed(self):
        assert t.to_signed(0xFF, 8) == -1
        assert t.to_signed(0x7F, 8) == 127

    def test_free_vars(self):
        a = t.bv_var("a", 32)
        b = t.bv_var("b", 32)
        expr = t.add(t.mul(a, b), a)
        assert t.free_vars(expr) == frozenset((a, b))

    def test_free_vars_of_const_is_empty(self):
        assert t.free_vars(t.bv_const(1, 8)) == frozenset()

    def test_size_counts_dag_nodes_once(self):
        a = t.bv_var("a", 32)
        shared = t.add(a, t.bv_const(1, 32))
        expr = t.mul(shared, shared)
        # mul, add, a, 1 -> four distinct nodes.
        assert t.size(expr) == 4

    def test_bool_to_bv(self):
        p = t.bool_var("p")
        encoded = t.bool_to_bv(p, 1)
        assert encoded.width == 1
