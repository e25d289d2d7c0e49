"""Tests for instruction selection: lowering shapes, hints, optimizations,
and the two reintroduced bugs."""

import pytest

from repro.isel import BugMode, IselError, IselOptions, select_function
from repro.llvm import parse_module
from repro.vx86.insns import Imm, MemRef, PReg, VReg


def lower(source, name=None, options=None):
    module = parse_module(source)
    function = (
        module.function(name) if name else next(iter(module.functions.values()))
    )
    return module, *select_function(module, function, options)


def opcodes(machine, block):
    return [instruction.opcode for instruction in machine.block(block).instructions]


class TestBasicLowering:
    def test_arguments_copied_from_sysv_registers(self):
        _, machine, hints = lower(
            "define i32 @f(i32 %a, i32 %b, i32 %c) {\nentry:\n  ret i32 %a\n}"
        )
        prologue = machine.block(".LBB0").instructions[:3]
        sources = [instruction.operands[0] for instruction in prologue]
        assert [s.name for s in sources] == ["rdi", "rsi", "rdx"]
        assert all(s.width == 32 for s in sources)

    def test_return_through_eax(self):
        _, machine, _ = lower("define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}")
        tail = machine.block(".LBB0").instructions[-2:]
        assert tail[0].opcode == "COPY"
        assert tail[0].result == PReg("rax", 32)
        assert tail[1].opcode == "ret"

    def test_block_map_hint(self):
        _, machine, hints = lower(
            "define i32 @f(i32 %a) {\nentry:\n  br label %next\n"
            "next:\n  ret i32 %a\n}"
        )
        assert hints.block_map == {"entry": ".LBB0", "next": ".LBB1"}

    def test_register_map_hint_covers_all_values(self):
        _, machine, hints = lower(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n"
            "  %y = mul i32 %x, %x\n  ret i32 %y\n}"
        )
        assert {"a", "x", "y"} <= set(hints.reg_map)

    def test_fused_compare_branch(self):
        _, machine, _ = lower(
            "define i32 @f(i32 %a) {\nentry:\n"
            "  %c = icmp ult i32 %a, 10\n"
            "  br i1 %c, label %x, label %y\n"
            "x:\n  ret i32 1\ny:\n  ret i32 2\n}"
        )
        ops = opcodes(machine, ".LBB0")
        assert "cmp" in ops and "jb" in ops
        assert "setb" not in ops  # fused: no materialized boolean

    def test_unfused_icmp_materializes_setcc(self):
        _, machine, _ = lower(
            "define i32 @f(i32 %a) {\nentry:\n"
            "  %c = icmp slt i32 %a, 10\n"
            "  %w = zext i1 %c to i32\n"
            "  ret i32 %w\n}"
        )
        ops = opcodes(machine, ".LBB0")
        assert "setl" in ops and "movzx" in ops

    def test_phi_constants_materialized_in_predecessors(self):
        _, machine, hints = lower(
            """
define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 1, %entry ], [ %inc, %head ]
  %inc = add i32 %i, 1
  %c = icmp ult i32 %inc, %n
  br i1 %c, label %head, label %out
out:
  ret i32 %i
}
"""
        )
        # The constant 1 must be materialized with mov in .LBB0.
        entry_ops = opcodes(machine, ".LBB0")
        assert "mov" in entry_ops
        assert hints.const_regs  # recorded for the VC generator

    def test_alloca_becomes_frame_object(self):
        _, machine, hints = lower(
            "define i32 @f(i32 %x) {\nentry:\n  %p = alloca i32\n"
            "  store i32 %x, i32* %p\n  %v = load i32, i32* %p\n  ret i32 %v\n}"
        )
        assert machine.frame_objects == {"stack.f.p": 4}
        assert hints.frame_objects == {"p": "stack.f.p"}
        assert hints.pointer_objects["p"] == "stack.f.p"

    def test_gep_constant_folds_to_lea(self):
        _, machine, _ = lower(
            "@arr = external global [4 x i32]\n"
            "define i32 @f() {\nentry:\n"
            "  %p = getelementptr inbounds [4 x i32], [4 x i32]* @arr, i64 0, i64 2\n"
            "  %v = load i32, i32* %p\n  ret i32 %v\n}"
        )
        lea = next(
            i for i in machine.block(".LBB0").instructions if i.opcode == "lea"
        )
        assert lea.operands[0].object == "arr"
        assert lea.operands[0].disp == 8

    def test_gep_dynamic_index_scales(self):
        _, machine, _ = lower(
            "@arr = external global [4 x i32]\n"
            "define i32 @f(i64 %i) {\nentry:\n"
            "  %p = getelementptr inbounds [4 x i32], [4 x i32]* @arr, i64 0, i64 %i\n"
            "  %v = load i32, i32* %p\n  ret i32 %v\n}"
        )
        ops = opcodes(machine, ".LBB0")
        assert "imul" in ops and "add" in ops

    def test_call_marshals_arguments(self):
        _, machine, _ = lower(
            "define i32 @f(i32 %x) {\nentry:\n"
            "  %r = call i32 @g(i32 %x, i32 7)\n  ret i32 %r\n}"
        )
        call = next(
            i for i in machine.block(".LBB0").instructions if i.opcode == "call"
        )
        assert call.operands[0].name == "g"
        assert [p.name for p in call.operands[1:]] == ["rdi", "rsi"]

    def test_division_forces_register_operand(self):
        _, machine, _ = lower(
            "define i32 @f(i32 %x) {\nentry:\n  %q = sdiv i32 %x, 3\n  ret i32 %q\n}"
        )
        div = next(
            i for i in machine.block(".LBB0").instructions if i.opcode == "idiv"
        )
        assert isinstance(div.operands[1], VReg)


class TestUnsupported:
    def test_too_many_arguments(self):
        with pytest.raises(IselError):
            lower(
                "define i32 @f(i32 %a, i32 %b, i32 %c, i32 %d, i32 %e,"
                " i32 %g, i32 %h) {\nentry:\n  ret i32 %a\n}"
            )

    def test_i96_arithmetic(self):
        with pytest.raises(IselError):
            lower(
                "define i32 @f() {\nentry:\n  %x = add i96 1, 2\n  ret i32 0\n}"
            )


class TestStoreMerging:
    WAW = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""

    def test_correct_merge_produces_dword_store_first(self):
        _, machine, _ = lower(self.WAW, options=IselOptions(merge_stores=True))
        stores = [
            i for i in machine.block(".LBB0").instructions if i.opcode == "store"
        ]
        assert len(stores) == 2
        first_mem = stores[0].operands[0]
        assert first_mem.width_bytes == 4 and first_mem.disp == 0
        # The overlapping 2-byte store stays second: order preserved.
        assert stores[1].operands[0].disp == 3

    def test_buggy_merge_reorders(self):
        _, machine, _ = lower(
            self.WAW, options=IselOptions(bug=BugMode.WAW_STORE_MERGE)
        )
        stores = [
            i for i in machine.block(".LBB0").instructions if i.opcode == "store"
        ]
        assert len(stores) == 2
        # Buggy: the wide merged store lands after the @3 store.
        assert stores[0].operands[0].disp == 3
        assert stores[1].operands[0].width_bytes == 4

    def test_merged_value_little_endian_composition(self):
        _, machine, _ = lower(self.WAW, options=IselOptions(merge_stores=True))
        wide = next(
            i
            for i in machine.block(".LBB0").instructions
            if i.opcode == "store" and i.operands[0].width_bytes == 4
        )
        # bytes 0..3 = [01, 00, 00, 00] -> 0x00000001.
        assert wide.operands[1] == Imm(1, 32)

    def test_no_merge_without_option(self):
        _, machine, _ = lower(self.WAW)
        stores = [
            i for i in machine.block(".LBB0").instructions if i.opcode == "store"
        ]
        assert len(stores) == 3


class TestLoadNarrowing:
    I96 = """
@a = external global i96, align 4
@b = external global i64, align 8
define void @foo() {
entry:
  %srcval = load i96, i96* @a, align 4
  %tmp96 = lshr i96 %srcval, 64
  %tmp64 = trunc i96 %tmp96 to i64
  store i64 %tmp64, i64* @b, align 8
  ret void
}
"""

    def test_correct_narrowing_uses_4_byte_load(self):
        _, machine, _ = lower(self.I96, options=IselOptions(narrow_loads=True))
        load = next(
            i for i in machine.block(".LBB0").instructions if i.opcode == "load"
        )
        assert load.operands[0].width_bytes == 4
        assert load.operands[0].disp == 8

    def test_buggy_narrowing_uses_8_byte_load(self):
        _, machine, _ = lower(
            self.I96, options=IselOptions(bug=BugMode.LOAD_NARROWING)
        )
        load = next(
            i for i in machine.block(".LBB0").instructions if i.opcode == "load"
        )
        assert load.operands[0].width_bytes == 8
        assert load.operands[0].disp == 8

    def test_i96_without_narrowing_is_unsupported(self):
        with pytest.raises(IselError):
            lower(self.I96)
