"""Tests for the register-allocation extension: SSA elimination, linear
scan, black-box VC generation, and KEQ validating the whole pass."""

import pytest

from repro.isel import select_function
from repro.keq import Keq, KeqOptions, Verdict, default_acceptability
from repro.llvm import parse_module
from repro.llvm.semantics import module_memory
from repro.llvm.types import sizeof
from repro.memory import Memory, MemoryObject
from repro.regalloc import (
    AllocatorBug,
    allocate_registers,
    eliminate_phis,
    generate_regalloc_sync_points,
)
from repro.regalloc.allocator import ALLOCATABLE, RegAllocError
from repro.semantics.run import run_concrete
from repro.semantics.state import StatusKind
from repro.smt import t
from repro.vx86.insns import PReg, VReg
from repro.vx86.semantics import Vx86Semantics, machine_entry_state

LOOP = """
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %acc2 = add i32 %acc, %i
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %acc
}
"""

# Eleven simultaneously-live values force spilling with a 7-register pool.
MANY_LIVE = """
define i32 @wide(i32 %a, i32 %b) {
entry:
  %v0 = add i32 %a, %b
  %v1 = add i32 %a, 1
  %v2 = add i32 %a, 2
  %v3 = add i32 %a, 3
  %v4 = add i32 %a, 4
  %v5 = add i32 %a, 5
  %v6 = add i32 %a, 6
  %v7 = add i32 %a, 7
  %v8 = add i32 %a, 8
  %v9 = add i32 %a, 9
  %v10 = add i32 %a, 10
  br label %next
next:
  %s0 = add i32 %v0, %v1
  %s1 = add i32 %s0, %v2
  %s2 = add i32 %s1, %v3
  %s3 = add i32 %s2, %v4
  %s4 = add i32 %s3, %v5
  %s5 = add i32 %s4, %v6
  %s6 = add i32 %s5, %v7
  %s7 = add i32 %s6, %v8
  %s8 = add i32 %s7, %v9
  %s9 = add i32 %s8, %v10
  ret i32 %s9
}
"""


def machine_for(source):
    module = parse_module(source)
    function = next(iter(module.functions.values()))
    machine, _ = select_function(module, function)
    return module, machine


def execute(function, registers):
    semantics = Vx86Semantics({function.name: function})
    state = machine_entry_state(function, Memory.create([]), registers)
    final = run_concrete(semantics, state)
    assert final.status is StatusKind.EXITED
    return final


class TestSsaElimination:
    def test_phis_removed(self):
        _, machine = machine_for(LOOP)
        eliminated = eliminate_phis(machine)
        assert all(
            instruction.opcode != "PHI"
            for _, _, instruction in eliminated.instructions()
        )

    def test_behaviour_preserved(self):
        _, machine = machine_for(LOOP)
        before = execute(machine, {"rdi": t.bv_const(6, 64)})
        _, machine2 = machine_for(LOOP)
        eliminated = eliminate_phis(machine2)
        after = execute(eliminated, {"rdi": t.bv_const(6, 64)})
        assert before.returned.value == after.returned.value == 15

    def test_swap_problem_handled(self):
        """Two phis exchanging values each iteration: naive in-place copies
        would lose one; the temporary scheme must not."""
        module = parse_module(
            """
define i32 @swap(i32 %n) {
entry:
  br label %head
head:
  %x = phi i32 [ 1, %entry ], [ %y, %body ]
  %y = phi i32 [ 2, %entry ], [ %x, %body ]
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %x
}
"""
        )
        machine, _ = select_function(module, module.function("swap"))
        eliminated = eliminate_phis(machine)
        # After an odd number of swaps x holds 2, after even it holds 1.
        for n, expected in ((0, 1), (1, 2), (2, 1), (5, 2)):
            final = execute(eliminated, {"rdi": t.bv_const(n, 64)})
            assert final.returned.value == expected, n


class TestAllocator:
    def test_no_vregs_remain(self):
        _, machine = machine_for(LOOP)
        result = allocate_registers(eliminate_phis(machine))
        for _, _, instruction in result.function.instructions():
            operands = list(instruction.operands)
            if instruction.result is not None:
                operands.append(instruction.result)
            for operand in operands:
                assert not isinstance(operand, VReg), instruction

    def test_behaviour_preserved_simple(self):
        _, machine = machine_for(LOOP)
        result = allocate_registers(eliminate_phis(machine))
        final = execute(result.function, {"rdi": t.bv_const(7, 64)})
        assert final.returned.value == 21

    def test_spilling_occurs_under_pressure(self):
        _, machine = machine_for(MANY_LIVE)
        result = allocate_registers(eliminate_phis(machine))
        assert result.spills, "expected register pressure to force spills"
        assert result.spill_object in result.function.frame_objects

    def test_behaviour_preserved_with_spills(self):
        _, machine = machine_for(MANY_LIVE)
        result = allocate_registers(eliminate_phis(machine))
        final = execute(
            result.function,
            {"rdi": t.bv_const(100, 64), "rsi": t.bv_const(5, 64)},
        )
        # Python reference of the same computation.
        a, b = 100, 5
        v = [a + b] + [a + k for k in range(1, 11)]
        s = v[0]
        for k in range(1, 11):
            s += v[k]
        assert final.returned.value == s & 0xFFFFFFFF

    def test_wrong_slot_bug_changes_behaviour(self):
        _, machine = machine_for(MANY_LIVE)
        good = allocate_registers(eliminate_phis(machine))
        _, machine2 = machine_for(MANY_LIVE)
        bad = allocate_registers(
            eliminate_phis(machine2), bug=AllocatorBug.WRONG_SPILL_SLOT
        )
        registers = {"rdi": t.bv_const(100, 64), "rsi": t.bv_const(5, 64)}
        good_final = execute(good.function, registers)
        bad_final = execute(bad.function, registers)
        assert good_final.returned.value != bad_final.returned.value

    def test_calls_rejected(self):
        module = parse_module(
            "define i32 @f(i32 %x) {\nentry:\n"
            "  %r = call i32 @g(i32 %x)\n  ret i32 %r\n}"
        )
        machine, _ = select_function(module, module.function("f"))
        with pytest.raises(RegAllocError):
            allocate_registers(eliminate_phis(machine))


class TestBlackBoxValidation:
    def validate(self, source, bug=None):
        from repro.keq.report import KeqReport
        from repro.regalloc.vcgen import RegAllocVcError

        module, machine = machine_for(source)
        input_function = eliminate_phis(machine)
        result = allocate_registers(input_function, bug=bug)
        try:
            points = generate_regalloc_sync_points(
                input_function, result.function
            )
        except RegAllocVcError:
            # Inference found no consistent correspondence — the
            # translation is not validated (a clobbered value has no home).
            return KeqReport(Verdict.NOT_VALIDATED)
        keq = Keq(
            Vx86Semantics({input_function.name: input_function}),
            Vx86Semantics({result.function.name: result.function}),
            default_acceptability(),
            KeqOptions(max_steps=20000, max_pair_checks=10000),
        )
        return keq.check_equivalence(points)

    def test_correct_allocation_validates(self):
        report = self.validate(LOOP)
        assert report.verdict is Verdict.VALIDATED, report.summary()

    def test_spilling_allocation_validates(self):
        report = self.validate(MANY_LIVE)
        assert report.verdict is Verdict.VALIDATED, report.summary()

    def test_wrong_slot_bug_caught(self):
        report = self.validate(MANY_LIVE, bug=AllocatorBug.WRONG_SPILL_SLOT)
        assert report.verdict is Verdict.NOT_VALIDATED

    def test_overlapping_assignment_caught(self):
        report = self.validate(LOOP, bug=AllocatorBug.OVERLAPPING_ASSIGNMENT)
        assert report.verdict is Verdict.NOT_VALIDATED

    def test_inferred_constraints_reference_homes(self):
        module, machine = machine_for(LOOP)
        input_function = eliminate_phis(machine)
        result = allocate_registers(input_function)
        points = generate_regalloc_sync_points(input_function, result.function)
        loop_points = [p for p in points if p.kind == "loop"]
        assert loop_points
        for point in loop_points:
            for constraint in point.constraints:
                assert constraint.right.kind in ("env", "mem")
