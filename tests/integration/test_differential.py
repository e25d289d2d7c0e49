"""Differential testing: LLVM and Virtual x86 co-execution.

Independently of KEQ, running the input and the ISel output on the *same
concrete arguments* must produce the same return value and final memory.
This cross-checks three components at once (the two semantics and ISel)
and is the ground truth KEQ's symbolic verdicts must agree with.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.fuzz.lowering_oracle import HALTED, STEP_LIMIT, concretize
from repro.isel import select_function
from repro.llvm import parse_module
from repro.llvm.semantics import LlvmSemantics, entry_state, module_memory
from repro.semantics.run import run_concrete
from repro.semantics.state import StatusKind
from repro.smt import t
from repro.vx86.insns import ARGUMENT_REGISTERS
from repro.vx86.semantics import Vx86Semantics, machine_entry_state
from repro.workloads import FunctionShape, generate_module


def co_execute(module, function_name, argument_values):
    """Run LLVM and ISel-output x86 on the same concrete inputs."""
    function = module.function(function_name)
    machine, hints = select_function(module, function)

    arguments = {
        name: t.bv_const(value, 32)
        for (name, _), value in zip(function.parameters, argument_values)
    }
    memory = concretize(module_memory(module))
    llvm_final = run_concrete(
        LlvmSemantics(module),
        entry_state(module, function, arguments=arguments, memory=memory),
        STEP_LIMIT,
    )
    assert llvm_final.status in HALTED

    registers = {
        ARGUMENT_REGISTERS[index]: t.bv_const(value, 64)
        for index, value in enumerate(argument_values[: len(function.parameters)])
    }
    x86_state = machine_entry_state(machine, memory, registers)
    x86_state = x86_state.with_memory(concretize(x86_state.memory))
    x86_final = run_concrete(
        Vx86Semantics({machine.name: machine}), x86_state, STEP_LIMIT
    )
    assert x86_final.status in HALTED
    return llvm_final, x86_final


def assert_equivalent_outcome(llvm_final, x86_final):
    assert llvm_final.status == x86_final.status
    if llvm_final.status is StatusKind.EXITED:
        if llvm_final.returned is not None:
            llvm_value = llvm_final.returned.value & 0xFFFFFFFF
            x86_value = x86_final.returned.value & 0xFFFFFFFF
            assert llvm_value == x86_value
        # Final memories must agree byte for byte on concrete cells.
        for name, contents in llvm_final.memory.objects:
            if not x86_final.memory.has_object(name):
                continue
            other = x86_final.memory.object(name)
            for offset in range(contents.descriptor.size):
                left = contents.load_byte(offset)
                right = other.load_byte(offset)
                if left.is_const() and right.is_const():
                    assert left.value == right.value, (name, offset)
                else:
                    assert left is right, (name, offset)


LOOP_FN = """
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

MEMORY_FN = """
@g = external global [4 x i32]
define i32 @f(i32 %x) {
entry:
  %p = alloca i32
  store i32 %x, i32* %p
  %v = load i32, i32* %p
  %q = getelementptr inbounds [4 x i32], [4 x i32]* @g, i64 0, i64 1
  store i32 %v, i32* %q
  %w = load i32, i32* %q
  %r = mul i32 %w, 3
  ret i32 %r
}
"""


class TestHandWrittenFunctions:
    def test_loop_function(self):
        module = parse_module(LOOP_FN)
        for n in (0, 1, 7):
            llvm_final, x86_final = co_execute(module, "sum", [n])
            assert_equivalent_outcome(llvm_final, x86_final)
            assert llvm_final.returned.value == sum(range(n))

    def test_memory_function(self):
        module = parse_module(MEMORY_FN)
        llvm_final, x86_final = co_execute(module, "f", [14])
        assert_equivalent_outcome(llvm_final, x86_final)
        assert llvm_final.returned.value == 42

    def test_signed_comparison_function(self):
        module = parse_module(
            "define i32 @m(i32 %a, i32 %b) {\nentry:\n"
            "  %c = icmp slt i32 %a, %b\n"
            "  br i1 %c, label %x, label %y\n"
            "x:\n  ret i32 %a\ny:\n  ret i32 %b\n}"
        )
        for a, b in ((1, 2), (2, 1), (0xFFFFFFFF, 1), (1, 0xFFFFFFFF)):
            llvm_final, x86_final = co_execute(module, "m", [a, b])
            assert_equivalent_outcome(llvm_final, x86_final)


class TestGeneratedFunctions:
    @given(
        seed=st.integers(0, 5000),
        # Any argument can end up as a loop bound, so keep magnitudes small
        # enough for concrete execution to finish (wrap-around is still
        # exercised through subtraction and shifts in the generated code).
        args=st.tuples(
            st.integers(0, 200),
            st.integers(0, 200),
            st.integers(0, 50),
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_functions_agree(self, seed, args):
        module = generate_module(
            [
                (
                    "f",
                    FunctionShape(
                        loops=1, diamonds=1, memory_ops=1, allocas=1, calls=0
                    ),
                    seed,
                )
            ]
        )
        llvm_final, x86_final = co_execute(module, "f", list(args))
        assert_equivalent_outcome(llvm_final, x86_final)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_keq_verdict_matches_differential(self, seed):
        """If KEQ validates, concrete co-execution must agree (soundness
        spot check)."""
        from repro.tv import validate_function

        module = generate_module(
            [("f", FunctionShape(loops=1, diamonds=1, calls=0), seed)]
        )
        outcome = validate_function(module, "f")
        if outcome.ok:
            llvm_final, x86_final = co_execute(module, "f", [5, 9, 3])
            assert_equivalent_outcome(llvm_final, x86_final)
