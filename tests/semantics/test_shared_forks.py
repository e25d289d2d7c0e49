"""The forks LLVM and the machine IRs must agree on, step for step.

The acceptability relation relates an LLVM error state to a machine error
state only by kind and path condition (paper Section 4.6), and a select
over pointers must split both sides alike.  Each case steps one
instruction on each side from states holding the same symbolic operands
and compares the successor lists.
"""

import pytest

from repro import vriscv, vx86
from repro.llvm import parse_module
from repro.llvm.semantics import LlvmSemantics, entry_state, module_memory
from repro.memory import PointerValue
from repro.mir import VReg
from repro.semantics.state import ErrorInfo, StatusKind
from repro.smt import t
from repro.targets import TARGET_NAMES, get_target

PARSE = {
    "vx86": vx86.parse_machine_function,
    "vriscv": vriscv.parse_machine_function,
}

GLOBALS = "@a = external global i32\n@b = external global i32\n"


def llvm_step(body: str, parameters: str, arguments: dict):
    """Step the first instruction of ``@f`` once."""
    module = parse_module(
        f"{GLOBALS}define i32 @f({parameters}) {{\nentry:\n{body}\n}}"
    )
    state = entry_state(module, module.function("f"), arguments)
    return LlvmSemantics(module).step(state), module_memory(module)


def machine_step(target: str, line: str, registers: dict, memory):
    """Step ``line`` once, with ``registers`` (register or flag -> value)
    bound."""
    function = PARSE[target](f"f:\n.LBB0:\n  {line}\n  ret\n")
    spec = get_target(target)
    state = spec.machine_entry_state(function, memory, {})
    state = state.bind_many(
        {getattr(reg, "key", reg): value for reg, value in registers.items()}
    )
    return spec.semantics({function.name: function}).step(state)


def errors(successors):
    return [
        (state.error.kind, state.path_condition)
        for state in successors
        if state.status is StatusKind.ERROR
    ]


X, Y = t.bv_var("fx", 32), t.bv_var("fy", 32)
VR0, VR1, VR2 = VReg(0, 32), VReg(1, 32), VReg(2, 32)

#: LLVM division -> (its vx86 opcode, the error kinds it forks, in order)
DIVISIONS = {
    "udiv": ("udiv", [ErrorInfo.DIV_BY_ZERO]),
    "urem": ("urem", [ErrorInfo.DIV_BY_ZERO]),
    "sdiv": ("idiv", [ErrorInfo.DIV_BY_ZERO, ErrorInfo.SIGNED_OVERFLOW]),
    "srem": ("irem", [ErrorInfo.DIV_BY_ZERO, ErrorInfo.SIGNED_OVERFLOW]),
}


class TestTrappingDivision:
    @pytest.mark.parametrize("op", list(DIVISIONS))
    def test_llvm_and_vx86_fork_the_same_errors(self, op):
        opcode, kinds = DIVISIONS[op]
        lefts, memory = llvm_step(
            f"  %q = {op} i32 %x, %y\n  ret i32 %q",
            "i32 %x, i32 %y",
            {"x": X, "y": Y},
        )
        rights = machine_step(
            "vx86", f"{VR0} = {opcode} {VR1}, {VR2}", {VR1: X, VR2: Y}, memory
        )
        assert [kind for kind, _ in errors(lefts)] == kinds
        assert errors(lefts) == errors(rights)
        # The running successor comes last, under the same path condition.
        assert len(lefts) == len(rights) == len(kinds) + 1
        assert lefts[-1].is_running and rights[-1].is_running
        assert lefts[-1].path_condition is rights[-1].path_condition

    @pytest.mark.parametrize("opcode", ["div", "rem", "divu", "remu"])
    def test_vriscv_division_never_traps(self, opcode):
        (state,) = machine_step(
            "vriscv",
            f"{VR0} = {opcode} {VR1}, {VR2}",
            {VR1: X, VR2: Y},
            module_memory(parse_module(GLOBALS)),
        )
        assert state.is_running
        assert state.path_condition is t.TRUE

    def test_constant_divisor_forks_nothing(self):
        lefts, memory = llvm_step(
            "  %q = sdiv i32 %x, 3\n  ret i32 %q", "i32 %x", {"x": X}
        )
        rights = machine_step(
            "vx86", f"{VR0} = idiv {VR1}, 3", {VR1: X}, memory
        )
        assert len(lefts) == len(rights) == 1
        assert errors(lefts) == errors(rights) == []


OFFSET = t.bv_var("foff", 64)
POINTER = PointerValue("a", OFFSET)
PTR = VReg(3, 64)


class TestOutOfBoundsAccess:
    @pytest.mark.parametrize("access", ["load", "store"])
    def test_one_error_listed_first_on_every_ir(self, access):
        if access == "load":
            llvm_body = "  %v = load i32, i32* %p\n  ret i32 %v"
            machine = f"{VR0} = load32 [{PTR}]"
        else:
            llvm_body = "  store i32 %x, i32* %p\n  ret i32 %x"
            machine = f"store32 [{PTR}], {VR1}"
        lefts, memory = llvm_step(
            llvm_body, "i32* %p, i32 %x", {"p": POINTER, "x": X}
        )
        sides = {"llvm": lefts}
        for target in TARGET_NAMES:
            sides[target] = machine_step(
                target, machine, {PTR: POINTER, VR1: X}, memory
            )
        expected = errors(lefts)
        assert [kind for kind, _ in expected] == [ErrorInfo.OUT_OF_BOUNDS]
        for name, successors in sides.items():
            assert len(successors) == 2, name
            assert successors[0].status is StatusKind.ERROR, name
            assert errors(successors) == expected, name
            assert successors[1].path_condition is lefts[1].path_condition, name


class TestSelectOverPointers:
    def test_both_sides_split_on_the_condition(self):
        p = t.bool_var("fp")
        lefts, memory = llvm_step(
            "  %r = select i1 %c, i32* @a, i32* @b\n  ret i32 0",
            "i1 %c",
            {"c": t.bool_to_bv(p, 1)},
        )
        taken = PointerValue("a", t.zero(64))
        not_taken = PointerValue("b", t.zero(64))
        dest, on_true, on_false = VReg(4, 64), VReg(8, 64), VReg(9, 64)
        pointers = {on_true: taken, on_false: not_taken}
        machines = {
            # cmove reads zf; sel tests an 8-bit register against zero.
            "vx86": machine_step(
                "vx86",
                f"{dest} = cmove {on_true}, {on_false}",
                {**pointers, "zf": p},
                memory,
            ),
            "vriscv": machine_step(
                "vriscv",
                f"{dest} = sel {VReg(10, 8)}, {on_true}, {on_false}",
                {**pointers, VReg(10, 8): t.bool_to_bv(p, 8)},
                memory,
            ),
        }
        expected = [(p, taken), (t.not_(p), not_taken)]
        assert [(s.path_condition, s.env["r"]) for s in lefts] == expected
        for target, successors in machines.items():
            assert [
                (s.path_condition, s.env[dest.key]) for s in successors
            ] == expected, target
