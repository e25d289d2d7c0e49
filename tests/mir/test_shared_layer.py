"""The shared machine-IR layer on every target: what each printer emits
parses back, and the semantics core's error paths raise the same
messages on both ISAs."""

import re

import pytest

from repro import vriscv, vx86
from repro.isel import IselOptions
from repro.llvm import parse_module
from repro.memory import Memory, MemoryObject
from repro.mir import Label
from repro.targets import TARGET_NAMES, get_target
from repro.vriscv.insns import REGISTERS, XReg
from repro.vriscv.semantics import MachineSemanticsError as RiscvSemanticsError
from repro.vx86.insns import GPR64, PReg
from repro.vx86.semantics import MachineSemanticsError as X86SemanticsError

PARSE = {
    "vx86": vx86.parse_machine_function,
    "vriscv": vriscv.parse_machine_function,
}
SEMANTICS_ERROR = {"vx86": X86SemanticsError, "vriscv": RiscvSemanticsError}
#: each target's move-immediate opcode.
MOV = {"vx86": "mov", "vriscv": "li"}

WIDTHS = (8, 16, 32, 64)
REGISTER_VIEWS = [
    ("vx86", PReg(name, width)) for name in GPR64 for width in WIDTHS
] + [("vriscv", XReg(name, width)) for name in REGISTERS for width in WIDTHS]


def select(target: str, source: str):
    module = parse_module(source)
    function = module.function("f")
    machine, _ = get_target(target).select_function(module, function, IselOptions())
    return machine


def assert_round_trips(target: str, machine) -> None:
    text = str(machine)
    reparsed = PARSE[target](text)
    assert str(reparsed) == text
    assert list(reparsed.instructions()) == list(machine.instructions())


class TestPrintedFormParsesBack:
    @pytest.mark.parametrize(("target", "register"), REGISTER_VIEWS, ids=str)
    def test_register_view(self, target, register):
        text = f"f:\n.LBB0:\n  {register} = COPY {register}\n  ret\n"
        copy = PARSE[target](text).entry_block.instructions[0]
        assert copy.result == register
        assert copy.operands == (register,)

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_byte_arguments(self, target):
        machine = select(
            target,
            "define i8 @f(i8 %a, i8 %b) {\nentry:\n"
            "  %s = add i8 %a, %b\n  ret i8 %s\n}",
        )
        assert_round_trips(target, machine)

    @pytest.mark.parametrize(
        ("target", "callee"), [("vx86", "r8"), ("vriscv", "t0")]
    )
    def test_callee_named_like_a_register(self, target, callee):
        machine = select(
            target,
            f"declare i32 @{callee}(i32)\n\n"
            "define i32 @f(i32 %a) {\nentry:\n"
            f"  %r = call i32 @{callee}(i32 %a)\n  ret i32 %r\n}}",
        )
        assert f"call {callee}, " in str(machine)
        assert_round_trips(target, machine)

    @pytest.mark.parametrize("target", TARGET_NAMES)
    @pytest.mark.parametrize("spelling", ["r8", "@r8", "t0", "@t0"])
    def test_call_target_is_a_label(self, target, spelling):
        text = f"f:\n.LBB0:\n  call {spelling}\n  ret\n"
        call = PARSE[target](text).entry_block.instructions[0]
        assert call.operands == (Label(spelling.lstrip("@")),)


#: (straight-line body with {mov}, the message the core raises).
ERROR_PATHS = [
    ("%vr0_32 = load [4]", "memory operand without object or base"),
    (
        "%vr1_64 = {mov} 4\n  %vr0_32 = load [%vr1_64]",
        "register %vr1_64 does not hold a known object pointer",
    ),
    ("%vr0_32 = PHI %vr1_32, .LBB1", "PHI in .LBB0 without predecessor"),
    (
        "%vr1_32 = {mov} 7\n  store16 [g], %vr1_32",
        "store width mismatch: 32 bits into 2 bytes",
    ),
    ("%vr0_32 = load64 [g]", "load width 64 into 32-bit register"),
    ("%vr1_32 = {mov} 7\n  %vr0_64 = COPY %vr1_32", "COPY widens 32 -> 64"),
    (
        "%vr1_64 = {mov} 1\n  %vr2_64 = {mov} 2\n"
        "  %vr0_32 = add %vr1_64, %vr2_64",
        "width mismatch writing %vr0_32: 64 bits",
    ),
]


@pytest.mark.parametrize("target", TARGET_NAMES)
@pytest.mark.parametrize(
    ("body", "message"), ERROR_PATHS, ids=[message for _, message in ERROR_PATHS]
)
def test_semantics_error_path(target, body, message):
    function = PARSE[target](
        f"f:\n.LBB0:\n  {body.format(mov=MOV[target])}\n  ret\n"
    )
    spec = get_target(target)
    semantics = spec.semantics({function.name: function})
    memory = Memory.create([MemoryObject("g", 8)])
    frontier = [spec.machine_entry_state(function, memory, {})]
    with pytest.raises(SEMANTICS_ERROR[target], match=re.escape(message)):
        while frontier:
            frontier = [s for state in frontier for s in semantics.step(state)]
