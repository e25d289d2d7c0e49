"""Virtual x86 instruction set and machine-function containers.

Instructions are uniform :class:`MInstr` records — an opcode plus typed
operands.  The opcode vocabulary (``OPCODES``) covers the fragment the
paper's semantics support: integer ALU ops, moves between registers and
memory, ``lea``, compares and conditional jumps, the Machine IR pseudo-ops
``COPY`` and ``PHI``, calls and returns.

Division is modelled with explicit quotient/remainder opcodes
(``idiv``/``irem``/``udiv``/``urem``) instead of the implicit
``rdx:rax`` convention; LLVM's own Machine IR likewise uses pseudo
expansions before register allocation, and the trap behaviour (#DE on zero
divisor or quotient overflow) is preserved in the semantics.

The operand kinds, the block/function containers and the instruction
record's validation and printing are shared with the other virtual
targets via :mod:`repro.mir`; this module names the x86 registers and
opcode tables and re-exports the shared shapes so existing importers keep
working.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import mir
from repro.mir import (
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    Operand,
    PhysReg,
    VReg,
)

__all__ = [
    "ALIASES",
    "ALU_OPS",
    "ARGUMENT_REGISTERS",
    "CMOV_CONDITION",
    "CMOV_OPS",
    "CONDITION_CODES",
    "GPR64",
    "Imm",
    "Label",
    "MInstr",
    "MachineBlock",
    "MachineFunction",
    "MemRef",
    "OPCODES",
    "Operand",
    "PReg",
    "RETURN_REGISTER",
    "SETCC_CONDITION",
    "SETCC_OPS",
    "UNARY_OPS",
    "VReg",
]

# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

#: Canonical 64-bit general-purpose register names.
GPR64 = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "rbp",
    "rsp",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

#: Sub-register aliases -> (canonical 64-bit register, access width in bits).
ALIASES: dict[str, tuple[str, int]] = {}
for _reg in GPR64:
    ALIASES[_reg] = (_reg, 64)
for _r64, _r32 in zip(
    GPR64,
    ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"),
):
    ALIASES[_r32] = (_r64, 32)
for _i in range(8, 16):
    ALIASES[f"r{_i}d"] = (f"r{_i}", 32)
    ALIASES[f"r{_i}w"] = (f"r{_i}", 16)
    ALIASES[f"r{_i}b"] = (f"r{_i}", 8)
for _r64, _r16 in zip(GPR64[:8], ("ax", "bx", "cx", "dx", "si", "di", "bp", "sp")):
    ALIASES[_r16] = (_r64, 16)
for _r64, _r8 in zip(
    GPR64[:8], ("al", "bl", "cl", "dl", "sil", "dil", "bpl", "spl")
):
    ALIASES[_r8] = (_r64, 8)

#: SysV AMD64 integer argument registers, in order.
ARGUMENT_REGISTERS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

RETURN_REGISTER = "rax"


@dataclass(frozen=True)
class PReg(PhysReg):
    """A physical register access: canonical 64-bit name + view width."""

    @staticmethod
    def named(alias: str) -> "PReg":
        if alias not in ALIASES:
            raise ValueError(f"unknown register {alias!r}")
        canonical, width = ALIASES[alias]
        return PReg(canonical, width)

    def __str__(self) -> str:
        for alias, (canonical, width) in ALIASES.items():
            if canonical == self.name and width == self.width:
                return alias
        return f"{self.name}:{self.width}"


# ---------------------------------------------------------------------------
# Opcode vocabulary
# ---------------------------------------------------------------------------

ALU_OPS = (
    "add",
    "sub",
    "imul",
    "and",
    "or",
    "xor",
    "shl",
    "shr",
    "sar",
    "idiv",
    "irem",
    "udiv",
    "urem",
)

UNARY_OPS = ("inc", "dec", "neg", "not")

#: jcc -> flag expression evaluated by the semantics.
CONDITION_CODES = (
    "je",
    "jne",
    "jb",
    "jae",
    "jbe",
    "ja",
    "jl",
    "jge",
    "jle",
    "jg",
    "js",
    "jns",
)

#: cmovcc picks between its two operands on a flag condition.
CMOV_OPS = tuple("cmov" + cc[1:] for cc in (
    "je", "jne", "jb", "jae", "jbe", "ja", "jl", "jge", "jle", "jg", "js", "jns"
))

#: cmov opcode -> the jcc whose condition it tests.
CMOV_CONDITION = {op: "j" + op[4:] for op in CMOV_OPS}

#: setcc materializes a flag condition as a 0/1 byte.
SETCC_OPS = (
    "sete",
    "setne",
    "setb",
    "setae",
    "setbe",
    "seta",
    "setl",
    "setge",
    "setle",
    "setg",
    "sets",
    "setns",
)

#: setcc opcode -> the jcc whose condition it materializes.
SETCC_CONDITION = {op: "j" + op[3:] for op in SETCC_OPS}

#: opcode -> (has_result, operand count excluding result); -1 = variadic.
OPCODES: dict[str, tuple[bool, int]] = {
    **{op: (True, 2) for op in ALU_OPS},
    **{op: (True, 1) for op in UNARY_OPS},
    **{cc: (False, 1) for cc in CONDITION_CODES},
    **{op: (True, 0) for op in SETCC_OPS},
    **{op: (True, 2) for op in CMOV_OPS},
    "COPY": (True, 1),
    "PHI": (True, -1),
    "mov": (True, 1),  # register <- immediate/register
    "load": (True, 1),  # register <- MemRef
    "store": (False, 2),  # MemRef, source (register or immediate)
    "lea": (True, 1),  # register <- address of MemRef
    "movzx": (True, 1),
    "movsx": (True, 1),
    "cmp": (False, 2),
    "test": (False, 2),
    "jmp": (False, 1),
    "call": (False, -1),  # label, then argument registers (documentation)
    "ret": (False, 0),
}


@dataclass(frozen=True)
class MInstr(mir.MInstr):
    """One Virtual x86 instruction: ``result = opcode(operands)``."""

    OPCODES = OPCODES
    BRANCHES = {"jmp": 0, **dict.fromkeys(CONDITION_CODES, 0)}
