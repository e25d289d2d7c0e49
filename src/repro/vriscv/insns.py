"""Virtual RISC-V instruction set and machine-function containers.

A virtual RV32-flavoured register machine: the instruction vocabulary is
the RV32IM base set (ALU register/immediate forms folded together,
fused compare-and-branch, loads/stores, ``jal``-style calls) plus the
Machine IR pseudo-ops every ISel lowering in this repo uses (``COPY``,
``PHI``, ``sel``, ``zext``/``sext``).  Registers are the 31 ABI-named
integer registers plus ``zero`` (x0), which reads as 0 and discards
writes — the semantics hardwire it.

Registers are XLEN=64 wide even though the instruction set is
RV32-styled: the common memory model shared with the LLVM side uses
64-bit pointers (``repro.memory.POINTER_BITS``), so machine registers
must be able to carry them — the same reason the virtual x86 target is
64-bit.  Narrower value widths ride as register *views* (``a0.32``),
mirroring how ``repro.vx86`` uses sub-register aliases.

Differences from vx86 that exercise KEQ's language-parametricity:

- no flags register — conditions are fused compare-and-branch
  (``blt rs1, rs2, label``) or materialized with ``slt``/``seqz``;
- division never traps — ``div``/``rem`` by zero produce the RISC-V
  defined results (all-ones quotient, dividend remainder) in a single
  successor state, where vx86 forks an error branch;
- a dedicated ``sel`` pseudo instead of flag-driven ``cmov``.

Operand kinds, block/function containers and the instruction record's
validation and printing come from :mod:`repro.mir`, shared with every
other virtual target; this module names the RISC-V registers and opcode
tables.
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
    "ALU_OPS",
    "ARGUMENT_REGISTERS",
    "BRANCH_OPS",
    "COMPARE_OPS",
    "Imm",
    "Label",
    "MInstr",
    "MachineBlock",
    "MachineFunction",
    "MemRef",
    "OPCODES",
    "Operand",
    "REGISTERS",
    "RETURN_REGISTER",
    "VReg",
    "XReg",
    "ZERO_REGISTER",
]

# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

#: RISC-V integer registers by ABI name, in x0..x31 order.
REGISTERS = (
    "zero",
    "ra",
    "sp",
    "gp",
    "tp",
    "t0",
    "t1",
    "t2",
    "s0",
    "s1",
    "a0",
    "a1",
    "a2",
    "a3",
    "a4",
    "a5",
    "a6",
    "a7",
    "s2",
    "s3",
    "s4",
    "s5",
    "s6",
    "s7",
    "s8",
    "s9",
    "s10",
    "s11",
    "t3",
    "t4",
    "t5",
    "t6",
)

#: x0: reads yield zero, writes are discarded.
ZERO_REGISTER = "zero"

#: RISC-V integer calling convention: arguments in a0-a7.
ARGUMENT_REGISTERS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")

RETURN_REGISTER = "a0"


@dataclass(frozen=True)
class XReg(PhysReg):
    """A physical register access: ABI name + view width.

    RISC-V has no architectural sub-register names, so narrow views
    print as ``a0.32``; the full-width view prints as the bare name.
    """

    def __post_init__(self):
        if self.name not in REGISTERS:
            raise ValueError(f"unknown register {self.name!r}")
        if self.width not in (8, 16, 32, 64):
            raise ValueError(f"unsupported register width {self.width}")

    @staticmethod
    def named(text: str) -> "XReg":
        name, dot, width = text.partition(".")
        return XReg(name, int(width) if dot else 64)

    def __str__(self) -> str:
        if self.width == 64:
            return self.name
        return f"{self.name}.{self.width}"


# ---------------------------------------------------------------------------
# Opcode vocabulary
# ---------------------------------------------------------------------------

#: Register/register (or register/immediate) ALU operations.  Immediate
#: second operands stand in for the RV ``addi``/``slli``/... forms; the
#: virtual machine folds both encodings into one opcode.
ALU_OPS = (
    "add",
    "sub",
    "mul",
    "and",
    "or",
    "xor",
    "sll",
    "srl",
    "sra",
    "div",
    "rem",
    "divu",
    "remu",
)

#: Fused compare-and-branch: ``bcc rs1, rs2, label``.
BRANCH_OPS = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

#: Compare-to-register: ``slt rd, rs1, rs2`` materializes a 0/1 value.
COMPARE_OPS = ("slt", "sltu")

#: opcode -> (has_result, operand count excluding result); -1 = variadic.
OPCODES: dict[str, tuple[bool, int]] = {
    **{op: (True, 2) for op in ALU_OPS},
    **{op: (False, 3) for op in BRANCH_OPS},
    **{op: (True, 2) for op in COMPARE_OPS},
    "seqz": (True, 1),  # rd <- (rs == 0)
    "snez": (True, 1),  # rd <- (rs != 0)
    "COPY": (True, 1),
    "PHI": (True, -1),
    "sel": (True, 3),  # rd <- cond ? a : b (select pseudo)
    "zext": (True, 1),
    "sext": (True, 1),
    "li": (True, 1),  # register <- immediate
    "la": (True, 1),  # register <- address of MemRef
    "load": (True, 1),  # register <- MemRef
    "store": (False, 2),  # MemRef, source (register or immediate)
    "j": (False, 1),  # unconditional jump
    "call": (False, -1),  # label, then argument registers (documentation)
    "ret": (False, 0),
}


@dataclass(frozen=True)
class MInstr(mir.MInstr):
    """One Virtual RISC-V instruction: ``result = opcode(operands)``."""

    OPCODES = OPCODES
    BRANCHES = {"j": 0, **dict.fromkeys(BRANCH_OPS, 2)}
