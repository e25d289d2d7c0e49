"""Virtual RISC-V: the second target ISA, validated by the unmodified KEQ.

The containers, the instruction record, the textual parser and the
semantics of registers, memory accesses, PHIs, moves, jumps and calls are
the machine-IR layer shared with Virtual x86 (:mod:`repro.mir`).  This
package adds what is RISC-V's own: the ABI registers with the hardwired
``zero``, the opcode tables, fused compare-and-branch,
``slt``/``sltu``/``seqz``/``snez``, ``sel`` and non-trapping division.
"""

from repro.vriscv.insns import (
    ARGUMENT_REGISTERS,
    BRANCH_OPS,
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    OPCODES,
    REGISTERS,
    RETURN_REGISTER,
    VReg,
    XReg,
    ZERO_REGISTER,
)
from repro.vriscv.parser import parse_machine_function
from repro.vriscv.semantics import VRiscvSemantics, machine_entry_state

__all__ = [
    "ARGUMENT_REGISTERS",
    "BRANCH_OPS",
    "Imm",
    "Label",
    "MInstr",
    "MachineBlock",
    "MachineFunction",
    "MemRef",
    "OPCODES",
    "REGISTERS",
    "RETURN_REGISTER",
    "VReg",
    "VRiscvSemantics",
    "XReg",
    "ZERO_REGISTER",
    "machine_entry_state",
    "parse_machine_function",
]
