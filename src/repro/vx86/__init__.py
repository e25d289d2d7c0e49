"""Virtual x86: the Machine IR the LLVM x86 backend produces after ISel.

Reproduces the paper's output language (Section 4.3): a register-based IR
with x86-64 opcodes and physical registers, plus the Machine IR extensions —
``COPY`` and ``PHI`` pseudo-instructions, unlimited SSA virtual registers,
and a frame abstraction (here: frame slots are named objects in the common
memory model, which is what makes "memories are equal" a meaningful
acceptability clause).

Register semantics follow x86-64: writing a 32-bit view (``eax``) zeroes
the upper 32 bits of the full register, while 8/16-bit writes preserve
them.  That detail is load-bearing: the paper's load-narrowing bug
(Fig. 10/11) is only observable because of it.

The containers, the instruction record, the textual parser and the
semantics of registers, memory accesses, PHIs, moves, jumps and calls are
the machine-IR layer shared with Virtual RISC-V (:mod:`repro.mir`).  This
package adds what is x86's own: the registers and their sub-register
aliases, the opcode tables, the four-flag model with ``cmp``/``test`` and
the condition codes, ``cmov``/``setcc``, ``inc``/``dec``/``neg``/``not``,
trapping division and the 8/16-bit sub-register merge.
"""

from repro.vx86.insns import (
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    PReg,
    VReg,
)
from repro.vx86.parser import parse_machine_function
from repro.vx86.semantics import Vx86Semantics, machine_entry_state

__all__ = [
    "Imm",
    "Label",
    "MachineBlock",
    "MachineFunction",
    "MemRef",
    "MInstr",
    "PReg",
    "VReg",
    "Vx86Semantics",
    "machine_entry_state",
    "parse_machine_function",
]
