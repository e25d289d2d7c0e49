"""The compiler-generated hints the TV system consumes (paper Section 4.5).

The paper's hint generator adds ~500 lines of C++ to ISel and records, per
translation instance, (a) pairs of corresponding LLVM/Virtual-x86 virtual
registers and (b) pairs of corresponding loops.  We additionally surface
the block correspondence (which subsumes the loop pairs given a loop
analysis on either side), materialized-constant registers, and the static
pointer-base map — all information ISel trivially has while translating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mir import VReg


@dataclass
class IselHints:
    #: LLVM SSA name -> corresponding machine virtual register.
    reg_map: dict[str, VReg] = field(default_factory=dict)
    #: machine vreg key -> constant it was materialized with (PHI inputs).
    const_regs: dict[str, int] = field(default_factory=dict)
    #: LLVM SSA name -> memory object its pointer value is based on, when
    #: statically known (allocas, globals, and GEP/bitcast chains thereof).
    pointer_objects: dict[str, str] = field(default_factory=dict)
    #: LLVM block name -> machine block label.
    block_map: dict[str, str] = field(default_factory=dict)
    #: LLVM alloca name -> frame object name.
    frame_objects: dict[str, str] = field(default_factory=dict)

    def machine_block(self, llvm_block: str) -> str:
        return self.block_map[llvm_block]
