"""Line-based parser for textual Virtual RISC-V.

The notation is the shared machine-IR one (:mod:`repro.mir.parser`), the
same as the virtual x86 notation, so corpora and tooling can treat both
targets' textual programs uniformly.  Virtual RISC-V spells a physical
register by its ABI name, with a ``.<width>`` suffix for a narrow view:

.. code-block:: text

    f:
    frame stack.f.x, 4
    .LBB0:
      %vr8_32 = COPY a2.32
      %vr9_32 = li 1
      blt %vr8_32, %vr2_32, .LBB4
      j .LBB1
      %vr5_64 = la [stack.f.x]
      call @callee, a0, a1
      a0.32 = COPY %vr0_32
      ret
"""

from __future__ import annotations

import re

from repro.mir import MachineFunction
from repro.mir.parser import MachineParseError, MachineParser
from repro.vriscv.insns import MInstr, REGISTERS, XReg

__all__ = ["MachineParseError", "parse_machine_function"]

_XREG_RE = re.compile(r"([a-z][a-z0-9]*)(?:\.(8|16|32|64))?$")


class _RiscvParser(MachineParser):
    MINSTR = MInstr
    LEA = "la"

    def parse_physical(self, text: str) -> XReg | None:
        match = _XREG_RE.match(text)
        if match and match.group(1) in REGISTERS:
            width = int(match.group(2)) if match.group(2) else 64
            return XReg(match.group(1), width)
        return None


def parse_machine_function(text: str) -> MachineFunction:
    return _RiscvParser().parse_function(text)
