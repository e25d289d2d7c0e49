"""Line-based parser for textual Virtual x86 (the notation of Figure 2(b)).

The notation is the shared machine-IR one (:mod:`repro.mir.parser`);
Virtual x86 spells its physical registers by their x86-64 names, including
the sub-register aliases (``eax``, ``r8w``, ``dil`` ...):

.. code-block:: text

    f:
    frame stack.f.x, 4
    .LBB0:
      %vr8_32 = COPY edx
      %vr9_32 = mov 1
      cmp %vr2_32, %vr8_32
      jae .LBB4
      jmp .LBB1
      %vr5_64 = lea [stack.f.x]
      call @callee, edi, esi
      eax = COPY %vr0_32
      ret
"""

from __future__ import annotations

from repro.mir import MachineFunction
from repro.mir.parser import MachineParseError, MachineParser
from repro.vx86.insns import ALIASES, MInstr, PReg

__all__ = ["MachineParseError", "parse_machine_function"]


class _Vx86Parser(MachineParser):
    MINSTR = MInstr
    LEA = "lea"

    def parse_physical(self, text: str) -> PReg | None:
        return PReg.named(text) if text in ALIASES else None


def parse_machine_function(text: str) -> MachineFunction:
    return _Vx86Parser().parse_function(text)
