"""A linear-scan register allocator for Virtual x86.

Works on PHI-free machine functions (run :func:`repro.regalloc.ssa_elim.
eliminate_phis` first).  Virtual registers are assigned to a pool of
general-purpose physical registers; the rest are spilled to frame slots
(``spill.<function>.<n>`` objects in the common memory model) with
reserved scratch registers for reloads.

Functions containing calls are rejected: modelling caller-/callee-saved
conventions is orthogonal to what this extension demonstrates (KEQ
validating a same-language transformation with a black-box VC generator).

Two injectable bugs for the TV system to catch:

- ``AllocatorBug.WRONG_SPILL_SLOT`` — reloads read from the neighbouring
  spill slot (a classic off-by-one in frame index bookkeeping);
- ``AllocatorBug.OVERLAPPING_ASSIGNMENT`` — two simultaneously-live
  virtual registers share one physical register (interference ignored).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis import MachineGraph, liveness
from repro.vx86.insns import (
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    PReg,
    VReg,
)

#: Allocatable pool: not argument registers, not rax (return), not rsp/rbp.
ALLOCATABLE = ("rbx", "r10", "r11", "r12", "r13", "r14", "r15")

#: Reserved for spill reloads; never allocated.  Argument registers are
#: dead after the entry copies in call-free functions.
SCRATCH = ("rcx", "rdx")

SPILL_SLOT_BYTES = 8


class AllocatorBug(enum.Enum):
    WRONG_SPILL_SLOT = "wrong-spill-slot"
    OVERLAPPING_ASSIGNMENT = "overlapping-assignment"


class RegAllocError(Exception):
    pass


@dataclass
class _Interval:
    vreg_key: str
    width: int
    start: int
    end: int
    register: str | None = None  # canonical physical name
    slot: int | None = None  # spill slot index


def _collect_intervals(function: MachineFunction) -> dict[str, _Interval]:
    """Coarse live intervals over a linearized block layout."""
    graph = MachineGraph(function)
    live = liveness(graph)
    positions: dict[str, tuple[int, int]] = {}
    index = 0
    widths: dict[str, int] = {}

    def touch(key: str, width: int, at: int) -> None:
        widths[key] = width
        if key in positions:
            start, end = positions[key]
            positions[key] = (min(start, at), max(end, at))
        else:
            positions[key] = (at, at)

    block_bounds: dict[str, tuple[int, int]] = {}
    for block in function.blocks.values():
        begin = index
        for instruction in block.instructions:
            if instruction.opcode == "PHI":
                raise RegAllocError("run eliminate_phis before allocation")
            if instruction.opcode == "call":
                raise RegAllocError("functions with calls are not supported")
            operands = list(instruction.operands)
            if instruction.result is not None:
                operands.append(instruction.result)
            for operand in operands:
                if isinstance(operand, VReg):
                    touch(operand.key, operand.width, index)
                elif isinstance(operand, MemRef) and isinstance(
                    operand.base, VReg
                ):
                    touch(operand.base.key, operand.base.width, index)
            index += 1
        block_bounds[block.name] = (begin, index - 1)
    # Extend across blocks where the value is live-in/live-out.
    for block_name, (begin, end) in block_bounds.items():
        for key in live.live_in[block_name]:
            if key in positions:
                touch(key, widths[key], begin)
        for key in live.live_out[block_name]:
            if key in positions:
                touch(key, widths[key], end)
    return {
        key: _Interval(key, widths[key], start, end)
        for key, (start, end) in positions.items()
    }


def _assign(
    intervals: dict[str, _Interval], bug: AllocatorBug | None
) -> None:
    """Classic linear scan over the interval start order."""
    order = sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))
    active: list[_Interval] = []
    free = list(ALLOCATABLE)
    slots = 0
    overlap_injected = False
    for interval in order:
        active = [other for other in active if other.end >= interval.start]
        used = {other.register for other in active if other.register}
        available = [reg for reg in free if reg not in used]
        if bug is AllocatorBug.OVERLAPPING_ASSIGNMENT and not overlap_injected:
            # Deliberately reuse a live register once (ignore interference).
            conflicting = next(
                (o for o in active if o.register and o.end > interval.start),
                None,
            )
            if conflicting is not None:
                interval.register = conflicting.register
                active.append(interval)
                overlap_injected = True
                continue
        if available:
            interval.register = available[0]
            active.append(interval)
        else:
            interval.slot = slots
            slots += 1


@dataclass
class AllocationResult:
    function: MachineFunction
    assignment: dict[str, str]  # vreg key -> physical register
    spills: dict[str, int]  # vreg key -> slot index
    spill_object: str


def allocate_registers(
    function: MachineFunction, bug: AllocatorBug | None = None
) -> AllocationResult:
    """Allocate ``function`` (must be PHI-free); returns a new function."""
    intervals = _collect_intervals(function)
    _assign(intervals, bug)
    assignment = {
        iv.vreg_key: iv.register for iv in intervals.values() if iv.register
    }
    spills = {iv.vreg_key: iv.slot for iv in intervals.values() if iv.slot is not None}
    spill_object = f"spill.{function.name}"
    rewriter = _Rewriter(function, assignment, spills, spill_object, bug)
    return AllocationResult(
        rewriter.run(), assignment, spills, spill_object
    )


class _Rewriter:
    def __init__(self, function, assignment, spills, spill_object, bug):
        self.source = function
        self.assignment = assignment
        self.spills = spills
        self.spill_object = spill_object
        self.bug = bug

    def _slot_disp(self, key: str, for_reload: bool) -> int:
        slot = self.spills[key]
        if for_reload and self.bug is AllocatorBug.WRONG_SPILL_SLOT and slot > 0:
            slot -= 1  # the injected off-by-one
        return slot * SPILL_SLOT_BYTES

    def _map_reg(self, reg: VReg) -> PReg:
        return PReg(self.assignment[reg.key], reg.width)

    def run(self) -> MachineFunction:
        target = MachineFunction(self.source.name)
        target.frame_objects.update(self.source.frame_objects)
        if self.spills:
            size = (max(self.spills.values()) + 1) * SPILL_SLOT_BYTES
            target.frame_objects[self.spill_object] = size
        for block in self.source.blocks.values():
            new_block = target.add_block(MachineBlock(block.name))
            for instruction in block.instructions:
                new_block.instructions.extend(self._rewrite(instruction))
        return target

    def _rewrite(self, instruction: MInstr) -> list[MInstr]:
        before: list[MInstr] = []
        after: list[MInstr] = []
        scratch_pool = list(SCRATCH)
        new_operands = []
        for operand in instruction.operands:
            new_operands.append(
                self._rewrite_operand(operand, before, scratch_pool)
            )
        result = instruction.result
        if isinstance(result, VReg):
            key = result.key
            if key in self.spills:
                # The result write happens after all operand reads, so when
                # both scratch registers fed operands the first one can be
                # reused for the result.
                scratch_name = scratch_pool.pop(0) if scratch_pool else SCRATCH[0]
                scratch = PReg(scratch_name, result.width)
                after.append(
                    MInstr(
                        "store",
                        (
                            MemRef(
                                result.width // 8,
                                object=self.spill_object,
                                disp=self._slot_disp(key, for_reload=False),
                            ),
                            scratch,
                        ),
                    )
                )
                result = scratch
            else:
                result = self._map_reg(result)
        rewritten = MInstr(instruction.opcode, tuple(new_operands), result)
        return before + [rewritten] + after

    def _rewrite_operand(self, operand, before, scratch_pool):
        if isinstance(operand, VReg):
            key = operand.key
            if key in self.spills:
                scratch = PReg(scratch_pool.pop(0), operand.width)
                before.append(
                    MInstr(
                        "load",
                        (
                            MemRef(
                                operand.width // 8,
                                object=self.spill_object,
                                disp=self._slot_disp(key, for_reload=True),
                            ),
                        ),
                        scratch,
                    )
                )
                return scratch
            return self._map_reg(operand)
        if isinstance(operand, MemRef) and isinstance(operand.base, VReg):
            base = self._rewrite_operand(operand.base, before, scratch_pool)
            return MemRef(
                operand.width_bytes,
                object=operand.object,
                base=base,
                disp=operand.disp,
            )
        return operand
