"""ISel optimizations and their historically-buggy variants (Section 5.2).

Both optimizations are real LLVM DAG-combine transformations; each has a
correct implementation and a switch that reinjects the exact mistake of
the corresponding LLVM bug report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isel.bugs import BugMode
from repro.llvm import ir
from repro.llvm.types import IntType, sizeof
from repro.mir import Imm, MachineBlock, MemRef, MInstr


# ---------------------------------------------------------------------------
# Store merging (the WAW bug, llvm.org PR25154)
# ---------------------------------------------------------------------------


def merge_constant_stores(block: MachineBlock, bug: BugMode | None) -> bool:
    """Merge two 2-byte constant stores into one 4-byte store.

    Candidates: two immediate stores to the same object at constant
    displacements whose byte ranges are disjoint and whose union is a
    contiguous 4-byte span.

    Correct placement: the merged store replaces the *earlier* store
    (program order of all other accesses is preserved), and the merge is
    skipped if any store in between writes bytes of the *later* store's
    range (its bytes would move backwards past that write).

    Buggy placement (``BugMode.WAW_STORE_MERGE``): the merged store
    replaces the *later* store and the intervening-overlap check against
    the *earlier* store's range is omitted — moving the earlier store's
    bytes forward past an intervening overlapping store, reversing a
    write-after-write dependency.
    """
    instructions = block.instructions
    candidates = [
        (index, instruction)
        for index, instruction in enumerate(instructions)
        if _is_const_store(instruction, width_bytes=2)
    ]
    for first_position, (i, first) in enumerate(candidates):
        for j, second in candidates[first_position + 1 :]:
            merged = _merge_pair(first, second)
            if merged is None:
                continue
            between = instructions[i + 1 : j]
            if bug is BugMode.WAW_STORE_MERGE:
                # Faulty: merged store lands at the LATER position; no check
                # that intervening stores overlap the earlier store's range.
                instructions[j] = merged
                del instructions[i]
            else:
                if any(
                    _overlapping_store(other, second) for other in between
                ):
                    continue
                instructions[i] = merged
                del instructions[j]
            return True
    return False


def _is_const_store(instruction: MInstr, width_bytes: int) -> bool:
    if instruction.opcode != "store":
        return False
    mem = instruction.operands[0]
    source = instruction.operands[1]
    return (
        isinstance(mem, MemRef)
        and mem.object is not None
        and mem.base is None
        and mem.width_bytes == width_bytes
        and isinstance(source, Imm)
    )


def _store_range(instruction: MInstr) -> tuple[str, int, int]:
    mem = instruction.operands[0]
    assert isinstance(mem, MemRef) and mem.object is not None
    return (mem.object, mem.disp, mem.disp + mem.width_bytes)


def _overlapping_store(instruction: MInstr, reference: MInstr) -> bool:
    if instruction.opcode != "store":
        return False
    mem = instruction.operands[0]
    if not isinstance(mem, MemRef) or mem.object is None:
        return True  # dynamic store: conservatively overlapping
    obj_a, lo_a, hi_a = _store_range(instruction)
    obj_b, lo_b, hi_b = _store_range(reference)
    return obj_a == obj_b and lo_a < hi_b and lo_b < hi_a


def _merge_pair(first: MInstr, second: MInstr) -> MInstr | None:
    obj_a, lo_a, hi_a = _store_range(first)
    obj_b, lo_b, hi_b = _store_range(second)
    if obj_a != obj_b:
        return None
    if lo_a < hi_b and lo_b < hi_a:
        return None  # overlapping pairs are not merged by this combine
    low = min(lo_a, lo_b)
    high = max(hi_a, hi_b)
    if high - low != 4:
        return None
    value_bytes = bytearray(4)
    for instruction in (first, second):
        obj, lo, hi = _store_range(instruction)
        source = instruction.operands[1]
        assert isinstance(source, Imm)
        for byte_index in range(hi - lo):
            value_bytes[lo - low + byte_index] = (
                source.value >> (8 * byte_index)
            ) & 0xFF
    merged_value = int.from_bytes(bytes(value_bytes), "little")
    # Build the merged store with the same instruction class as its inputs,
    # so the combine works on every target's machine IR.
    return type(first)(
        "store",
        (MemRef(4, object=obj_a, disp=low), Imm(merged_value, 32)),
    )


# ---------------------------------------------------------------------------
# Load narrowing (the non-power-of-two bug, llvm.org PR4737)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NarrowablePattern:
    load: ir.Load
    shift: ir.BinOp
    trunc: ir.Cast
    byte_offset: int  # shift amount / 8
    remaining_bits: int  # source width - shift amount
    target_width: int  # trunc target width


def match_narrowable_load(
    block: ir.Block, load: ir.Load, use_counts: dict[str, int]
) -> NarrowablePattern | None:
    """Match ``%v = load iN; %s = lshr iN %v, C; %t = trunc %s to iM`` with
    ``C`` a byte multiple and ``%v``/``%s`` single-use in this block."""
    if not isinstance(load.type, IntType):
        return None
    if use_counts.get(load.name, 0) != 1:
        return None
    instructions = block.instructions
    position = instructions.index(load)
    shift: ir.BinOp | None = None
    for candidate in instructions[position + 1 :]:
        if (
            isinstance(candidate, ir.BinOp)
            and candidate.op == "lshr"
            and isinstance(candidate.lhs, ir.LocalRef)
            and candidate.lhs.name == load.name
            and isinstance(candidate.rhs, ir.ConstInt)
        ):
            shift = candidate
            break
    if shift is None or use_counts.get(shift.name, 0) != 1:
        return None
    trunc: ir.Cast | None = None
    for candidate in instructions[instructions.index(shift) + 1 :]:
        if (
            isinstance(candidate, ir.Cast)
            and candidate.op == "trunc"
            and isinstance(candidate.value, ir.LocalRef)
            and candidate.value.name == shift.name
        ):
            trunc = candidate
            break
    if trunc is None:
        return None
    shift_amount = shift.rhs.value
    if shift_amount % 8 != 0:
        return None
    source_width = load.type.width
    target_width = trunc.to_type.width if isinstance(trunc.to_type, IntType) else 0
    if target_width not in (8, 16, 32, 64):
        return None
    remaining = source_width - shift_amount
    if remaining <= 0 or remaining % 8 != 0:
        return None
    return NarrowablePattern(
        load, shift, trunc, shift_amount // 8, remaining, target_width
    )


def narrow_load_bytes(pattern: NarrowablePattern, bug: BugMode | None) -> int:
    """Width in bytes for the narrowed load.

    Correct: the number of bytes actually available past the offset
    (capped by the target width) — for the paper's i96 example,
    ``min(96-64, 64)/8 = 4`` bytes, zero-extended afterwards.

    Buggy (``BugMode.LOAD_NARROWING``): the *target type's* width — 8
    bytes — reading past the end of the 12-byte object.
    """
    if bug is BugMode.LOAD_NARROWING:
        return pattern.target_width // 8
    return min(pattern.remaining_bits, pattern.target_width) // 8


__all__ = [
    "NarrowablePattern",
    "match_narrowable_load",
    "merge_constant_stores",
    "narrow_load_bytes",
    "sizeof",
]
