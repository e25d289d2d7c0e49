"""A language-neutral control-flow-graph view.

The analyses (dominators, loops, liveness) are written once against
:class:`FlowGraph`; :class:`LlvmGraph` and :class:`MachineGraph` adapt the
two IRs.  ``uses``/``defs`` speak in *register names* — LLVM SSA locals on
one side, ``vr<id>_<width>`` / canonical physical registers on the other —
matching the environment keys the semantics use, so liveness results feed
straight into synchronization-point constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import mir
from repro.llvm import ir as lir
from repro.llvm.verify import operands_of


@dataclass(frozen=True)
class PhiDef:
    """One phi definition: result name + per-predecessor incoming name
    (``None`` when the incoming value is a constant)."""

    name: str
    incomings: tuple[tuple[str, str | None], ...]  # (pred block, value name)


class FlowGraph:
    """Protocol-by-convention; see the two adapters below."""

    def block_names(self) -> list[str]:
        raise NotImplementedError

    def entry(self) -> str:
        raise NotImplementedError

    def successors(self, block: str) -> list[str]:
        raise NotImplementedError

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {name: [] for name in self.block_names()}
        for name in self.block_names():
            for successor in self.successors(name):
                preds[successor].append(name)
        return preds

    def instruction_uses_defs(self, block: str) -> list[tuple[set[str], set[str]]]:
        """Per non-phi instruction, in order: (uses, defs)."""
        raise NotImplementedError

    def phi_defs(self, block: str) -> list[PhiDef]:
        raise NotImplementedError


class LlvmGraph(FlowGraph):
    def __init__(self, function: lir.Function):
        self.function = function

    def block_names(self) -> list[str]:
        return list(self.function.blocks)

    def entry(self) -> str:
        return self.function.entry_block.name

    def successors(self, block: str) -> list[str]:
        return self.function.block(block).successors()

    def instruction_uses_defs(self, block: str) -> list[tuple[set[str], set[str]]]:
        result = []
        for instruction in self.function.block(block).instructions:
            if isinstance(instruction, lir.Phi):
                continue
            uses = {
                operand.name
                for operand in _walk_operands(instruction)
                if isinstance(operand, lir.LocalRef)
            }
            defs = {instruction.name} if instruction.name is not None else set()
            result.append((uses, defs))
        return result

    def phi_defs(self, block: str) -> list[PhiDef]:
        result = []
        for phi in self.function.block(block).phis():
            incomings = tuple(
                (
                    predecessor,
                    value.name if isinstance(value, lir.LocalRef) else None,
                )
                for value, predecessor in phi.incomings
            )
            result.append(PhiDef(phi.name, incomings))
        return result


def _walk_operands(instruction: lir.Instruction):
    for operand in operands_of(instruction):
        yield operand
        if isinstance(operand, lir.ConstGep):
            yield operand.pointer
            yield from operand.indices
        elif isinstance(operand, lir.ConstCast):
            yield operand.operand


def _reg_name(operand) -> str | None:
    if isinstance(operand, mir.VReg):
        return operand.key
    if isinstance(operand, mir.PhysReg):
        return operand.name  # canonical full-width name
    return None


class MachineGraph(FlowGraph):
    def __init__(self, function: mir.MachineFunction):
        self.function = function

    def block_names(self) -> list[str]:
        return list(self.function.blocks)

    def entry(self) -> str:
        return self.function.entry_block.name

    def successors(self, block: str) -> list[str]:
        return self.function.block(block).successors()

    def instruction_uses_defs(self, block: str) -> list[tuple[set[str], set[str]]]:
        result = []
        for instruction in self.function.block(block).instructions:
            if instruction.opcode == "PHI":
                continue
            uses: set[str] = set()
            for operand in instruction.operands:
                name = _reg_name(operand)
                if name is not None:
                    uses.add(name)
                elif isinstance(operand, mir.MemRef) and operand.base is not None:
                    base = _reg_name(operand.base)
                    if base is not None:
                        uses.add(base)
            defs: set[str] = set()
            if instruction.result is not None:
                defs.add(_reg_name(instruction.result))
            result.append((uses, defs))
        return result

    def phi_defs(self, block: str) -> list[PhiDef]:
        result = []
        for phi in self.function.block(block).phis():
            operands = phi.operands
            incomings = []
            for value, label in zip(operands[0::2], operands[1::2]):
                assert isinstance(label, mir.Label)
                incomings.append((label.name, _reg_name(value)))
            assert phi.result is not None
            result.append(PhiDef(_reg_name(phi.result), tuple(incomings)))
        return result
