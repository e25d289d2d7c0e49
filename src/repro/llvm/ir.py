"""LLVM IR in-memory representation (module / function / block / instruction).

Operands form a small expression language of their own because LLVM allows
*constant expressions* in operand position — the paper's WAW bug test case
stores through ``bitcast (i8* getelementptr inbounds (...) to i16*)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.llvm.types import IntType, PointerType, Type


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


class Operand:
    """Base class for instruction operands."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstInt(Operand):
    value: int
    type: IntType

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class LocalRef(Operand):
    """A reference to an SSA virtual register, e.g. ``%x``."""

    name: str
    type: Type

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class GlobalRef(Operand):
    """A reference to a global, e.g. ``@b``; its value is the address."""

    name: str
    type: PointerType

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class ConstGep(Operand):
    """``getelementptr`` constant expression."""

    base_type: Type
    pointer: Operand
    indices: tuple[Operand, ...]
    type: PointerType
    inbounds: bool = True

    def __str__(self) -> str:
        # Printed in full LLVM syntax (pointer type, typed indices) so that
        # ``str(module)`` re-parses — worker processes receive each task's
        # function as text (``repro.tv.parallel.task_text``).
        parts = ", ".join(f"{index.type} {index}" for index in self.indices)
        marker = "inbounds " if self.inbounds else ""
        return (
            f"getelementptr {marker}({self.base_type},"
            f" {self.base_type}* {self.pointer}, {parts})"
        )


@dataclass(frozen=True)
class ConstCast(Operand):
    """``bitcast``/``inttoptr``/``ptrtoint`` constant expression."""

    op: str
    operand: Operand
    from_type: Type
    type: Type

    def __str__(self) -> str:
        return f"{self.op} ({self.from_type} {self.operand} to {self.type})"


@dataclass(frozen=True)
class UndefValue(Operand):
    type: Type

    def __str__(self) -> str:
        return "undef"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


class Instruction:
    """Base class; subclasses carry ``name`` — the SSA result register
    (``None`` for instructions without results)."""

    __slots__ = ()


BINARY_OPS = (
    "add",
    "sub",
    "mul",
    "udiv",
    "sdiv",
    "urem",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
)

ICMP_PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")

CAST_OPS = ("zext", "sext", "trunc", "bitcast", "inttoptr", "ptrtoint")


@dataclass(frozen=True)
class BinOp(Instruction):
    name: str
    op: str  # one of BINARY_OPS
    type: IntType
    lhs: Operand
    rhs: Operand
    flags: tuple[str, ...] = ()  # e.g. ("nsw",)

    def __str__(self) -> str:
        flags = (" " + " ".join(self.flags)) if self.flags else ""
        return f"%{self.name} = {self.op}{flags} {self.type} {self.lhs}, {self.rhs}"


@dataclass(frozen=True)
class Icmp(Instruction):
    name: str
    predicate: str  # one of ICMP_PREDICATES
    operand_type: Type
    lhs: Operand
    rhs: Operand

    def __str__(self) -> str:
        return (
            f"%{self.name} = icmp {self.predicate} {self.operand_type}"
            f" {self.lhs}, {self.rhs}"
        )


@dataclass(frozen=True)
class Phi(Instruction):
    name: str
    type: Type
    incomings: tuple[tuple[Operand, str], ...]  # (value, predecessor block)

    def __str__(self) -> str:
        arms = ", ".join(f"[ {value}, %{block} ]" for value, block in self.incomings)
        return f"%{self.name} = phi {self.type} {arms}"


@dataclass(frozen=True)
class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — a value-level conditional."""

    name: str
    type: Type
    condition: Operand
    true_value: Operand
    false_value: Operand

    def __str__(self) -> str:
        return (
            f"%{self.name} = select i1 {self.condition},"
            f" {self.type} {self.true_value}, {self.type} {self.false_value}"
        )


@dataclass(frozen=True)
class Cast(Instruction):
    name: str
    op: str  # one of CAST_OPS
    value: Operand
    from_type: Type
    to_type: Type

    def __str__(self) -> str:
        return (
            f"%{self.name} = {self.op} {self.from_type} {self.value}"
            f" to {self.to_type}"
        )


@dataclass(frozen=True)
class Gep(Instruction):
    name: str
    base_type: Type
    pointer: Operand
    indices: tuple[tuple[Type, Operand], ...]
    inbounds: bool = True

    def __str__(self) -> str:
        parts = ", ".join(f"{type_} {value}" for type_, value in self.indices)
        marker = " inbounds" if self.inbounds else ""
        return (
            f"%{self.name} = getelementptr{marker} {self.base_type},"
            f" {self.base_type}* {self.pointer}, {parts}"
        )


@dataclass(frozen=True)
class Load(Instruction):
    name: str
    type: Type
    pointer: Operand

    def __str__(self) -> str:
        return f"%{self.name} = load {self.type}, {self.type}* {self.pointer}"


@dataclass(frozen=True)
class Store(Instruction):
    value_type: Type
    value: Operand
    pointer: Operand
    name: None = None

    def __str__(self) -> str:
        return f"store {self.value_type} {self.value}, {self.value_type}* {self.pointer}"


@dataclass(frozen=True)
class Alloca(Instruction):
    name: str
    allocated_type: Type

    def __str__(self) -> str:
        return f"%{self.name} = alloca {self.allocated_type}"


@dataclass(frozen=True)
class Call(Instruction):
    name: str | None  # None for void calls
    return_type: Type
    callee: str
    arguments: tuple[tuple[Type, Operand], ...]

    def __str__(self) -> str:
        args = ", ".join(f"{type_} {value}" for type_, value in self.arguments)
        prefix = f"%{self.name} = " if self.name else ""
        return f"{prefix}call {self.return_type} @{self.callee}({args})"


@dataclass(frozen=True)
class Br(Instruction):
    """Unconditional (``condition is None``) or conditional branch."""

    condition: Operand | None
    true_target: str
    false_target: str | None = None
    name: None = None

    def __str__(self) -> str:
        if self.condition is None:
            return f"br label %{self.true_target}"
        return (
            f"br i1 {self.condition}, label %{self.true_target},"
            f" label %{self.false_target}"
        )


@dataclass(frozen=True)
class Ret(Instruction):
    type: Type
    value: Operand | None
    name: None = None

    def __str__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.type} {self.value}"


TERMINATORS = (Br, Ret)


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


@dataclass
class Block:
    name: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction:
        if not self.instructions:
            raise ValueError(f"block {self.name!r} is empty")
        last = self.instructions[-1]
        if not isinstance(last, TERMINATORS):
            raise ValueError(f"block {self.name!r} lacks a terminator")
        return last

    def successors(self) -> list[str]:
        last = self.terminator
        if isinstance(last, Br):
            if last.condition is None:
                return [last.true_target]
            return [last.true_target, last.false_target]
        return []

    def phis(self) -> list[Phi]:
        result = []
        for instruction in self.instructions:
            if isinstance(instruction, Phi):
                result.append(instruction)
            else:
                break
        return result

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines += [f"  {instruction}" for instruction in self.instructions]
        return "\n".join(lines)


@dataclass
class Function:
    name: str
    return_type: Type
    parameters: list[tuple[str, Type]]
    blocks: dict[str, Block] = field(default_factory=dict)

    @property
    def entry_block(self) -> Block:
        return next(iter(self.blocks.values()))

    def block(self, name: str) -> Block:
        if name not in self.blocks:
            raise KeyError(f"no block {name!r} in @{self.name}")
        return self.blocks[name]

    def add_block(self, block: Block) -> Block:
        if block.name in self.blocks:
            raise ValueError(f"duplicate block {block.name!r}")
        self.blocks[block.name] = block
        return block

    def predecessors(self) -> dict[str, list[str]]:
        result: dict[str, list[str]] = {name: [] for name in self.blocks}
        for block in self.blocks.values():
            for successor in block.successors():
                result[successor].append(block.name)
        return result

    def instructions(self) -> Iterator[tuple[str, int, Instruction]]:
        for block in self.blocks.values():
            for index, instruction in enumerate(block.instructions):
                yield block.name, index, instruction

    def __str__(self) -> str:
        params = ", ".join(f"{type_} %{name}" for name, type_ in self.parameters)
        lines = [f"define {self.return_type} @{self.name}({params}) {{"]
        for i, block in enumerate(self.blocks.values()):
            if i:
                lines.append("")
            lines.append(str(block))
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GlobalVariable:
    name: str
    type: Type  # the pointee type
    external: bool = True

    def __str__(self) -> str:
        return f"@{self.name} = external global {self.type}"


@dataclass
class Module:
    globals: dict[str, GlobalVariable] = field(default_factory=dict)
    functions: dict[str, Function] = field(default_factory=dict)

    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if variable.name in self.globals:
            raise ValueError(f"duplicate global @{variable.name}")
        self.globals[variable.name] = variable
        return variable

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function @{function.name}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        if name not in self.functions:
            raise KeyError(f"no function @{name}")
        return self.functions[name]

    def __str__(self) -> str:
        parts = [str(variable) for variable in self.globals.values()]
        parts += [str(function) for function in self.functions.values()]
        return "\n\n".join(parts)
