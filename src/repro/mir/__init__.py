"""The machine-IR layer every virtual target shares.

Every virtual target (``repro.vx86``, ``repro.vriscv``) describes its
programs with the same containers — :class:`MachineBlock` lists of
:class:`MInstr` records inside a :class:`MachineFunction` — and the same
operand vocabulary: virtual registers, physical-register views,
immediates, labels and memory references.  A target subclasses
:class:`MInstr` to name its opcode table and its branches; the
``COPY``/``PHI`` pseudo-ops are shared by every ISel lowering.  The
textual form is read by one parser (:mod:`repro.mir.parser`) and
executed by one CFG-machine semantics core (:mod:`repro.mir.semantics`),
into which each target plugs its own instructions.

Keeping these shapes in one place is what lets the analyses
(`repro.analysis.cfg`), the sync-point generator (`repro.vcgen`) and the
lowering skeleton (`repro.isel.lowering`) stay target-parametric: they
type-check operands against the classes here, never against a target
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Union


@dataclass(frozen=True)
class VReg:
    """A virtual register ``%vr<id>_<width>`` (shared across targets)."""

    id: int
    width: int  # bits

    @property
    def key(self) -> str:
        """Its name in a program state's environment: ``vr<id>_<width>``.

        The machine semantics bind it, and liveness, the sync-point
        generator, ISel hints and the register allocator look it up, so
        they must all spell it this one way.
        """
        return f"vr{self.id}_{self.width}"

    def __str__(self) -> str:
        return f"%{self.key}"


@dataclass(frozen=True)
class PhysReg:
    """A physical register access: canonical machine name + view width.

    Targets subclass this to attach their own naming/printing rules
    (x86 sub-register aliases, RISC-V ABI names); analyses match on the
    base class so they never need to know which target produced an
    operand.
    """

    name: str
    width: int


@dataclass(frozen=True)
class Imm:
    value: int
    width: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Label:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemRef:
    """A memory operand: ``[object + base + disp]`` with byte access width.

    ``object`` names a memory object (a global or a frame slot) and ``base``
    is an optional register holding a byte offset *or* a full pointer (when
    ``object`` is None).  This mirrors the addressing shapes ISel emits
    with the common memory model, on every target.
    """

    width_bytes: int
    object: str | None = None
    base: Union[VReg, PhysReg, None] = None
    disp: int = 0

    def __str__(self) -> str:
        parts = []
        if self.object is not None:
            parts.append(self.object)
        if self.base is not None:
            parts.append(str(self.base))
        if self.disp or not parts:
            parts.append(str(self.disp))
        return f"[{' + '.join(parts)}]"


Operand = Union[VReg, PhysReg, Imm, Label, MemRef]


@dataclass(frozen=True)
class MInstr:
    """One machine instruction: ``result = opcode(operands)``.

    A target subclasses it and names its vocabulary in two tables:
    ``OPCODES`` (what the record validates against) and ``BRANCHES``
    (which opcodes transfer control, and where their label operand is).
    """

    opcode: str
    operands: tuple[Operand, ...] = ()
    result: Union[VReg, PhysReg, None] = None

    #: opcode -> (has_result, operand count excluding result); -1 = variadic.
    OPCODES: ClassVar[dict[str, tuple[bool, int]]] = {}
    #: branch opcode -> index of its label operand.
    BRANCHES: ClassVar[dict[str, int]] = {}

    def __post_init__(self):
        if self.opcode not in self.OPCODES:
            raise ValueError(f"unknown opcode {self.opcode!r}")
        has_result, arity = self.OPCODES[self.opcode]
        if has_result and self.result is None:
            raise ValueError(f"{self.opcode} requires a result register")
        if not has_result and self.result is not None:
            raise ValueError(f"{self.opcode} does not produce a result")
        if arity >= 0 and len(self.operands) != arity:
            raise ValueError(
                f"{self.opcode} expects {arity} operands, got {len(self.operands)}"
            )

    def __str__(self) -> str:
        opcode = self.opcode
        if opcode in ("load", "store"):
            # Print the access width so the textual form parses back
            # unambiguously (immediates carry no width of their own).
            mem = self.operands[0]
            assert isinstance(mem, MemRef)
            opcode = f"{opcode}{mem.width_bytes * 8}"
        parts = ", ".join(str(operand) for operand in self.operands)
        if self.result is not None:
            return f"{self.result} = {opcode} {parts}".rstrip()
        return f"{opcode} {parts}".rstrip()

    def branch_targets(self) -> list[str]:
        index = self.BRANCHES.get(self.opcode)
        if index is None:
            return []
        target = self.operands[index]
        assert isinstance(target, Label)
        return [target.name]

    @property
    def is_terminator(self) -> bool:
        return self.opcode == "ret" or self.opcode in self.BRANCHES


@dataclass
class MachineBlock:
    name: str
    instructions: list[MInstr] = field(default_factory=list)

    def successors(self) -> list[str]:
        result = []
        for instruction in self.instructions:
            result.extend(instruction.branch_targets())
        return result

    def phis(self) -> list[MInstr]:
        result = []
        for instruction in self.instructions:
            if instruction.opcode == "PHI":
                result.append(instruction)
            else:
                break
        return result

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines += [f"  {instruction}" for instruction in self.instructions]
        return "\n".join(lines)


@dataclass
class MachineFunction:
    name: str
    blocks: dict[str, MachineBlock] = field(default_factory=dict)
    #: frame slots: object name -> byte size (objects in the common memory
    #: model, shared with the LLVM side's allocas by construction).
    frame_objects: dict[str, int] = field(default_factory=dict)

    @property
    def entry_block(self) -> MachineBlock:
        return next(iter(self.blocks.values()))

    def block(self, name: str) -> MachineBlock:
        if name not in self.blocks:
            raise KeyError(f"no block {name!r} in {self.name}")
        return self.blocks[name]

    def add_block(self, block: MachineBlock) -> MachineBlock:
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

    def instructions(self) -> Iterator[tuple[str, int, MInstr]]:
        for block in self.blocks.values():
            for index, instruction in enumerate(block.instructions):
                yield block.name, index, instruction

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        for object_name, size in self.frame_objects.items():
            lines.append(f"frame {object_name}, {size}")
        for block in self.blocks.values():
            lines.append(str(block))
        return "\n".join(lines)
