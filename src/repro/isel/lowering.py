"""The instruction-selection lowering from LLVM IR to Virtual x86.

Faithful to SDISel at ``-O0`` in shape: one machine block per IR block
(``.LBB<i>``), virtual registers in SSA form, ``COPY`` from the SysV
argument registers in the entry block, compare+branch fusion (``icmp``
used only by a ``br`` in the same block becomes ``cmp``+``jcc``), phi
lowering with constants materialized in predecessor blocks, allocas as
frame objects, and GEP lowering to ``lea``/address arithmetic.

:class:`_Lowerer` doubles as the target-parametric lowering skeleton:
its structural passes are shared with the Virtual RISC-V lowering in
:mod:`repro.isel.riscv`, which overrides the target hook attributes and
the compare/branch/select methods (RISC-V has no flags register).

The optimizations of :class:`IselOptions` (store merging, load narrowing)
and their buggy variants live in :mod:`repro.isel.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isel.bugs import BugMode
from repro.isel.hints import IselHints
from repro.isel import optimize
from repro.llvm import ir
from repro.llvm.typing import value_types
from repro.llvm.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    bit_width,
    field_offset,
    sizeof,
)
from repro.vx86.insns import (
    ARGUMENT_REGISTERS,
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    PReg,
    VReg,
)


class IselError(Exception):
    """The function uses constructs this ISel does not support."""


@dataclass
class IselOptions:
    merge_stores: bool = False
    narrow_loads: bool = False
    #: decompose multiplications by small constants into shift+add/sub
    #: sequences (the X86 ``decomposeMulByConstant`` DAG combine:
    #: ``x*3`` -> ``(x<<1)+x``, ``x*7`` -> ``(x<<3)-x``, ...).  The machine
    #: side then computes a syntactically different — but bit-level equal —
    #: term than the IR side, so KEQ's obligations exercise the SAT solver.
    mul_decompose: bool = False
    bug: BugMode | None = None

    def __post_init__(self):
        if self.bug is BugMode.WAW_STORE_MERGE:
            self.merge_stores = True
        if self.bug is BugMode.LOAD_NARROWING:
            self.narrow_loads = True


@dataclass(frozen=True)
class _Addr:
    """A statically-resolved address: object + constant displacement."""

    object: str
    disp: int = 0


_BINOP_OPCODES = {
    "add": "add",
    "sub": "sub",
    "mul": "imul",
    "and": "and",
    "or": "or",
    "xor": "xor",
    "shl": "shl",
    "lshr": "shr",
    "ashr": "sar",
    "sdiv": "idiv",
    "srem": "irem",
    "udiv": "udiv",
    "urem": "urem",
}

#: mul-by-constant strength reduction: constant -> (shift, combining op).
#: ``x*(2^k+1)`` -> ``(x<<k)+x`` and ``x*(2^k-1)`` -> ``(x<<k)-x``.
_MUL_DECOMPOSE = {
    3: (1, "add"),
    5: (2, "add"),
    7: (3, "sub"),
    9: (3, "add"),
}

#: icmp predicate -> conditional jump when fused with a branch.
_PREDICATE_JCC = {
    "eq": "je",
    "ne": "jne",
    "ult": "jb",
    "ule": "jbe",
    "ugt": "ja",
    "uge": "jae",
    "slt": "jl",
    "sle": "jle",
    "sgt": "jg",
    "sge": "jge",
}

#: icmp predicate -> setcc opcode when the result is materialized.
_PREDICATE_SETCC = {
    "eq": "sete",
    "ne": "setne",
    "ult": "setb",
    "ule": "setbe",
    "ugt": "seta",
    "uge": "setae",
    "slt": "setl",
    "sle": "setle",
    "sgt": "setg",
    "sge": "setge",
}

_REGISTER_WIDTHS = (8, 16, 32, 64)


def _value_width(type_: Type) -> int:
    """Machine register width for an LLVM value of this type."""
    if isinstance(type_, PointerType):
        return 64
    if isinstance(type_, IntType):
        if type_.width == 1:
            return 8  # booleans live in byte registers (setcc)
        if type_.width in _REGISTER_WIDTHS:
            return type_.width
        raise IselError(f"unsupported register type i{type_.width}")
    raise IselError(f"unsupported value type {type_}")


class _Lowerer:
    """The target-parametric lowering skeleton (vx86 defaults).

    Everything structural — SSA vreg assignment, phi lowering with
    predecessor materialization, GEP address arithmetic, frame objects,
    the store-merging/load-narrowing combines — is shared across
    targets.  The hooks below name the target's instruction class,
    calling convention and opcode vocabulary; control-flow and compare
    lowering (flags on x86, fused branches on RISC-V) differ enough that
    subclasses override those methods wholesale.
    """

    #: the target's instruction dataclass (validates its opcode set).
    MINSTR = MInstr
    #: the target's physical-register class and calling convention.
    PHYS = PReg
    ARGUMENT_REGISTERS = ARGUMENT_REGISTERS
    RETURN_REGISTER = "rax"
    #: opcode vocabulary used by the shared lowering paths.
    MOV = "mov"  # register <- immediate
    LEA = "lea"  # register <- address of MemRef
    ADD = "add"
    MUL = "imul"
    SHL = "shl"
    ZEXT = "movzx"
    SEXT = "movsx"
    #: LLVM binop -> machine opcode.
    BINOPS = _BINOP_OPCODES
    #: division opcodes whose second operand must be a register.
    DIV_OPS = ("idiv", "irem", "udiv", "urem")

    def __init__(self, module: ir.Module, function: ir.Function, options: IselOptions):
        self.module = module
        self.function = function
        self.options = options
        self.machine = MachineFunction(function.name)
        self.hints = IselHints()
        self._vreg_counter = 0
        self._current: MachineBlock | None = None
        self._fused_icmps: set[str] = set()
        self._skip: set[int] = set()  # instruction ids consumed by patterns
        self._use_counts = _count_uses(function)

    # -- small helpers -----------------------------------------------------------

    def _fresh_vreg(self, width: int) -> VReg:
        reg = VReg(self._vreg_counter, width)
        self._vreg_counter += 1
        return reg

    def _emit(self, opcode: str, operands=(), result=None):
        instruction = self.MINSTR(opcode, tuple(operands), result)
        assert self._current is not None
        self._current.instructions.append(instruction)
        return instruction

    def _reg_for(self, name: str) -> VReg:
        if name not in self.hints.reg_map:
            raise IselError(f"use of unlowered value %{name}")
        return self.hints.reg_map[name]

    # -- operand lowering -----------------------------------------------------------

    def _lower_operand(self, operand: ir.Operand):
        """Returns a VReg, Imm, or _Addr."""
        if isinstance(operand, ir.ConstInt):
            width = _value_width(operand.type)
            return Imm(operand.value, width)
        if isinstance(operand, ir.LocalRef):
            return self._reg_for(operand.name)
        if isinstance(operand, ir.GlobalRef):
            return _Addr(operand.name)
        if isinstance(operand, ir.ConstGep):
            return self._fold_const_gep(operand)
        if isinstance(operand, ir.ConstCast):
            if operand.op == "bitcast":
                return self._lower_operand(operand.operand)
            raise IselError(f"unsupported constant cast {operand.op}")
        raise IselError(f"unsupported operand {operand!r}")

    def _fold_const_gep(self, gep: ir.ConstGep) -> _Addr:
        base = self._lower_operand(gep.pointer)
        if not isinstance(base, _Addr):
            raise IselError("constant GEP over a dynamic pointer")
        values = []
        for index in gep.indices:
            if not isinstance(index, ir.ConstInt):
                raise IselError("constant GEP with non-constant index")
            values.append(index.value)
        disp = base.disp + _const_gep_offset(gep.base_type, values)
        return _Addr(base.object, disp)

    def _as_register(self, lowered, width: int) -> VReg:
        """Materialize an operand into a virtual register."""
        if isinstance(lowered, VReg):
            return lowered
        if isinstance(lowered, Imm):
            reg = self._fresh_vreg(width)
            self._emit(self.MOV, [Imm(lowered.value, width)], reg)
            self.hints.const_regs[reg.key] = lowered.value
            return reg
        if isinstance(lowered, _Addr):
            reg = self._fresh_vreg(64)
            self._emit(
                self.LEA, [MemRef(8, object=lowered.object, disp=lowered.disp)], reg
            )
            return reg
        raise IselError(f"cannot materialize {lowered!r}")

    def _memref(self, operand: ir.Operand, width_bytes: int) -> MemRef:
        lowered = self._lower_operand(operand)
        if isinstance(lowered, _Addr):
            return MemRef(width_bytes, object=lowered.object, disp=lowered.disp)
        if isinstance(lowered, VReg) and lowered.width == 64:
            return MemRef(width_bytes, base=lowered)
        raise IselError(f"unsupported address operand {operand!r}")

    # -- function lowering -------------------------------------------------------------

    def run(self) -> tuple[MachineFunction, IselHints]:
        blocks = list(self.function.blocks.values())
        for index, block in enumerate(blocks):
            self.hints.block_map[block.name] = f".LBB{index}"
        self._assign_vregs()
        for index, block in enumerate(blocks):
            self._current = self.machine.add_block(
                MachineBlock(self.hints.block_map[block.name])
            )
            if index == 0:
                self._lower_prologue()
            self._lower_block(block)
        self._apply_optimizations()
        return self.machine, self.hints

    def _assign_vregs(self) -> None:
        """Pre-assign a virtual register to every SSA value, so forward
        references (phi incomings from later blocks) resolve.

        Values whose type has no register width (e.g. ``i96``) get no
        register; they are only legal when consumed entirely by a
        selection pattern (load narrowing), otherwise their first use
        raises :class:`IselError`."""
        for name, type_ in value_types(self.function).items():
            try:
                width = _value_width(type_)
            except IselError:
                continue
            self.hints.reg_map[name] = self._fresh_vreg(width)

    def _lower_prologue(self) -> None:
        if len(self.function.parameters) > len(self.ARGUMENT_REGISTERS):
            raise IselError(
                f"more than {len(self.ARGUMENT_REGISTERS)} integer arguments"
                " (stack args)"
            )
        for index, (name, type_) in enumerate(self.function.parameters):
            width = _value_width(type_)
            source = self.PHYS(self.ARGUMENT_REGISTERS[index], width)
            self._emit("COPY", [source], self.hints.reg_map[name])

    def _lower_block(self, block: ir.Block) -> None:
        # Decide compare+branch fusion up front so the icmp's own position
        # emits nothing.
        terminator = block.instructions[-1]
        if isinstance(terminator, ir.Br) and terminator.condition is not None:
            fused = self._fusable_icmp(block, terminator.condition)
            if fused is not None:
                self._fused_icmps.add(fused.name)
        for instruction in block.instructions:
            if isinstance(instruction, ir.Select):
                self._fusable_select_icmp(block, instruction)
        # Phis first: machine PHIs mirror the IR ones (constants will be
        # materialized into predecessor blocks in a fixup pass).
        for phi in block.phis():
            reg = self.hints.reg_map[phi.name]
            operands: list = []
            for value, predecessor in phi.incomings:
                lowered = self._lower_operand(value)
                if isinstance(lowered, (Imm, _Addr)):
                    lowered = self._materialize_in_block(
                        self.hints.block_map[predecessor], lowered, reg.width
                    )
                operands.append(lowered)
                operands.append(Label(self.hints.block_map[predecessor]))
            self._emit("PHI", operands, reg)
            if isinstance(phi.type, PointerType):
                self._propagate_pointer_object(phi)
        for instruction in block.instructions[len(block.phis()) :]:
            if id(instruction) in self._skip:
                continue
            self._lower_instruction(block, instruction)

    def _materialize_in_block(self, label: str, lowered, width: int) -> VReg:
        """Materialize a constant/address into a vreg in ``label`` (for phi
        inputs), before that block's first terminator."""
        target = self.machine.block(label)
        if isinstance(lowered, Imm):
            reg = self._fresh_vreg(width)
            instruction = self.MINSTR(self.MOV, (Imm(lowered.value, width),), reg)
            self.hints.const_regs[reg.key] = lowered.value
        else:
            reg = self._fresh_vreg(64)
            instruction = self.MINSTR(
                self.LEA, (MemRef(8, object=lowered.object, disp=lowered.disp),), reg
            )
        position = next(
            (
                i
                for i, existing in enumerate(target.instructions)
                if existing.is_terminator
            ),
            len(target.instructions),
        )
        target.instructions.insert(position, instruction)
        return reg

    def _propagate_pointer_object(self, instruction) -> None:
        """Track statically-known pointer bases through phis and geps."""
        if isinstance(instruction, ir.Phi):
            objects = set()
            for value, _ in instruction.incomings:
                if isinstance(value, ir.GlobalRef):
                    objects.add(value.name)
                elif isinstance(value, ir.LocalRef):
                    objects.add(self.hints.pointer_objects.get(value.name))
            if len(objects) == 1 and None not in objects:
                self.hints.pointer_objects[instruction.name] = objects.pop()

    # -- instruction lowering ---------------------------------------------------------------

    def _lower_instruction(self, block: ir.Block, instruction: ir.Instruction):
        if isinstance(instruction, ir.BinOp):
            self._lower_binop(instruction)
        elif isinstance(instruction, ir.Icmp):
            self._lower_icmp_standalone(instruction)
        elif isinstance(instruction, ir.Select):
            self._lower_select(block, instruction)
        elif isinstance(instruction, ir.Cast):
            self._lower_cast(instruction)
        elif isinstance(instruction, ir.Gep):
            self._lower_gep(instruction)
        elif isinstance(instruction, ir.Load):
            self._lower_load(block, instruction)
        elif isinstance(instruction, ir.Store):
            self._lower_store(instruction)
        elif isinstance(instruction, ir.Alloca):
            self._lower_alloca(instruction)
        elif isinstance(instruction, ir.Call):
            self._lower_call(instruction)
        elif isinstance(instruction, ir.Br):
            self._lower_br(block, instruction)
        elif isinstance(instruction, ir.Ret):
            self._lower_ret(instruction)
        else:
            raise IselError(f"unsupported instruction {instruction!r}")

    def _lower_binop(self, instruction: ir.BinOp) -> None:
        width = _value_width(instruction.type)
        lhs = self._lower_operand(instruction.lhs)
        rhs = self._lower_operand(instruction.rhs)
        lhs = self._as_register(lhs, width)
        if isinstance(rhs, _Addr):
            rhs = self._as_register(rhs, width)
        opcode = self.BINOPS[instruction.op]
        if opcode in self.DIV_OPS and isinstance(rhs, Imm):
            rhs = self._as_register(rhs, width)  # division needs a register
        if (
            self.options.mul_decompose
            and opcode == self.MUL
            and isinstance(rhs, Imm)
            and rhs.value in _MUL_DECOMPOSE
        ):
            shift, combine = _MUL_DECOMPOSE[rhs.value]
            shifted = self._fresh_vreg(width)
            self._emit(self.SHL, [lhs, Imm(shift, width)], shifted)
            self._emit(
                self.BINOPS[combine],
                [shifted, lhs],
                self.hints.reg_map[instruction.name],
            )
            return
        self._emit(opcode, [lhs, rhs], self.hints.reg_map[instruction.name])

    def _lower_icmp_standalone(self, instruction: ir.Icmp) -> None:
        if instruction.name in self._fused_icmps:
            return
        self._emit_cmp(instruction)
        self._emit(
            _PREDICATE_SETCC[instruction.predicate],
            [],
            self.hints.reg_map[instruction.name],
        )

    def _emit_cmp(self, instruction: ir.Icmp) -> None:
        width = (
            64
            if isinstance(instruction.operand_type, PointerType)
            else _value_width(instruction.operand_type)
        )
        lhs = self._as_register(self._lower_operand(instruction.lhs), width)
        rhs = self._lower_operand(instruction.rhs)
        if isinstance(rhs, _Addr):
            rhs = self._as_register(rhs, width)
        self._emit("cmp", [lhs, rhs])

    def _lower_select(self, block: ir.Block, instruction: ir.Select) -> None:
        width = _value_width(instruction.type)
        true_value = self._as_register(
            self._lower_operand(instruction.true_value), width
        )
        false_value = self._as_register(
            self._lower_operand(instruction.false_value), width
        )
        fused = self._fusable_select_icmp(block, instruction)
        if fused is not None:
            self._emit_cmp(fused)
            opcode = "cmov" + _PREDICATE_JCC[fused.predicate][1:]
        else:
            condition = self._as_register(
                self._lower_operand(instruction.condition), 8
            )
            self._emit("test", [condition, condition])
            opcode = "cmovne"
        self._emit(
            opcode,
            [true_value, false_value],
            self.hints.reg_map[instruction.name],
        )

    def _fusable_select_icmp(
        self, block: ir.Block, instruction: ir.Select
    ) -> ir.Icmp | None:
        condition = instruction.condition
        if not isinstance(condition, ir.LocalRef):
            return None
        if self._use_counts.get(condition.name, 0) != 1:
            return None
        for candidate in block.instructions:
            if (
                isinstance(candidate, ir.Icmp)
                and candidate.name == condition.name
            ):
                self._fused_icmps.add(candidate.name)
                return candidate
        return None

    def _lower_cast(self, instruction: ir.Cast) -> None:
        op = instruction.op
        if op == "bitcast":
            lowered = self._lower_operand(instruction.value)
            reg = self.hints.reg_map[instruction.name]
            if isinstance(lowered, VReg):
                self._emit("COPY", [lowered], reg)
            elif isinstance(lowered, Imm):
                self._emit(self.MOV, [Imm(lowered.value, reg.width)], reg)
            else:
                self._emit(
                    self.LEA,
                    [MemRef(8, object=lowered.object, disp=lowered.disp)],
                    reg,
                )
            if isinstance(instruction.value, ir.LocalRef):
                base = self.hints.pointer_objects.get(instruction.value.name)
                if base is not None:
                    self.hints.pointer_objects[instruction.name] = base
            elif isinstance(lowered, _Addr):
                self.hints.pointer_objects[instruction.name] = lowered.object
            return
        from_width = _value_width(instruction.from_type)
        to_width = _value_width(instruction.to_type)
        source = self._as_register(
            self._lower_operand(instruction.value), from_width
        )
        reg = self.hints.reg_map[instruction.name]
        del to_width
        if op in ("ptrtoint", "inttoptr"):
            if to_width == from_width:
                self._emit("COPY", [source], reg)
            elif to_width < from_width:
                self._emit("COPY", [source], reg)
            else:
                self._emit(self.ZEXT, [source], reg)
            if isinstance(instruction.value, ir.LocalRef):
                base = self.hints.pointer_objects.get(instruction.value.name)
                if base is not None:
                    self.hints.pointer_objects[instruction.name] = base
        elif op == "zext":
            self._emit(self.ZEXT, [source], reg)
        elif op == "sext":
            self._emit(self.SEXT, [source], reg)
        elif op == "trunc":
            self._emit("COPY", [source], reg)
        else:
            raise IselError(f"unsupported cast {op}")

    def _lower_gep(self, instruction: ir.Gep) -> None:
        base = self._lower_operand(instruction.pointer)
        indices = [value for _, value in instruction.indices]
        # Fully-constant GEP over a static base folds to a lea.
        if isinstance(base, _Addr) and all(
            isinstance(index, ir.ConstInt) for index in indices
        ):
            disp = base.disp + _const_gep_offset(
                instruction.base_type, [index.value for index in indices]
            )
            reg = self.hints.reg_map[instruction.name]
            self._emit(self.LEA, [MemRef(8, object=base.object, disp=disp)], reg)
            self.hints.pointer_objects[instruction.name] = base.object
            return
        current = self._as_register(base, 64)
        if isinstance(base, _Addr):
            self.hints.pointer_objects[instruction.name] = base.object
        elif isinstance(instruction.pointer, ir.LocalRef):
            origin = self.hints.pointer_objects.get(instruction.pointer.name)
            if origin is not None:
                self.hints.pointer_objects[instruction.name] = origin
        current_type: Type | None = instruction.base_type
        scale = sizeof(instruction.base_type)
        for position, index in enumerate(indices):
            if position > 0:
                if isinstance(current_type, ArrayType):
                    current_type = current_type.element
                    scale = sizeof(current_type)
                elif isinstance(current_type, StructType):
                    if not isinstance(index, ir.ConstInt):
                        raise IselError("struct GEP index must be constant")
                    offset = field_offset(current_type, index.value)
                    current_type = current_type.fields[index.value]
                    current = self._add_const(current, offset)
                    continue
                else:
                    raise IselError("GEP walks into a non-composite type")
            if isinstance(index, ir.ConstInt):
                current = self._add_const(current, index.value * scale)
            else:
                index_reg = self._as_register(
                    self._lower_operand(index), _value_width(_operand_type(index))
                )
                wide = self._widen_to_64(index_reg)
                scaled = self._fresh_vreg(64)
                self._emit(self.MUL, [wide, Imm(scale, 64)], scaled)
                summed = self._fresh_vreg(64)
                self._emit(self.ADD, [current, scaled], summed)
                current = summed
        assigned = self.hints.reg_map[instruction.name]
        if current is not assigned:
            self._emit("COPY", [current], assigned)

    def _add_const(self, base: VReg, offset: int) -> VReg:
        if offset == 0:
            return base
        reg = self._fresh_vreg(64)
        self._emit(self.ADD, [base, Imm(offset, 64)], reg)
        return reg

    def _widen_to_64(self, reg: VReg) -> VReg:
        if reg.width == 64:
            return reg
        wide = self._fresh_vreg(64)
        self._emit(self.SEXT, [reg], wide)  # GEP indices are sign-extended
        return wide

    def _lower_load(self, block: ir.Block, instruction: ir.Load) -> None:
        if self.options.narrow_loads and self._try_narrow_load(block, instruction):
            return
        width_bytes = sizeof(instruction.type)
        reg_width = _value_width(instruction.type)
        if width_bytes * 8 != reg_width and reg_width != 8:
            raise IselError(f"unsupported load width {instruction.type}")
        memref = self._memref(instruction.pointer, width_bytes)
        self._emit("load", [memref], self.hints.reg_map[instruction.name])
        del reg_width
        if isinstance(instruction.type, PointerType):
            # The loaded pointer's base object is unknown statically.
            pass

    def _try_narrow_load(self, block: ir.Block, instruction: ir.Load) -> bool:
        """The (load iN; lshr C; trunc iM) narrowing pattern (Section 5.2)."""
        pattern = optimize.match_narrowable_load(
            block, instruction, self._use_counts
        )
        if pattern is None:
            return False
        memref = self._memref(
            instruction.pointer, optimize.narrow_load_bytes(pattern, self.options.bug)
        )
        memref = MemRef(
            width_bytes=memref.width_bytes,
            object=memref.object,
            base=memref.base,
            disp=memref.disp + pattern.byte_offset,
        )
        target_width = pattern.target_width
        reg = self.hints.reg_map[pattern.trunc.name]
        if memref.width_bytes * 8 == target_width:
            self._emit("load", [memref], reg)
        else:
            narrow = self._fresh_vreg(memref.width_bytes * 8)
            self._emit("load", [memref], narrow)
            self._emit(self.ZEXT, [narrow], reg)
        self._skip.add(id(pattern.shift))
        self._skip.add(id(pattern.trunc))
        return True

    def _lower_store(self, instruction: ir.Store) -> None:
        width_bytes = sizeof(instruction.value_type)
        lowered = self._lower_operand(instruction.value)
        if isinstance(lowered, _Addr):
            lowered = self._as_register(lowered, 64)
        if isinstance(lowered, VReg) and lowered.width != width_bytes * 8:
            raise IselError(f"unsupported store width {instruction.value_type}")
        if isinstance(lowered, Imm):
            lowered = Imm(lowered.value, width_bytes * 8)
        memref = self._memref(instruction.pointer, width_bytes)
        self._emit("store", [memref, lowered])

    def _lower_alloca(self, instruction: ir.Alloca) -> None:
        object_name = f"stack.{self.function.name}.{instruction.name}"
        self.machine.frame_objects[object_name] = sizeof(instruction.allocated_type)
        reg = self.hints.reg_map[instruction.name]
        self._emit(self.LEA, [MemRef(8, object=object_name)], reg)
        self.hints.pointer_objects[instruction.name] = object_name
        self.hints.frame_objects[instruction.name] = object_name

    def _lower_call(self, instruction: ir.Call) -> None:
        if len(instruction.arguments) > len(self.ARGUMENT_REGISTERS):
            raise IselError(
                f"more than {len(self.ARGUMENT_REGISTERS)} call arguments"
            )
        used_registers = []
        for index, (type_, value) in enumerate(instruction.arguments):
            width = _value_width(type_)
            source = self._as_register(self._lower_operand(value), width)
            target = self.PHYS(self.ARGUMENT_REGISTERS[index], width)
            self._emit("COPY", [source], target)
            used_registers.append(target)
        self._emit("call", [Label(instruction.callee), *used_registers])
        if instruction.name is not None:
            width = _value_width(instruction.return_type)
            self._emit(
                "COPY",
                [self.PHYS(self.RETURN_REGISTER, width)],
                self.hints.reg_map[instruction.name],
            )

    def _lower_br(self, block: ir.Block, instruction: ir.Br) -> None:
        if instruction.condition is None:
            self._emit("jmp", [Label(self.hints.block_map[instruction.true_target])])
            return
        condition = instruction.condition
        fused = self._fusable_icmp(block, condition)
        if fused is not None and fused.name in self._fused_icmps:
            self._emit_cmp(fused)
            jcc = _PREDICATE_JCC[fused.predicate]
        else:
            reg = self._as_register(self._lower_operand(condition), 8)
            self._emit("test", [reg, reg])
            jcc = "jne"
        self._emit(jcc, [Label(self.hints.block_map[instruction.true_target])])
        self._emit("jmp", [Label(self.hints.block_map[instruction.false_target])])

    def _fusable_icmp(self, block: ir.Block, condition: ir.Operand) -> ir.Icmp | None:
        """An icmp defined in this block whose only use is this branch.

        The cmp is emitted at the branch, so nothing may clobber eflags in
        between — guaranteed here because the icmp itself is lowered at the
        branch position (its original position emits nothing).
        """
        if not isinstance(condition, ir.LocalRef):
            return None
        if self._use_counts.get(condition.name, 0) != 1:
            return None
        for instruction in block.instructions:
            if isinstance(instruction, ir.Icmp) and instruction.name == condition.name:
                return instruction
        return None

    def _lower_ret(self, instruction: ir.Ret) -> None:
        if instruction.value is not None:
            width = _value_width(instruction.type)
            source = self._as_register(self._lower_operand(instruction.value), width)
            self._emit("COPY", [source], self.PHYS(self.RETURN_REGISTER, width))
        self._emit("ret")

    # -- optimizations ----------------------------------------------------------------------

    def _apply_optimizations(self) -> None:
        if self.options.merge_stores:
            for machine_block in self.machine.blocks.values():
                optimize.merge_constant_stores(machine_block, self.options.bug)


def _count_uses(function: ir.Function) -> dict[str, int]:
    from repro.llvm.verify import _used_locals

    counts: dict[str, int] = {}
    for _, _, instruction in function.instructions():
        for name in _used_locals(instruction):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _operand_type(operand: ir.Operand) -> Type:
    if isinstance(operand, (ir.ConstInt, ir.LocalRef)):
        return operand.type
    raise IselError(f"operand {operand!r} has no register type")


def _const_gep_offset(base_type: Type, values: list[int]) -> int:
    offset = values[0] * sizeof(base_type)
    current = base_type
    for value in values[1:]:
        if isinstance(current, ArrayType):
            current = current.element
            offset += value * sizeof(current)
        elif isinstance(current, StructType):
            offset += field_offset(current, value)
            current = current.fields[value]
        else:
            raise IselError("constant GEP walks into a non-composite type")
    return offset


def select_function(
    module: ir.Module,
    function: ir.Function,
    options: IselOptions | None = None,
) -> tuple[MachineFunction, IselHints]:
    """Run instruction selection on one function, returning the machine
    code and the TV hints."""
    return _Lowerer(module, function, options or IselOptions()).run()


def select_module(
    module: ir.Module, options: IselOptions | None = None
) -> dict[str, tuple[MachineFunction, IselHints]]:
    return {
        name: select_function(module, function, options)
        for name, function in module.functions.items()
    }
