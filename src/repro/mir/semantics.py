"""The CFG-machine semantics core every virtual target shares.

A target's semantics is a :class:`MachineSemantics` subclass.  The core
executes what every machine IR here has in common: the register file
(virtual registers under :attr:`repro.mir.VReg.key`, physical registers
under their full-width names, narrow views truncating on read and
zero-extending on write), operand evaluation and memory-operand
resolution in the common memory model, the leading PHI group of a block
(read in parallel), ``COPY`` and moves, zero/sign extension, address-of,
unconditional jumps, calls and ``ret``, and loads and stores.  A subclass
names its spelling of those instructions as class attributes and adds a
step method for each of its own opcodes
(:meth:`MachineSemantics._isa_steps`); conditional branches and selects
share :meth:`~MachineSemantics._branch` and
:meth:`~MachineSemantics._select`.

The forks the LLVM side must agree on are not built here but by
:class:`~repro.semantics.state.ProgramState`, which both sides call:
the out-of-bounds branch of a load or store
(:meth:`~repro.semantics.state.ProgramState.access_checked`) and the
split of a select over pointers
(:meth:`~repro.semantics.state.ProgramState.selected`).
"""

from __future__ import annotations

from typing import Callable

from repro.memory import (
    Memory,
    MemoryObject,
    PointerValue,
    interpret_pointer,
)
from repro.mir import (
    Imm,
    Label,
    MachineFunction,
    MemRef,
    MInstr,
    PhysReg,
    VReg,
)
from repro.semantics.state import (
    CallMarker,
    Location,
    ProgramState,
    StatusKind,
    Value,
    value_term,
)
from repro.smt import terms as t
from repro.smt.terms import Term

Step = Callable[[ProgramState, MInstr], list[ProgramState]]


class MachineSemanticsError(Exception):
    pass


def machine_entry_state(
    function: MachineFunction,
    memory: Memory,
    register_values: dict[str, Value] | None = None,
) -> ProgramState:
    """Initial state at the machine function's entry.

    ``register_values`` maps full-width physical register names to
    initial values (the VC generator supplies argument symbols shared with
    the LLVM side here).  Frame objects are materialized into memory.
    """
    env: dict[str, Value] = dict(register_values or {})
    for object_name, size in function.frame_objects.items():
        if not memory.has_object(object_name):
            memory = memory.add_object(MemoryObject(object_name, size, kind="stack"))
    entry = function.entry_block
    return ProgramState(
        location=Location(function.name, entry.name, 0),
        env=env,
        memory=memory,
    )


class MachineSemantics:
    """A virtual target's language definition consumed by KEQ."""

    language_name: str
    deterministic = True

    #: the target's opcodes for the shared instructions.
    MOV: str  # register <- immediate/register
    LEA: str  # register <- address of MemRef
    JMP: str  # unconditional jump
    ZEXT: str
    SEXT: str
    #: full-width register a call's result and ``ret``'s value live in.
    RETURN_REGISTER: str

    def __init__(self, function_map: dict[str, MachineFunction]):
        self.functions = function_map
        self._steps: dict[str, Step] = {
            "COPY": self._step_move,
            self.MOV: self._step_move,
            self.ZEXT: self._step_extend,
            self.SEXT: self._step_extend,
            "load": self._step_load,
            "store": self._step_store,
            self.LEA: self._step_address,
            self.JMP: self._step_jump,
            "call": self._step_call,
            "ret": self._step_ret,
            **self._isa_steps(),
        }

    def _isa_steps(self) -> dict[str, Step]:
        """Opcode -> step method for the target's own instructions."""
        return {}

    # -- register file ------------------------------------------------------------

    def read_reg(self, state: ProgramState, reg: VReg | PhysReg) -> Value:
        if isinstance(reg, VReg):
            return state.lookup(reg.key)
        full = state.env.get(reg.name)
        if full is None:
            # Reading a never-written physical register yields a
            # deterministic unknown (named per register).
            full = t.bv_var(f"reg_{reg.name}", 64)
        if isinstance(full, PointerValue):
            if reg.width == 64:
                return full
            full = full.materialize()
        if reg.width == 64:
            return full
        return t.trunc(full, reg.width)

    def write_reg(
        self, state: ProgramState, reg: VReg | PhysReg, value: Value
    ) -> ProgramState:
        if isinstance(reg, VReg):
            if isinstance(value, Term) and value.width != reg.width:
                raise MachineSemanticsError(
                    f"width mismatch writing {reg}: {value.width} bits"
                )
            return state.bind(reg.key, value)
        if reg.width == 64:
            return state.bind(reg.name, value)
        # Narrow views zero-extend into the full register.
        return state.bind(reg.name, t.zext(value_term(value), 64))

    def _operand_value(self, state: ProgramState, operand) -> Value:
        if isinstance(operand, (VReg, PhysReg)):
            return self.read_reg(state, operand)
        if isinstance(operand, Imm):
            return t.bv_const(operand.value, operand.width)
        raise MachineSemanticsError(f"cannot evaluate operand {operand!r}")

    def _operand_term(self, state: ProgramState, operand) -> Term:
        return value_term(self._operand_value(state, operand))

    def _resolve_mem(self, state: ProgramState, mem: MemRef) -> PointerValue:
        if mem.object is not None:
            offset = t.bv_const(mem.disp, 64)
            if mem.base is not None:
                base_value = self._operand_value(state, mem.base)
                if isinstance(base_value, PointerValue):
                    # [object + reg] with reg itself a pointer is not a
                    # supported addressing shape.
                    raise MachineSemanticsError("pointer register with object base")
                offset = t.add(offset, _to_64(base_value))
            return PointerValue(mem.object, offset)
        if mem.base is None:
            raise MachineSemanticsError("memory operand without object or base")
        base_value = self._operand_value(state, mem.base)
        if isinstance(base_value, PointerValue):
            return base_value.moved(t.bv_const(mem.disp, 64))
        recovered = interpret_pointer(_to_64(base_value))
        if recovered is None:
            raise MachineSemanticsError(
                f"register {mem.base} does not hold a known object pointer"
            )
        return recovered.moved(t.bv_const(mem.disp, 64))

    # -- stepping -------------------------------------------------------------------

    def step(self, state: ProgramState) -> list[ProgramState]:
        if state.status is not StatusKind.RUNNING:
            return []
        location = state.location
        assert location is not None
        function = self.functions[location.function]
        block = function.block(location.block)
        instruction = block.instructions[location.index]
        if instruction.opcode == "PHI":
            return self._step_phis(state, block)
        step = self._steps.get(instruction.opcode)
        if step is None:
            raise MachineSemanticsError(f"unhandled opcode {instruction.opcode!r}")
        successors = step(state, instruction)
        return [s for s in successors if s.is_feasible_syntactically]

    def _step_phis(self, state: ProgramState, block) -> list[ProgramState]:
        phis = block.phis()
        previous = state.prev_block
        if previous is None:
            raise MachineSemanticsError(f"PHI in {block.name} without predecessor")
        bindings: dict[str, Value] = {}
        for phi in phis:
            operands = phi.operands
            chosen: Value | None = None
            for value_op, label in zip(operands[0::2], operands[1::2]):
                assert isinstance(label, Label)
                if label.name == previous:
                    chosen = self._operand_value(state, value_op)
                    break
            if chosen is None:
                raise MachineSemanticsError(
                    f"PHI {phi.result} has no arm for predecessor {previous}"
                )
            assert isinstance(phi.result, VReg)
            bindings[phi.result.key] = chosen
        location = state.location
        assert location is not None
        return [
            state.bind_many(bindings).at(
                Location(location.function, location.block, location.index + len(phis))
            )
        ]

    def _step_move(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        value = self._operand_value(state, instr.operands[0])
        dest = instr.result
        assert dest is not None
        if isinstance(value, Term) and value.width != dest.width:
            if value.width > dest.width:
                value = t.trunc(value, dest.width)
            else:
                raise MachineSemanticsError(
                    f"{instr.opcode} widens {value.width} -> {dest.width}"
                )
        if isinstance(value, PointerValue) and dest.width != 64:
            value = t.trunc(value.materialize(), dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_extend(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        source = self._operand_term(state, instr.operands[0])
        dest = instr.result
        extend = t.zext if instr.opcode == self.ZEXT else t.sext
        return [self.write_reg(state, dest, extend(source, dest.width)).advanced()]

    def _step_load(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        mem = instr.operands[0]
        assert isinstance(mem, MemRef)
        pointer = self._resolve_mem(state, mem)
        successors: list[ProgramState] = []
        state = state.access_checked(
            pointer, mem.width_bytes, f"load {mem}", successors
        )
        raw = state.memory.load(pointer, mem.width_bytes)
        dest = instr.result
        assert dest is not None
        value: Value = raw
        if dest.width == 64:
            recovered = interpret_pointer(raw)
            if recovered is not None:
                value = recovered
        if isinstance(value, Term) and value.width != dest.width:
            raise MachineSemanticsError(
                f"load width {value.width} into {dest.width}-bit register"
            )
        successors.append(self.write_reg(state, dest, value).advanced())
        return successors

    def _step_store(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        mem = instr.operands[0]
        assert isinstance(mem, MemRef)
        pointer = self._resolve_mem(state, mem)
        source = self._operand_value(state, instr.operands[1])
        raw = value_term(source)
        if raw.width != mem.width_bytes * 8:
            raise MachineSemanticsError(
                f"store width mismatch: {raw.width} bits into {mem.width_bytes} bytes"
            )
        successors: list[ProgramState] = []
        state = state.access_checked(
            pointer, mem.width_bytes, f"store {mem}", successors
        )
        memory = state.memory.store(pointer, raw, mem.width_bytes)
        successors.append(state.with_memory(memory).advanced())
        return successors

    def _step_address(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        mem = instr.operands[0]
        assert isinstance(mem, MemRef)
        pointer = self._resolve_mem(state, mem)
        return [self.write_reg(state, instr.result, pointer).advanced()]

    def _step_jump(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        target = instr.operands[0]
        assert isinstance(target, Label)
        location = state.location
        return [
            state.at(
                Location(location.function, target.name, 0),
                prev_block=location.block,
            )
        ]

    def _branch(
        self, state: ProgramState, condition: Term, target: Label
    ) -> list[ProgramState]:
        """Fork a conditional branch: to ``target`` or the next instruction."""
        location = state.location
        assert location is not None
        taken = state.assuming(condition).at(
            Location(location.function, target.name, 0), prev_block=location.block
        )
        not_taken = state.assuming(t.not_(condition)).advanced()
        return [taken, not_taken]

    def _select(
        self,
        state: ProgramState,
        dest: VReg | PhysReg,
        condition: Term,
        taken: Value,
        not_taken: Value,
    ) -> list[ProgramState]:
        """Write ``condition ? taken : not_taken`` to ``dest``."""
        return state.selected(
            condition,
            taken,
            not_taken,
            lambda state, value: self.write_reg(state, dest, value),
        )

    def _step_call(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        target = instr.operands[0]
        assert isinstance(target, Label)
        arguments = tuple(
            self._operand_value(state, operand) for operand in instr.operands[1:]
        )
        location = state.location
        assert location is not None
        marker = CallMarker(
            callee=target.name,
            arguments=arguments,
            result_name=self.RETURN_REGISTER,
            return_location=Location(
                location.function, location.block, location.index + 1
            ),
        )
        return [state.calling(marker)]

    def _step_ret(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        return [state.exited(state.env.get(self.RETURN_REGISTER))]


def _to_64(value: Value) -> Term:
    term = value_term(value)
    if term.width < 64:
        return t.zext(term, 64)
    if term.width > 64:
        return t.trunc(term, 64)
    return term
