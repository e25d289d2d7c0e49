"""Symbolic operational semantics for the LLVM IR subset.

``LlvmSemantics.step`` is a small-step transition function over
:class:`~repro.semantics.state.ProgramState`.  Branching instructions and
potential undefined behaviour return several successors, each carrying the
arm's condition in its path condition; trivially infeasible successors
(path condition folded to ``false``) are pruned.

Undefined behaviour handled as error states (paper Section 4.6):

- out-of-bounds loads/stores (``ErrorInfo.OUT_OF_BOUNDS``);
- division by zero and ``INT_MIN / -1`` (``DIV_BY_ZERO`` /
  ``SIGNED_OVERFLOW``);
- ``nsw``-flagged arithmetic overflow (``SIGNED_OVERFLOW``);
- shifts by >= bit-width (surfaced as ``UNSUPPORTED`` — the paper's
  prototype likewise excludes general poison semantics).
"""

from __future__ import annotations

from repro.llvm import ir
from repro.llvm.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    Type,
    bit_width,
    field_offset,
    sizeof,
)
from repro.memory import Memory, MemoryObject, PointerValue, interpret_pointer
from repro.semantics.state import (
    CallMarker,
    ErrorInfo,
    Location,
    ProgramState,
    StatusKind,
    Value,
    value_term,
)
from repro.smt import terms as t
from repro.smt.terms import Term


class SemanticsError(Exception):
    """Raised when a program leaves the supported fragment entirely."""


def module_memory(module: ir.Module) -> Memory:
    """Initial memory containing all of the module's globals."""
    return Memory.create(
        [
            MemoryObject(variable.name, sizeof(variable.type), kind="global")
            for variable in module.globals.values()
        ]
    )


def argument_symbols(function: ir.Function) -> dict[str, Term]:
    """Deterministically named symbolic arguments for a function."""
    return {
        name: t.bv_var(f"arg_{name}", bit_width(type_))
        for name, type_ in function.parameters
    }


def entry_state(
    module: ir.Module,
    function: ir.Function,
    arguments: dict[str, Value] | None = None,
    memory: Memory | None = None,
) -> ProgramState:
    """The initial symbolic state at a function's entry."""
    if arguments is None:
        arguments = dict(argument_symbols(function))
    if memory is None:
        memory = module_memory(module)
    entry = function.entry_block
    return ProgramState(
        location=Location(function.name, entry.name, 0),
        env=dict(arguments),
        memory=memory,
    )


class LlvmSemantics:
    """The LLVM IR language definition consumed by KEQ."""

    language_name = "llvm"
    deterministic = True

    def __init__(self, module: ir.Module):
        self.module = module

    # -- operand evaluation -------------------------------------------------------

    def eval_operand(self, state: ProgramState, operand: ir.Operand) -> Value:
        if isinstance(operand, ir.ConstInt):
            return t.bv_const(operand.value, operand.type.width)
        if isinstance(operand, ir.LocalRef):
            return state.lookup(operand.name)
        if isinstance(operand, ir.GlobalRef):
            return PointerValue(operand.name, t.zero(64))
        if isinstance(operand, ir.ConstGep):
            base = self.eval_operand(state, operand.pointer)
            if not isinstance(base, PointerValue):
                raise SemanticsError("constant GEP over a non-pointer")
            indices = [self.eval_operand(state, index) for index in operand.indices]
            offset = _gep_offset(operand.base_type, indices)
            return base.moved(offset)
        if isinstance(operand, ir.ConstCast):
            inner = self.eval_operand(state, operand.operand)
            return _apply_cast(operand.op, inner, operand.from_type, operand.type)
        if isinstance(operand, ir.UndefValue):
            raise SemanticsError("undef values are outside the supported fragment")
        raise SemanticsError(f"cannot evaluate operand {operand!r}")

    def _eval_int(self, state: ProgramState, operand: ir.Operand) -> Term:
        value = self.eval_operand(state, operand)
        return value_term(value)

    # -- stepping ------------------------------------------------------------------

    def step(self, state: ProgramState) -> list[ProgramState]:
        if state.status is not StatusKind.RUNNING:
            return []
        location = state.location
        assert location is not None
        function = self.module.function(location.function)
        block = function.block(location.block)
        instruction = block.instructions[location.index]
        if isinstance(instruction, ir.Phi):
            return self._step_phis(state, block)
        handler = _HANDLERS[type(instruction)]
        successors = handler(self, state, instruction)
        return [s for s in successors if s.is_feasible_syntactically]

    def _step_phis(self, state: ProgramState, block: ir.Block) -> list[ProgramState]:
        """Execute the whole leading phi group atomically (parallel reads)."""
        phis = block.phis()
        previous = state.prev_block
        if previous is None:
            raise SemanticsError(f"phi in {block.name} reached without predecessor")
        bindings: dict[str, Value] = {}
        for phi in phis:
            for value, predecessor in phi.incomings:
                if predecessor == previous:
                    bindings[phi.name] = self.eval_operand(state, value)
                    break
            else:
                raise SemanticsError(
                    f"phi %{phi.name} has no incoming for block {previous}"
                )
        location = state.location
        assert location is not None
        after = state.bind_many(bindings).at(
            Location(location.function, location.block, location.index + len(phis))
        )
        return [after]

    # -- instruction handlers ---------------------------------------------------------

    def _step_binop(self, state: ProgramState, instr: ir.BinOp) -> list[ProgramState]:
        width = instr.type.width
        lhs = self._eval_int(state, instr.lhs)
        rhs = self._eval_int(state, instr.rhs)
        successors: list[ProgramState] = []
        op = instr.op
        if op in ("udiv", "sdiv", "urem", "srem"):
            state = state.divide_checked(
                lhs, rhs, op in ("sdiv", "srem"), f"%{instr.name}", successors
            )
        if op in ("shl", "lshr", "ashr"):
            state = state.undefined_if(
                t.uge(rhs, t.bv_const(width, width)),
                ErrorInfo.UNSUPPORTED,
                f"shift >= width in %{instr.name}",
                successors,
            )
        if "nsw" in instr.flags and op in ("add", "sub", "mul"):
            state = state.undefined_if(
                _signed_overflow(op, lhs, rhs, width),
                ErrorInfo.SIGNED_OVERFLOW,
                f"%{instr.name}",
                successors,
            )
        result = _BINOP_BUILDERS[op](lhs, rhs)
        successors.append(state.bind(instr.name, result).advanced())
        return successors

    def _step_icmp(self, state: ProgramState, instr: ir.Icmp) -> list[ProgramState]:
        lhs_value = self.eval_operand(state, instr.lhs)
        rhs_value = self.eval_operand(state, instr.rhs)
        if isinstance(lhs_value, PointerValue) and isinstance(
            rhs_value, PointerValue
        ) and lhs_value.object == rhs_value.object:
            lhs, rhs = lhs_value.offset, rhs_value.offset
        else:
            lhs, rhs = value_term(lhs_value), value_term(rhs_value)
        condition = _ICMP_BUILDERS[instr.predicate](lhs, rhs)
        return [state.bind(instr.name, t.bool_to_bv(condition, 1)).advanced()]

    def _step_select(self, state: ProgramState, instr: ir.Select) -> list[ProgramState]:
        condition = t.eq(self._eval_int(state, instr.condition), t.bv_const(1, 1))
        true_value = self.eval_operand(state, instr.true_value)
        false_value = self.eval_operand(state, instr.false_value)
        return state.selected(
            condition,
            true_value,
            false_value,
            lambda state, value: state.bind(instr.name, value),
        )

    def _step_cast(self, state: ProgramState, instr: ir.Cast) -> list[ProgramState]:
        value = self.eval_operand(state, instr.value)
        result = _apply_cast(instr.op, value, instr.from_type, instr.to_type)
        return [state.bind(instr.name, result).advanced()]

    def _step_gep(self, state: ProgramState, instr: ir.Gep) -> list[ProgramState]:
        base = self.eval_operand(state, instr.pointer)
        if not isinstance(base, PointerValue):
            recovered = interpret_pointer(value_term(base))
            if recovered is None:
                raise SemanticsError(f"GEP %{instr.name} over a non-pointer")
            base = recovered
        indices = [self.eval_operand(state, op) for _, op in instr.indices]
        offset = _gep_offset(instr.base_type, indices)
        return [state.bind(instr.name, base.moved(offset)).advanced()]

    def _step_load(self, state: ProgramState, instr: ir.Load) -> list[ProgramState]:
        pointer = self._as_pointer(state, instr.pointer, f"load %{instr.name}")
        width_bytes = sizeof(instr.type)
        successors: list[ProgramState] = []
        state = state.access_checked(
            pointer, width_bytes, f"load %{instr.name}", successors
        )
        raw = state.memory.load(pointer, width_bytes)
        value: Value = _shrink_loaded(raw, instr.type)
        if isinstance(instr.type, PointerType):
            recovered = interpret_pointer(raw)
            if recovered is not None:
                value = recovered
        successors.append(state.bind(instr.name, value).advanced())
        return successors

    def _step_store(self, state: ProgramState, instr: ir.Store) -> list[ProgramState]:
        pointer = self._as_pointer(state, instr.pointer, "store")
        width_bytes = sizeof(instr.value_type)
        value = self.eval_operand(state, instr.value)
        raw = _widen_for_store(value_term(value), instr.value_type)
        successors: list[ProgramState] = []
        state = state.access_checked(pointer, width_bytes, "store", successors)
        memory = state.memory.store(pointer, raw, width_bytes)
        successors.append(state.with_memory(memory).advanced())
        return successors

    def _step_alloca(self, state: ProgramState, instr: ir.Alloca) -> list[ProgramState]:
        location = state.location
        assert location is not None
        object_name = f"stack.{location.function}.{instr.name}"
        memory = state.memory
        if not memory.has_object(object_name):
            memory = memory.add_object(
                MemoryObject(object_name, sizeof(instr.allocated_type), kind="stack")
            )
        pointer = PointerValue(object_name, t.zero(64))
        return [state.with_memory(memory).bind(instr.name, pointer).advanced()]

    def _step_call(self, state: ProgramState, instr: ir.Call) -> list[ProgramState]:
        arguments = tuple(
            self.eval_operand(state, operand) for _, operand in instr.arguments
        )
        location = state.location
        assert location is not None
        marker = CallMarker(
            callee=instr.callee,
            arguments=arguments,
            result_name=instr.name,
            return_location=Location(
                location.function, location.block, location.index + 1
            ),
        )
        return [state.calling(marker)]

    def _step_br(self, state: ProgramState, instr: ir.Br) -> list[ProgramState]:
        location = state.location
        assert location is not None
        current = location.block
        if instr.condition is None:
            target = Location(location.function, instr.true_target, 0)
            return [state.at(target, prev_block=current)]
        condition = t.eq(self._eval_int(state, instr.condition), t.bv_const(1, 1))
        taken = state.assuming(condition).at(
            Location(location.function, instr.true_target, 0), prev_block=current
        )
        assert instr.false_target is not None
        not_taken = state.assuming(t.not_(condition)).at(
            Location(location.function, instr.false_target, 0), prev_block=current
        )
        return [taken, not_taken]

    def _step_ret(self, state: ProgramState, instr: ir.Ret) -> list[ProgramState]:
        if instr.value is None:
            return [state.exited(None)]
        return [state.exited(self.eval_operand(state, instr.value))]

    def _as_pointer(
        self, state: ProgramState, operand: ir.Operand, what: str
    ) -> PointerValue:
        value = self.eval_operand(state, operand)
        if isinstance(value, PointerValue):
            return value
        recovered = interpret_pointer(value_term(value))
        if recovered is None:
            raise SemanticsError(f"{what}: pointer operand is not a known object")
        return recovered


# ---------------------------------------------------------------------------
# Pure helpers
# ---------------------------------------------------------------------------

_BINOP_BUILDERS = {
    "add": t.add,
    "sub": t.sub,
    "mul": t.mul,
    "udiv": t.udiv,
    "sdiv": t.sdiv,
    "urem": t.urem,
    "srem": t.srem,
    "and": t.bvand,
    "or": t.bvor,
    "xor": t.bvxor,
    "shl": t.shl,
    "lshr": t.lshr,
    "ashr": t.ashr,
}

_ICMP_BUILDERS = {
    "eq": t.eq,
    "ne": t.ne,
    "ult": t.ult,
    "ule": t.ule,
    "ugt": t.ugt,
    "uge": t.uge,
    "slt": t.slt,
    "sle": t.sle,
    "sgt": t.sgt,
    "sge": t.sge,
}


def _signed_overflow(op: str, lhs: Term, rhs: Term, width: int) -> Term:
    """Signed overflow condition computed at width+1 (for add/sub) or 2w
    (for mul)."""
    if op == "mul":
        wide = t.mul(t.sext(lhs, width * 2), t.sext(rhs, width * 2))
        narrow = t.sext(t.mul(lhs, rhs), width * 2)
        return t.ne(wide, narrow)
    builder = t.add if op == "add" else t.sub
    wide = builder(t.sext(lhs, width + 1), t.sext(rhs, width + 1))
    narrow = t.sext(builder(lhs, rhs), width + 1)
    return t.ne(wide, narrow)


def _gep_offset(base_type: Type, indices: list[Value]) -> Term:
    """Byte offset of a GEP: first index scales the whole base type, later
    indices walk into arrays/structs."""
    offset = t.zero(64)
    index_terms = [_index_to_64(value) for value in indices]
    offset = t.add(
        offset, t.mul(index_terms[0], t.bv_const(sizeof(base_type), 64))
    )
    current = base_type
    for term in index_terms[1:]:
        if isinstance(current, ArrayType):
            offset = t.add(
                offset, t.mul(term, t.bv_const(sizeof(current.element), 64))
            )
            current = current.element
        elif isinstance(current, StructType):
            if not term.is_const():
                raise SemanticsError("struct GEP index must be constant")
            offset = t.add(
                offset, t.bv_const(field_offset(current, term.value), 64)
            )
            current = current.fields[term.value]
        else:
            raise SemanticsError(f"GEP walks into non-composite type {current}")
    return offset


def _index_to_64(value: Value) -> Term:
    term = value_term(value)
    if term.width < 64:
        return t.sext(term, 64)
    if term.width > 64:
        return t.trunc(term, 64)
    return term


def _apply_cast(op: str, value: Value, from_type: Type, to_type: Type) -> Value:
    if op == "bitcast":
        return value  # same bits; pointer-ness preserved
    if op == "ptrtoint":
        term = value_term(value)
        return _resize(term, bit_width(to_type))
    if op == "inttoptr":
        term = value_term(value)
        term = _resize(term, 64)
        recovered = interpret_pointer(term)
        return recovered if recovered is not None else term
    term = value_term(value)
    del from_type
    width = bit_width(to_type)
    if op == "zext":
        return t.zext(term, width)
    if op == "sext":
        return t.sext(term, width)
    if op == "trunc":
        return t.trunc(term, width)
    raise SemanticsError(f"unsupported cast {op!r}")


def _resize(term: Term, width: int) -> Term:
    if term.width < width:
        return t.zext(term, width)
    if term.width > width:
        return t.trunc(term, width)
    return term


def _shrink_loaded(raw: Term, type_: Type) -> Term:
    """Memory loads whole bytes; narrow to the register width (e.g. i1)."""
    width = bit_width(type_) if isinstance(type_, (IntType, PointerType)) else None
    if width is None:
        raise SemanticsError(f"load of non-scalar type {type_}")
    if raw.width > width:
        return t.trunc(raw, width)
    return raw


def _widen_for_store(term: Term, type_: Type) -> Term:
    storage = sizeof(type_) * 8
    if term.width < storage:
        return t.zext(term, storage)
    return term


_HANDLERS = {
    ir.BinOp: LlvmSemantics._step_binop,
    ir.Select: LlvmSemantics._step_select,
    ir.Icmp: LlvmSemantics._step_icmp,
    ir.Cast: LlvmSemantics._step_cast,
    ir.Gep: LlvmSemantics._step_gep,
    ir.Load: LlvmSemantics._step_load,
    ir.Store: LlvmSemantics._step_store,
    ir.Alloca: LlvmSemantics._step_alloca,
    ir.Call: LlvmSemantics._step_call,
    ir.Br: LlvmSemantics._step_br,
    ir.Ret: LlvmSemantics._step_ret,
}
