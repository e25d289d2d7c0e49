"""Programmatic construction of LLVM IR (used by tests and the workload
generator; plays the role of ``IRBuilder``)."""

from __future__ import annotations

from repro.llvm import ir
from repro.llvm.types import IntType, PointerType, Type, VoidType


class BuildError(Exception):
    pass


class FunctionBuilder:
    """Builds one function, block by block.

    Integer operands may be given as plain ints; SSA values as the
    :class:`~repro.llvm.ir.LocalRef` returned by earlier emits.
    """

    def __init__(
        self,
        module: ir.Module,
        name: str,
        return_type: Type,
        parameters: list[tuple[str, Type]],
    ):
        self.module = module
        self.function = ir.Function(name, return_type, parameters)
        self._block: ir.Block | None = None
        self._counter = 0

    # -- structure ----------------------------------------------------------------

    def block(self, name: str) -> ir.Block:
        """Create a block and make it current."""
        block = self.function.add_block(ir.Block(name))
        self._block = block
        return block

    def finish(self) -> ir.Function:
        self.module.add_function(self.function)
        return self.function

    def param(self, name: str) -> ir.LocalRef:
        for param_name, param_type in self.function.parameters:
            if param_name == name:
                return ir.LocalRef(name, param_type)
        raise BuildError(f"no parameter %{name}")

    # -- operand coercion -----------------------------------------------------------

    def _coerce(self, value, type_: Type) -> ir.Operand:
        if isinstance(value, ir.Operand):
            return value
        if isinstance(value, int):
            if not isinstance(type_, IntType):
                raise BuildError(f"integer literal at non-integer type {type_}")
            return ir.ConstInt(value, type_)
        raise BuildError(f"cannot coerce {value!r} to an operand")

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _emit(self, instruction: ir.Instruction) -> None:
        if self._block is None:
            raise BuildError("no current block")
        self._block.instructions.append(instruction)

    # -- instruction emitters ----------------------------------------------------------

    def binop(
        self, op: str, type_: IntType, lhs, rhs, name: str | None = None, flags=()
    ) -> ir.LocalRef:
        name = name or self._fresh(op)
        self._emit(
            ir.BinOp(
                name,
                op,
                type_,
                self._coerce(lhs, type_),
                self._coerce(rhs, type_),
                tuple(flags),
            )
        )
        return ir.LocalRef(name, type_)

    def icmp(
        self, predicate: str, type_: Type, lhs, rhs, name: str | None = None
    ) -> ir.LocalRef:
        name = name or self._fresh("cmp")
        self._emit(
            ir.Icmp(
                name, predicate, type_, self._coerce(lhs, type_), self._coerce(rhs, type_)
            )
        )
        return ir.LocalRef(name, IntType(1))

    def phi(
        self, type_: Type, incomings: list[tuple[object, str]], name: str | None = None
    ) -> ir.LocalRef:
        name = name or self._fresh("phi")
        arms = tuple(
            (self._coerce(value, type_), block) for value, block in incomings
        )
        self._emit(ir.Phi(name, type_, arms))
        return ir.LocalRef(name, type_)

    def select(
        self, type_: Type, condition, true_value, false_value, name: str | None = None
    ) -> ir.LocalRef:
        name = name or self._fresh("sel")
        self._emit(
            ir.Select(
                name,
                type_,
                self._coerce(condition, IntType(1)),
                self._coerce(true_value, type_),
                self._coerce(false_value, type_),
            )
        )
        return ir.LocalRef(name, type_)

    def cast(
        self, op: str, value, from_type: Type, to_type: Type, name: str | None = None
    ) -> ir.LocalRef:
        name = name or self._fresh(op)
        self._emit(ir.Cast(name, op, self._coerce(value, from_type), from_type, to_type))
        return ir.LocalRef(name, to_type)

    def load(self, type_: Type, pointer: ir.Operand, name: str | None = None) -> ir.LocalRef:
        name = name or self._fresh("load")
        self._emit(ir.Load(name, type_, pointer))
        return ir.LocalRef(name, type_)

    def store(self, type_: Type, value, pointer: ir.Operand) -> None:
        self._emit(ir.Store(type_, self._coerce(value, type_), pointer))

    def alloca(self, type_: Type, name: str | None = None) -> ir.LocalRef:
        name = name or self._fresh("slot")
        self._emit(ir.Alloca(name, type_))
        return ir.LocalRef(name, PointerType(type_))

    def gep(
        self,
        base_type: Type,
        pointer: ir.Operand,
        indices: list[tuple[Type, object]],
        name: str | None = None,
    ) -> ir.LocalRef:
        name = name or self._fresh("gep")
        typed = tuple(
            (index_type, self._coerce(value, index_type))
            for index_type, value in indices
        )
        self._emit(ir.Gep(name, base_type, pointer, typed))
        from repro.llvm.parser import _gep_result_type

        return ir.LocalRef(name, _gep_result_type(base_type, len(typed)))

    def call(
        self,
        return_type: Type,
        callee: str,
        arguments: list[tuple[Type, object]],
        name: str | None = None,
    ) -> ir.LocalRef | None:
        typed = tuple(
            (argument_type, self._coerce(value, argument_type))
            for argument_type, value in arguments
        )
        if isinstance(return_type, VoidType):
            self._emit(ir.Call(None, return_type, callee, typed))
            return None
        name = name or self._fresh("call")
        self._emit(ir.Call(name, return_type, callee, typed))
        return ir.LocalRef(name, return_type)

    def br(self, target: str) -> None:
        self._emit(ir.Br(None, target))

    def cond_br(self, condition, true_target: str, false_target: str) -> None:
        self._emit(ir.Br(self._coerce(condition, IntType(1)), true_target, false_target))

    def ret(self, type_: Type, value=None) -> None:
        if value is None:
            self._emit(ir.Ret(type_, None))
        else:
            self._emit(ir.Ret(type_, self._coerce(value, type_)))
