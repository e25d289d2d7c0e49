"""Symbolic operational semantics for Virtual x86.

The register file, memory accesses, PHIs, moves, jumps, calls and ``ret``
are the shared machine-IR core (:mod:`repro.mir.semantics`).  What is
x86's own:

- sub-register access follows x86-64: 32-bit writes zero the upper half
  (as in the core), while 8/16-bit writes preserve it;
- ``eflags`` as four boolean entries — ``cf``, ``zf``, ``sf`` and ``lt``
  (``lt`` is the ``SF != OF`` combination used by signed conditions, stored
  directly so that compare-then-branch path conditions match the LLVM
  side's syntactically in the common case), set by the ALU, ``cmp`` and
  ``test`` and read by ``jcc``, ``cmovcc`` and ``setcc``;
- division traps (#DE on a zero divisor or a quotient overflow): the
  ALU forks them through
  :meth:`~repro.semantics.state.ProgramState.divide_checked`, the one
  trapping-division rule LLVM's ``udiv``/``sdiv``/``urem``/``srem`` use
  too, so both sides build the same error states (paper Section 4.6).
"""

from __future__ import annotations

from repro.mir.semantics import (
    MachineSemantics,
    MachineSemanticsError,
    Step,
    machine_entry_state,
)
from repro.semantics.state import ProgramState, Value, value_term
from repro.smt import terms as t
from repro.smt.terms import Term
from repro.vx86 import insns
from repro.vx86.insns import MInstr, PReg, RETURN_REGISTER, VReg

__all__ = ["MachineSemanticsError", "Vx86Semantics", "machine_entry_state"]


class Vx86Semantics(MachineSemantics):
    """The Virtual x86 language definition consumed by KEQ."""

    language_name = "vx86"

    MOV = "mov"
    LEA = "lea"
    JMP = "jmp"
    ZEXT = "movzx"
    SEXT = "movsx"
    RETURN_REGISTER = RETURN_REGISTER

    def _isa_steps(self) -> dict[str, Step]:
        return {
            **dict.fromkeys(insns.ALU_OPS, self._step_alu),
            **dict.fromkeys(insns.UNARY_OPS, self._step_unary),
            "cmp": self._step_cmp,
            "test": self._step_test,
            **dict.fromkeys(insns.CONDITION_CODES, self._step_jcc),
            **dict.fromkeys(insns.CMOV_OPS, self._step_cmov),
            **dict.fromkeys(insns.SETCC_OPS, self._step_setcc),
        }

    # -- register file ------------------------------------------------------------

    def write_reg(
        self, state: ProgramState, reg: VReg | PReg, value: Value
    ) -> ProgramState:
        if isinstance(reg, PReg) and reg.width < 32:
            # 8/16-bit writes preserve the upper bits.
            term = value_term(value)
            old = self.read_reg(state, PReg(reg.name, 64))
            old_term = value_term(old)
            merged = t.concat(t.extract(old_term, 63, reg.width), term)
            return state.bind(reg.name, merged)
        return super().write_reg(state, reg, value)

    # -- flags ---------------------------------------------------------------------

    @staticmethod
    def _set_flags(state: ProgramState, cf: Term, zf: Term, sf: Term, lt: Term):
        return state.bind_many({"cf": cf, "zf": zf, "sf": sf, "lt": lt})

    def _flags_for_sub(self, state, lhs: Term, rhs: Term) -> ProgramState:
        result = t.sub(lhs, rhs)
        return self._set_flags(
            state,
            cf=t.ult(lhs, rhs),
            zf=t.eq(lhs, rhs),
            sf=t.slt(result, t.zero(result.width)),
            lt=t.slt(lhs, rhs),
        )

    def _flags_for_add(self, state, lhs: Term, rhs: Term) -> ProgramState:
        width = lhs.width
        result = t.add(lhs, rhs)
        wide = t.add(t.sext(lhs, width + 1), t.sext(rhs, width + 1))
        return self._set_flags(
            state,
            cf=t.ult(result, lhs),
            zf=t.eq(result, t.zero(width)),
            sf=t.slt(result, t.zero(width)),
            lt=t.slt(wide, t.zero(width + 1)),
        )

    def _flags_for_logic(self, state, result: Term) -> ProgramState:
        width = result.width
        sf = t.slt(result, t.zero(width))
        return self._set_flags(
            state, cf=t.FALSE, zf=t.eq(result, t.zero(width)), sf=sf, lt=sf
        )

    def _condition(self, state: ProgramState, code: str) -> Term:
        def flag(name: str) -> Term:
            value = state.env.get(name)
            if value is None:
                raise MachineSemanticsError(f"branch {code} with undefined flags")
            assert isinstance(value, Term)
            return value

        if code == "je":
            return flag("zf")
        if code == "jne":
            return t.not_(flag("zf"))
        if code == "jb":
            return flag("cf")
        if code == "jae":
            return t.not_(flag("cf"))
        if code == "jbe":
            return t.or_(flag("cf"), flag("zf"))
        if code == "ja":
            return t.and_(t.not_(flag("cf")), t.not_(flag("zf")))
        if code == "jl":
            return flag("lt")
        if code == "jge":
            return t.not_(flag("lt"))
        if code == "jle":
            return t.or_(flag("lt"), flag("zf"))
        if code == "jg":
            return t.and_(t.not_(flag("lt")), t.not_(flag("zf")))
        if code == "js":
            return flag("sf")
        if code == "jns":
            return t.not_(flag("sf"))
        raise MachineSemanticsError(f"unknown condition code {code!r}")

    # -- stepping -------------------------------------------------------------------

    def _step_cmp(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        return [self._flags_for_sub(state, lhs, rhs).advanced()]

    def _step_test(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        return [self._flags_for_logic(state, t.bvand(lhs, rhs)).advanced()]

    def _step_jcc(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        condition = self._condition(state, instr.opcode)
        return self._branch(state, condition, instr.operands[0])

    def _step_cmov(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        condition = self._condition(state, insns.CMOV_CONDITION[instr.opcode])
        taken = self._operand_value(state, instr.operands[0])
        not_taken = self._operand_value(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        return self._select(state, dest, condition, taken, not_taken)

    def _step_setcc(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        condition = self._condition(state, insns.SETCC_CONDITION[instr.opcode])
        dest = instr.result
        assert dest is not None
        value = t.bool_to_bv(condition, dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_alu(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        opcode = instr.opcode
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        width = dest.width
        successors: list[ProgramState] = []
        if opcode in ("idiv", "irem", "udiv", "urem"):
            state = state.divide_checked(
                lhs, rhs, opcode in ("idiv", "irem"), f"{opcode} {dest}", successors
            )
        if opcode in ("shl", "shr", "sar"):
            # x86 masks the shift count to the width; the LLVM side treats
            # oversized shifts as an error branch, which refines this.
            mask_const = t.bv_const(width - 1, width)
            rhs = t.bvand(rhs, mask_const)
        result = _ALU_BUILDERS[opcode](lhs, rhs)
        state = self.write_reg(state, dest, result)
        if opcode == "add":
            state = self._flags_for_add(state, lhs, rhs)
        elif opcode == "sub":
            state = self._flags_for_sub(state, lhs, rhs)
        elif opcode in ("and", "or", "xor", "imul", "shl", "shr", "sar"):
            state = self._flags_for_logic(state, result)
        successors.append(state.advanced())
        return successors

    def _step_unary(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        opcode = instr.opcode
        source = self._operand_term(state, instr.operands[0])
        dest = instr.result
        assert dest is not None
        width = dest.width
        one = t.bv_const(1, width)
        if opcode == "inc":
            result = t.add(source, one)
            # inc leaves CF untouched (x86); other flags as for add.
            carry = state.env.get("cf", t.FALSE)
            state = self._flags_for_add(state, source, one)
            state = state.bind("cf", carry)
        elif opcode == "dec":
            result = t.sub(source, one)
            carry = state.env.get("cf", t.FALSE)
            state = self._flags_for_sub(state, source, one)
            state = state.bind("cf", carry)
        elif opcode == "neg":
            result = t.neg(source)
            state = self._flags_for_sub(state, t.zero(width), source)
        elif opcode == "not":
            result = t.bvnot(source)  # flags unaffected (x86)
        else:  # pragma: no cover
            raise MachineSemanticsError(f"unhandled unary opcode {opcode!r}")
        return [self.write_reg(state, dest, result).advanced()]


_ALU_BUILDERS = {
    "add": t.add,
    "sub": t.sub,
    "imul": t.mul,
    "and": t.bvand,
    "or": t.bvor,
    "xor": t.bvxor,
    "shl": t.shl,
    "shr": t.lshr,
    "sar": t.ashr,
    "idiv": t.sdiv,
    "irem": t.srem,
    "udiv": t.udiv,
    "urem": t.urem,
}
