"""Symbolic operational semantics for Virtual RISC-V.

The register file, memory accesses, PHIs, moves, jumps, calls and ``ret``
are the shared machine-IR core (:mod:`repro.mir.semantics`): physical
registers live under their ABI names (``a0`` ... ``t6``), and narrow
views zero-extend into the full 64-bit register on write and truncate on
read.  What is RISC-V's own:

- ``zero`` (x0) is hardwired: reads yield 0, writes are discarded and
  never enter the environment, not even at entry;
- there is no flags register — conditional control flow is fused
  compare-and-branch, and comparisons materialize through
  ``slt``/``sltu``/``seqz``/``snez``; ``sel`` selects on a register;
- division follows the RISC-V integer spec and never traps: dividing by
  zero yields the all-ones quotient (and the dividend as remainder), and
  ``INT_MIN / -1`` wraps — both in a single successor state, which the
  equivalence check accepts because the LLVM side's division errors are
  handled by the acceptability relation (paper Section 4.6).  Loads and
  stores are the core's, so they fork the out-of-bounds error state.
"""

from __future__ import annotations

from repro.memory import Memory
from repro.mir import semantics
from repro.mir.semantics import MachineSemantics, MachineSemanticsError, Step
from repro.semantics.state import ProgramState, Value
from repro.smt import terms as t
from repro.smt.terms import Term
from repro.vriscv import insns
from repro.vriscv.insns import (
    MachineFunction,
    MInstr,
    RETURN_REGISTER,
    VReg,
    XReg,
    ZERO_REGISTER,
)

__all__ = ["MachineSemanticsError", "VRiscvSemantics", "machine_entry_state"]


def machine_entry_state(
    function: MachineFunction,
    memory: Memory,
    register_values: dict[str, Value] | None = None,
) -> ProgramState:
    """Initial state at the machine function's entry.

    ``register_values`` maps ABI register names to initial values; a value
    for ``zero`` is dropped (see :func:`repro.mir.semantics.machine_entry_state`).
    """
    registers = dict(register_values or {})
    registers.pop(ZERO_REGISTER, None)
    return semantics.machine_entry_state(function, memory, registers)


class VRiscvSemantics(MachineSemantics):
    """The Virtual RISC-V language definition consumed by KEQ."""

    language_name = "vriscv"

    MOV = "li"
    LEA = "la"
    JMP = "j"
    ZEXT = "zext"
    SEXT = "sext"
    RETURN_REGISTER = RETURN_REGISTER

    def _isa_steps(self) -> dict[str, Step]:
        return {
            **dict.fromkeys(insns.ALU_OPS, self._step_alu),
            **dict.fromkeys(insns.COMPARE_OPS, self._step_compare),
            "seqz": self._step_zero_test,
            "snez": self._step_zero_test,
            "sel": self._step_sel,
            **dict.fromkeys(insns.BRANCH_OPS, self._step_branch),
        }

    # -- register file ------------------------------------------------------------

    def read_reg(self, state: ProgramState, reg: VReg | XReg) -> Value:
        if isinstance(reg, XReg) and reg.name == ZERO_REGISTER:
            return t.zero(reg.width)
        return super().read_reg(state, reg)

    def write_reg(
        self, state: ProgramState, reg: VReg | XReg, value: Value
    ) -> ProgramState:
        if isinstance(reg, XReg) and reg.name == ZERO_REGISTER:
            return state  # x0 is hardwired to zero: the write is discarded.
        return super().write_reg(state, reg, value)

    # -- branch conditions ---------------------------------------------------------

    def _branch_condition(self, state: ProgramState, instr: MInstr) -> Term:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        opcode = instr.opcode
        if opcode == "beq":
            return t.eq(lhs, rhs)
        if opcode == "bne":
            return t.not_(t.eq(lhs, rhs))
        if opcode == "blt":
            return t.slt(lhs, rhs)
        if opcode == "bge":
            return t.not_(t.slt(lhs, rhs))
        if opcode == "bltu":
            return t.ult(lhs, rhs)
        if opcode == "bgeu":
            return t.not_(t.ult(lhs, rhs))
        raise MachineSemanticsError(f"unknown branch {opcode!r}")

    # -- stepping -------------------------------------------------------------------

    def _step_branch(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        condition = self._branch_condition(state, instr)
        return self._branch(state, condition, instr.operands[2])

    def _step_compare(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        compare = t.slt if instr.opcode == "slt" else t.ult
        value = t.bool_to_bv(compare(lhs, rhs), dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_zero_test(
        self, state: ProgramState, instr: MInstr
    ) -> list[ProgramState]:
        source = self._operand_term(state, instr.operands[0])
        dest = instr.result
        assert dest is not None
        is_zero = t.eq(source, t.zero(source.width))
        condition = is_zero if instr.opcode == "seqz" else t.not_(is_zero)
        value = t.bool_to_bv(condition, dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_sel(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        cond = self._operand_term(state, instr.operands[0])
        condition = t.not_(t.eq(cond, t.zero(cond.width)))
        taken = self._operand_value(state, instr.operands[1])
        not_taken = self._operand_value(state, instr.operands[2])
        dest = instr.result
        assert dest is not None
        return self._select(state, dest, condition, taken, not_taken)

    def _step_alu(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        opcode = instr.opcode
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        width = dest.width
        if opcode in ("sll", "srl", "sra"):
            # RISC-V masks the shift amount to the register width; the LLVM
            # side treats oversized shifts as an error branch, which refines
            # this total behaviour.
            rhs = t.bvand(rhs, t.bv_const(width - 1, width))
        result = _ALU_BUILDERS[opcode](lhs, rhs)
        if opcode in ("div", "rem", "divu", "remu"):
            # RISC-V division never traps: x/0 is all ones, x%0 is x, and
            # INT_MIN/-1 wraps (which SMT-LIB bvsdiv/bvsrem already do).
            zero_divisor = t.eq(rhs, t.zero(width))
            fallback = t.ones(width) if opcode in ("div", "divu") else lhs
            result = t.ite(zero_divisor, fallback, result)
        return [self.write_reg(state, dest, result).advanced()]


_ALU_BUILDERS = {
    "add": t.add,
    "sub": t.sub,
    "mul": t.mul,
    "and": t.bvand,
    "or": t.bvor,
    "xor": t.bvxor,
    "sll": t.shl,
    "srl": t.lshr,
    "sra": t.ashr,
    "div": t.sdiv,
    "rem": t.srem,
    "divu": t.udiv,
    "remu": t.urem,
}
