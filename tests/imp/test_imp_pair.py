"""Tests for the IMP / stack-machine pair and KEQ's language-parametricity.

The key claim: the *same* ``Keq`` class, untouched, validates compilations
for a language pair that shares nothing with LLVM or x86.
"""

import pytest

from repro.imp import (
    Assign,
    BinExpr,
    Const,
    If,
    ImpProgram,
    ImpSemantics,
    Return,
    StackInstr,
    StackSemantics,
    Var,
    While,
    compile_program,
    generate_imp_sync_points,
    imp_entry_state,
    stack_entry_state,
)
from repro.imp.stackm import StackProgram, StackVerifyError
from repro.keq import Keq, Verdict
from repro.semantics.run import run_concrete
from repro.semantics.state import StatusKind
from repro.smt import t


def execute(semantics, state, bindings):
    final = run_concrete(semantics, state.bind_many(bindings), max_steps=300)
    assert final.status is StatusKind.EXITED
    return final


def sum_program() -> ImpProgram:
    return ImpProgram(
        name="sum",
        parameters=("n",),
        body=(
            Assign("i", Const(0)),
            Assign("acc", Const(0)),
            While(
                BinExpr("<", Var("i"), Var("n")),
                (
                    Assign("acc", BinExpr("+", Var("acc"), Var("i"))),
                    Assign("i", BinExpr("+", Var("i"), Const(1))),
                ),
                label="main",
            ),
            Return(Var("acc")),
        ),
    )


def abs_program() -> ImpProgram:
    return ImpProgram(
        name="abs",
        parameters=("x",),
        body=(
            If(
                BinExpr("<", Var("x"), Const(0)),
                (Return(BinExpr("-", Const(0), Var("x"))),),
                (Return(Var("x")),),
            ),
        ),
    )


class TestImpSemantics:
    def test_concrete_sum(self):
        program = sum_program()
        semantics = ImpSemantics({"sum": program})
        final = execute(
            semantics, imp_entry_state(program), {"n": t.bv_const(4, 32)}
        )
        assert final.returned.value == 6

    def test_concrete_abs(self):
        program = abs_program()
        semantics = ImpSemantics({"abs": program})
        for value, expected in ((-5, 5), (7, 7)):
            final = execute(
                semantics, imp_entry_state(program), {"x": t.bv_const(value, 32)}
            )
            assert final.returned.value == expected

    def test_loop_headers_recorded(self):
        program = sum_program()
        assert "main" in program.loop_headers


class TestStackMachine:
    def test_compiled_sum_agrees(self):
        program = sum_program()
        compiled = compile_program(program)
        semantics = StackSemantics({"sum": compiled})
        final = execute(
            semantics, stack_entry_state(compiled), {"n": t.bv_const(5, 32)}
        )
        assert final.returned.value == 10

    def test_verifier_computes_depths(self):
        compiled = compile_program(sum_program())
        assert compiled.depth_at("entry", 0) == 0
        # After the first PUSH the depth is 1.
        assert compiled.depth_at("entry", 1) == 1

    def test_verifier_rejects_underflow(self):
        program = StackProgram("bad", (), {"entry": [StackInstr("ADD")]})
        with pytest.raises(StackVerifyError):
            program.verify()

    def test_verifier_rejects_inconsistent_join(self):
        program = StackProgram(
            "bad",
            (),
            {
                "entry": [
                    StackInstr("PUSH", 1),
                    StackInstr("JMPZ", "a"),
                    StackInstr("PUSH", 2),  # depth 1 on this path
                    StackInstr("JMP", "a"),  # ...but 0 on the JMPZ path
                ],
                "a": [StackInstr("PUSH", 0), StackInstr("RET")],
            },
        )
        with pytest.raises(StackVerifyError):
            program.verify()


class TestKeqOnImpPair:
    def validate(self, program: ImpProgram) -> Verdict:
        compiled = compile_program(program)
        points = generate_imp_sync_points(program, compiled)
        keq = Keq(
            ImpSemantics({program.name: program}),
            StackSemantics({program.name: compiled}),
        )
        return keq.check_equivalence(points).verdict

    def test_sum_validates(self):
        assert self.validate(sum_program()) is Verdict.VALIDATED

    def test_abs_validates(self):
        assert self.validate(abs_program()) is Verdict.VALIDATED

    def test_nested_control_flow_validates(self):
        program = ImpProgram(
            name="clamp_sum",
            parameters=("n", "lim"),
            body=(
                Assign("i", Const(0)),
                Assign("acc", Const(0)),
                While(
                    BinExpr("<", Var("i"), Var("n")),
                    (
                        If(
                            BinExpr("<", Var("acc"), Var("lim")),
                            (Assign("acc", BinExpr("+", Var("acc"), Var("i"))),),
                            (Assign("acc", Var("lim")),),
                        ),
                        Assign("i", BinExpr("+", Var("i"), Const(1))),
                    ),
                    label="outer",
                ),
                Return(Var("acc")),
            ),
        )
        assert self.validate(program) is Verdict.VALIDATED

    def test_miscompilation_refuted(self):
        program = ImpProgram(
            "diff", ("a", "b"), (Return(BinExpr("-", Var("a"), Var("b"))),)
        )
        compiled = compile_program(program)
        entry = compiled.blocks["entry"]
        entry[0], entry[1] = entry[1], entry[0]  # swap LOAD a / LOAD b
        points = generate_imp_sync_points(program, compiled)
        keq = Keq(
            ImpSemantics({"diff": program}), StackSemantics({"diff": compiled})
        )
        assert keq.check_equivalence(points).verdict is Verdict.NOT_VALIDATED

    def test_wrong_constant_refuted(self):
        program = ImpProgram(
            "double", ("a",), (Return(BinExpr("*", Var("a"), Const(2))),)
        )
        compiled = compile_program(program)
        # Corrupt the pushed constant.
        entry = compiled.blocks["entry"]
        position = next(
            i for i, instr in enumerate(entry) if instr.op == "PUSH"
        )
        entry[position] = StackInstr("PUSH", 3)
        points = generate_imp_sync_points(program, compiled)
        keq = Keq(
            ImpSemantics({"double": program}),
            StackSemantics({"double": compiled}),
        )
        assert keq.check_equivalence(points).verdict is Verdict.NOT_VALIDATED

    def test_dropped_loop_body_statement_refuted(self):
        program = sum_program()
        compiled = compile_program(program)
        # Drop the accumulator update (first three instructions of body2).
        body = compiled.blocks["body2"]
        del body[0:4]
        compiled.depths.clear()
        compiled.verify()
        points = generate_imp_sync_points(program, compiled)
        keq = Keq(
            ImpSemantics({"sum": program}), StackSemantics({"sum": compiled})
        )
        assert keq.check_equivalence(points).verdict is Verdict.NOT_VALIDATED
