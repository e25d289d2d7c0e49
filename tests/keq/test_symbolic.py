"""Tests for KEQ proper (the symbolic Algorithm 1) on the LLVM/x86 pair."""

import time

import pytest

from repro.isel import BugMode, IselOptions, select_function
from repro.keq import (
    EqConstraint,
    Expr,
    FailureReason,
    Keq,
    KeqOptions,
    StateSpec,
    SyncPoint,
    Verdict,
    default_acceptability,
)
from repro.keq.acceptability import strict_acceptability
from repro.llvm import parse_module
from repro.llvm.semantics import LlvmSemantics
from repro.regalloc import generate_regalloc_sync_points
from repro.semantics.state import Location
from repro.vcgen import generate_sync_points
from repro.vx86 import parse_machine_function
from repro.vx86.semantics import Vx86Semantics

ARITH_SEQ_SUM = """
define i32 @arithm_seq_sum(i32 %a0, i32 %d, i32 %n) {
entry:
  br label %for.cond
for.cond:
  %s.0 = phi i32 [ %a0, %entry ], [ %add1, %for.inc ]
  %a.0 = phi i32 [ %a0, %entry ], [ %add, %for.inc ]
  %i.0 = phi i32 [ 1, %entry ], [ %inc, %for.inc ]
  %cmp = icmp ult i32 %i.0, %n
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %add = add i32 %a.0, %d
  %add1 = add i32 %s.0, %add
  br label %for.inc
for.inc:
  %inc = add i32 %i.0, 1
  br label %for.cond
for.end:
  ret i32 %s.0
}
"""


def keq_for(module, machine, **options):
    return Keq(
        LlvmSemantics(module),
        Vx86Semantics({machine.name: machine}),
        default_acceptability(),
        KeqOptions(**options) if options else None,
    )


def validate_source(source, name=None, isel_options=None, **keq_options):
    module = parse_module(source)
    function = (
        module.function(name) if name else next(iter(module.functions.values()))
    )
    machine, hints = select_function(module, function, isel_options)
    points = generate_sync_points(module, function, machine, hints)
    keq = keq_for(module, machine, **keq_options)
    return keq.check_equivalence(points)


class TestRunningExample:
    def test_paper_figure_2_validates(self):
        report = validate_source(ARITH_SEQ_SUM)
        assert report.verdict is Verdict.VALIDATED

    def test_statistics_populated(self):
        report = validate_source(ARITH_SEQ_SUM)
        assert report.stats.points_checked == 3  # entry + 2 loop-edge points
        assert report.stats.pairs_matched >= 3
        assert report.stats.solver_queries > 0

    def test_simulation_mode_also_validates(self):
        report = validate_source(ARITH_SEQ_SUM, mode="simulation")
        assert report.verdict is Verdict.VALIDATED

    def test_negative_form_also_validates(self):
        report = validate_source(ARITH_SEQ_SUM, use_positive_form=False)
        assert report.verdict is Verdict.VALIDATED


class TestTamperedTranslations:
    """Hand-corrupted machine code must be refuted."""

    def lower(self):
        module = parse_module(ARITH_SEQ_SUM)
        function = module.function("arithm_seq_sum")
        machine, hints = select_function(module, function)
        points = generate_sync_points(module, function, machine, hints)
        return module, machine, points

    def test_wrong_opcode_refuted(self):
        module, machine, points = self.lower()
        for block in machine.blocks.values():
            for index, instruction in enumerate(block.instructions):
                if instruction.opcode == "add":
                    block.instructions[index] = type(instruction)(
                        "sub", instruction.operands, instruction.result
                    )
                    break
        report = keq_for(module, machine).check_equivalence(points)
        assert report.verdict is Verdict.NOT_VALIDATED

    def test_wrong_branch_condition_refuted(self):
        module, machine, points = self.lower()
        for block in machine.blocks.values():
            for index, instruction in enumerate(block.instructions):
                if instruction.opcode == "jb":
                    block.instructions[index] = type(instruction)(
                        "jae", instruction.operands, instruction.result
                    )
        report = keq_for(module, machine).check_equivalence(points)
        assert report.verdict is Verdict.NOT_VALIDATED

    def test_wrong_constant_refuted(self):
        module, machine, points = self.lower()
        from repro.vx86.insns import Imm, MInstr

        for block in machine.blocks.values():
            for index, instruction in enumerate(block.instructions):
                if instruction.opcode == "mov":
                    block.instructions[index] = MInstr(
                        "mov", (Imm(2, 32),), instruction.result
                    )
        report = keq_for(module, machine).check_equivalence(points)
        assert report.verdict is Verdict.NOT_VALIDATED

    def test_missing_loop_point_refuted(self):
        """Dropping a loop point breaks the cut: KEQ must not validate
        (the paper: exit/loophead coverage need not be trusted)."""
        module, machine, points = self.lower()
        pruned = [p for p in points if p.kind != "loop"]
        report = keq_for(module, machine).check_equivalence(pruned)
        assert report.verdict in (Verdict.NOT_VALIDATED, Verdict.TIMEOUT)


class TestPaperBugs:
    WAW = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""
    I96 = """
@a = external global i96, align 4
@b = external global i64, align 8
define void @foo() {
entry:
  %srcval = load i96, i96* @a, align 4
  %tmp96 = lshr i96 %srcval, 64
  %tmp64 = trunc i96 %tmp96 to i64
  store i64 %tmp64, i64* @b, align 8
  ret void
}
"""

    def test_waw_plain_validates(self):
        assert validate_source(self.WAW).verdict is Verdict.VALIDATED

    def test_waw_correct_merge_validates(self):
        report = validate_source(
            self.WAW, isel_options=IselOptions(merge_stores=True)
        )
        assert report.verdict is Verdict.VALIDATED

    def test_waw_bug_refuted_via_memory_mismatch(self):
        report = validate_source(
            self.WAW, isel_options=IselOptions(bug=BugMode.WAW_STORE_MERGE)
        )
        assert report.verdict is Verdict.NOT_VALIDATED
        assert any(
            f.reason is FailureReason.MEMORY for f in report.failures
        )

    def test_narrowing_correct_validates(self):
        report = validate_source(
            self.I96, isel_options=IselOptions(narrow_loads=True)
        )
        assert report.verdict is Verdict.VALIDATED

    def test_narrowing_bug_refuted_via_unmatched_error(self):
        report = validate_source(
            self.I96, isel_options=IselOptions(bug=BugMode.LOAD_NARROWING)
        )
        assert report.verdict is Verdict.NOT_VALIDATED
        # The x86 side branches into an out-of-bounds error state that no
        # LLVM state matches (paper Section 5.2: not even refinement).
        assert any("out_of_bounds" in f.detail for f in report.failures)


class TestUndefinedBehaviourPolicy:
    DIV = """
define i32 @f(i32 %x, i32 %y) {
entry:
  %q = udiv i32 %x, %y
  ret i32 %q
}
"""

    def test_matching_error_states_validate(self):
        assert validate_source(self.DIV).verdict is Verdict.VALIDATED

    def test_strict_acceptability_requires_exact_match(self):
        """With the default policy the LLVM error licenses anything; the
        x86 division errors the same way, so even strict mode passes."""
        module = parse_module(self.DIV)
        function = module.function("f")
        machine, hints = select_function(module, function)
        points = generate_sync_points(module, function, machine, hints)
        keq = Keq(
            LlvmSemantics(module),
            Vx86Semantics({machine.name: machine}),
            strict_acceptability(),
        )
        assert keq.check_equivalence(points).verdict is Verdict.VALIDATED


class TestBudgets:
    def test_step_budget_produces_timeout(self):
        report = validate_source(ARITH_SEQ_SUM, max_steps=3)
        assert report.verdict is Verdict.TIMEOUT

    def test_generous_budget_validates(self):
        report = validate_source(ARITH_SEQ_SUM, max_steps=100000)
        assert report.verdict is Verdict.VALIDATED

    def test_wall_budget_produces_timeout(self):
        """The paper's actual limit was wall-clock (3 h per function)."""
        report = validate_source(ARITH_SEQ_SUM, wall_budget_seconds=1e-9)
        assert report.verdict is Verdict.TIMEOUT

    def test_pair_budget_produces_timeout(self):
        report = validate_source(ARITH_SEQ_SUM, max_pair_checks=0)
        assert report.verdict is Verdict.TIMEOUT

    #: x·(y + 3) and x·y + x·3 on 32 bits: an equal pair of return values
    #: whose proof is a nonlinear multiplier miter, far beyond one second
    #: of CDCL search.
    FACTORED = """
f:
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = COPY esi
  %vr2_32 = add %vr1_32, 3
  %vr3_32 = imul %vr0_32, %vr2_32
  eax = COPY %vr3_32
  ret
"""
    EXPANDED = """
f:
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = COPY esi
  %vr2_32 = imul %vr0_32, %vr1_32
  %vr4_32 = imul %vr0_32, 3
  %vr3_32 = add %vr2_32, %vr4_32
  eax = COPY %vr3_32
  ret
"""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_wall_budget_stops_a_running_sat_search(self, incremental):
        """The deadline reaches the CDCL search: the check ends as a
        wall-clock timeout shortly after the budget, not when the conflict
        budget runs out."""
        left = parse_machine_function(self.FACTORED)
        right = parse_machine_function(self.EXPANDED)
        keq = Keq(
            Vx86Semantics({"f": left}),
            Vx86Semantics({"f": right}),
            default_acceptability(),
            # The conflict budget is far beyond what half a second of
            # search reaches; it only stops a search that ignores the
            # deadline from running for minutes.
            KeqOptions(
                wall_budget_seconds=0.5,
                solver_conflict_budget=5_000,
                incremental_solving=incremental,
            ),
        )
        started = time.perf_counter()
        report = keq.check_equivalence(generate_regalloc_sync_points(left, right))
        assert time.perf_counter() - started < 1.5
        assert report.verdict is Verdict.TIMEOUT
        assert [(f.reason, f.detail) for f in report.failures] == [
            (FailureReason.STEP_BUDGET, "wall clock")
        ]
        stats = keq.solver.stats
        assert (stats.sat_calls, stats.unknowns) == (1, 1)


class TestSolverOptions:
    def test_only_function_scoped_sessions(self):
        import dataclasses

        assert KeqOptions(session_scope="function").session_scope == "function"
        for scope in ("point", "campaign"):
            with pytest.raises(ValueError, match="session_scope"):
                KeqOptions(session_scope=scope)
            with pytest.raises(ValueError, match="session_scope"):
                dataclasses.replace(KeqOptions(), session_scope=scope)
