"""Tests for machine-checkable equivalence proofs (the paper's third TV
component: generate a proof, then check it independently)."""

import dataclasses

import pytest

from repro.isel import select_function
from repro.keq import Keq, KeqOptions, Verdict, default_acceptability
from repro.keq.proof import EquivalenceProof, Obligation, ProofChecker
from repro.llvm import parse_module
from repro.llvm.semantics import LlvmSemantics
from repro.smt import t
from repro.vcgen import generate_sync_points
from repro.vx86.semantics import Vx86Semantics

LOOP = """
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %acc2 = add i32 %acc, %i
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %acc
}
"""


def report_with_proof(source):
    module = parse_module(source)
    function = next(iter(module.functions.values()))
    machine, hints = select_function(module, function)
    points = generate_sync_points(module, function, machine, hints)
    keq = Keq(
        LlvmSemantics(module),
        Vx86Semantics({machine.name: machine}),
        default_acceptability(),
        KeqOptions(record_proof=True),
    )
    return keq.check_equivalence(points)


class TestProofGeneration:
    def test_validated_run_produces_proof(self):
        report = report_with_proof(LOOP)
        assert report.verdict is Verdict.VALIDATED
        proof = report.proof
        assert proof is not None
        assert proof.matched_pairs
        assert proof.obligations

    def test_proof_covers_every_executable_point(self):
        proof = report_with_proof(LOOP).proof
        covered = {p.source_point for p in proof.matched_pairs}
        assert set(proof.executable_points) <= covered

    def test_no_proof_without_option(self):
        module = parse_module(LOOP)
        function = module.function("sum")
        machine, hints = select_function(module, function)
        points = generate_sync_points(module, function, machine, hints)
        keq = Keq(LlvmSemantics(module), Vx86Semantics({machine.name: machine}))
        assert keq.check_equivalence(points).proof is None

    def test_failed_run_produces_no_proof(self):
        module = parse_module(LOOP)
        function = module.function("sum")
        machine, hints = select_function(module, function)
        # Corrupt the machine code.
        for block in machine.blocks.values():
            for index, instruction in enumerate(block.instructions):
                if instruction.opcode == "add":
                    block.instructions[index] = dataclasses.replace(
                        instruction, opcode="sub"
                    )
        points = generate_sync_points(module, function, machine, hints)
        keq = Keq(
            LlvmSemantics(module),
            Vx86Semantics({machine.name: machine}),
            default_acceptability(),
            KeqOptions(record_proof=True),
        )
        report = keq.check_equivalence(points)
        assert report.verdict is Verdict.NOT_VALIDATED
        assert report.proof is None

    def test_proof_renders(self):
        text = report_with_proof(LOOP).proof.render()
        assert "equivalence proof" in text
        assert "obligations" in text


class TestProofChecking:
    def test_valid_proof_rechecks(self):
        proof = report_with_proof(LOOP).proof
        outcome = ProofChecker().check(proof)
        assert outcome.ok, outcome.failures
        assert outcome.obligations_checked == len(proof.obligations)

    def test_tampered_obligation_rejected(self):
        proof = report_with_proof(LOOP).proof
        x = t.bv_var("tamper", 8)
        bogus = Obligation(
            kind="constraint",
            source_point=proof.executable_points[0],
            target_point="p_exit",
            claim_unsat=t.eq(x, t.bv_const(1, 8)),  # satisfiable!
        )
        proof.obligations.append(bogus)
        outcome = ProofChecker().check(proof)
        assert not outcome.ok
        assert any("failed re-check" in f for f in outcome.failures)

    def test_missing_point_evidence_rejected(self):
        proof = EquivalenceProof(
            left_program="f",
            right_program="f",
            point_names=["p_entry"],
            executable_points=["p_entry"],
        )
        outcome = ProofChecker().check(proof)
        assert not outcome.ok
        assert any("no recorded evidence" in f for f in outcome.failures)

    def test_empty_proof_of_pointless_program_ok(self):
        proof = EquivalenceProof(
            left_program="f", right_program="f", point_names=[], executable_points=[]
        )
        assert ProofChecker().check(proof).ok
