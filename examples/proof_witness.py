"""Machine-checkable equivalence proofs.

The paper's TV-system component list includes "a proof system that ...
generates a machine-checkable equivalence proof, and checks the proof for
correctness".  This example turns on proof recording, validates a
function, prints the witness, re-checks it with an independent checker,
then tampers with one obligation to show the checker catching it.

Run:  python examples/proof_witness.py
"""

from repro.isel import select_function
from repro.keq import Keq, KeqOptions, default_acceptability
from repro.keq.proof import Obligation, ProofChecker
from repro.llvm import parse_module
from repro.llvm.semantics import LlvmSemantics
from repro.smt import t
from repro.vcgen import generate_sync_points
from repro.vx86.semantics import Vx86Semantics

SOURCE = """
define i32 @dot3(i32 %a1, i32 %a2, i32 %b1, i32 %b2) {
entry:
  %m1 = mul i32 %a1, %b1
  %m2 = mul i32 %a2, %b2
  %s = add i32 %m1, %m2
  %c = icmp slt i32 %s, 0
  %r = select i1 %c, i32 0, i32 %s
  ret i32 %r
}
"""


def main() -> None:
    module = parse_module(SOURCE)
    function = module.function("dot3")
    machine, hints = select_function(module, function)
    points = generate_sync_points(module, function, machine, hints)
    keq = Keq(
        LlvmSemantics(module),
        Vx86Semantics({machine.name: machine}),
        default_acceptability(),
        KeqOptions(record_proof=True),
    )
    report = keq.check_equivalence(points)
    assert report.ok
    proof = report.proof
    print(proof.render())

    print()
    print("Independent re-check:")
    outcome = ProofChecker().check(proof)
    print(f"  ok={outcome.ok}, obligations re-checked:"
          f" {outcome.obligations_checked}")
    assert outcome.ok

    print()
    print("Tampering with the proof (injecting a satisfiable claim):")
    proof.obligations.append(
        Obligation(
            kind="constraint",
            source_point="p_entry",
            target_point="p_exit",
            claim_unsat=t.eq(t.bv_var("x", 8), t.bv_const(1, 8)),
        )
    )
    outcome = ProofChecker().check(proof)
    print(f"  ok={outcome.ok}")
    for failure in outcome.failures:
        print(f"  {failure[:100]}")
    assert not outcome.ok


if __name__ == "__main__":
    main()
