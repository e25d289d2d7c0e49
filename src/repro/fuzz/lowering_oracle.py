"""Cross-target differential execution oracle (one IR, two ISAs).

Concretely executes a generated LLVM function and its vx86 *and* vriscv
lowerings on the same pseudo-random inputs and demands all three agree:
same exit status, same 32-bit return value, byte-identical final memory
on concrete cells.  Independently of KEQ's symbolic verdicts, this
cross-checks both instruction selectors and both machine semantics
against the LLVM evaluator in one shot — a mis-lowering that slips past
one target's semantics still has to fool the other target *and* the IR
interpreter on the same inputs.

When the LLVM-level run errors (division by zero, out-of-bounds access)
the machine comparison is skipped: per-target error behaviour
legitimately diverges — vx86 traps on division by zero where VRISC-V's
non-trapping division produces the architectural fallback value — and
KEQ's acceptability relation likewise accepts a left error against any
right state (paper §4.6).  Generated shapes keep ``divisions`` off, so
this is a corner case, not the common path.

Everything is deterministic in the seed: the shape, the module, and the
argument vectors all derive from one ``random.Random(seed)``.
"""

from __future__ import annotations

import random

from repro.fuzz.oracles import Violation
from repro.llvm.semantics import LlvmSemantics, entry_state, module_memory
from repro.memory import PointerValue
from repro.semantics.run import run_concrete
from repro.semantics.state import StatusKind
from repro.smt import terms as t
from repro.targets import TARGET_NAMES, get_target
from repro.workloads import FunctionShape, generate_module

#: concrete-step limit per execution; generated loop bounds are small
#: (arguments are drawn below 50), so a real run stays far under this.
STEP_LIMIT = 200_000

#: argument vectors tried per generated function.
TRIALS = 2

#: the statuses a run of a whole generated function may end in (the
#: generated shapes call nothing, so a run never halts at a call).
HALTED = (StatusKind.EXITED, StatusKind.ERROR)


def concretize(memory):
    """Give every object fully concrete initial contents (all executions
    share the same start bytes, mirroring one machine state)."""
    for name, contents in memory.objects:
        size = contents.descriptor.size
        pattern = int.from_bytes(
            bytes((7 * i + 3) % 256 for i in range(size)), "little"
        )
        memory = memory.store(
            PointerValue(name, t.zero(64)), t.bv_const(pattern, size * 8), size
        )
    return memory


def execute_llvm(module, function, argument_values):
    arguments = {
        name: t.bv_const(value, 32)
        for (name, _), value in zip(function.parameters, argument_values)
    }
    memory = concretize(module_memory(module))
    final = run_concrete(
        LlvmSemantics(module),
        entry_state(module, function, arguments=arguments, memory=memory),
        STEP_LIMIT,
    )
    assert final.status in HALTED
    return final


def execute_target(target_name, module, function, argument_values):
    """Lower ``function`` for one target and run the result concretely."""
    target = get_target(target_name)
    machine, _ = target.select_function(module, function, None)
    registers = {
        target.argument_registers[index]: t.bv_const(value, 64)
        for index, value in enumerate(
            argument_values[: len(function.parameters)]
        )
    }
    state = target.machine_entry_state(
        machine, module_memory(module), registers
    )
    state = state.with_memory(concretize(state.memory))
    final = run_concrete(
        target.semantics({machine.name: machine}), state, STEP_LIMIT
    )
    assert final.status in HALTED
    return final


def _mismatch(label, final, reference) -> str | None:
    """Describe how ``final`` disagrees with the LLVM-side ``reference``."""
    if final.status != reference.status:
        return (
            f"{label}: status {final.status} != llvm {reference.status}"
        )
    if reference.status is StatusKind.EXITED and reference.returned is not None:
        expected = reference.returned.value & 0xFFFFFFFF
        got = final.returned.value & 0xFFFFFFFF
        if got != expected:
            return f"{label}: returned {got:#x} != llvm {expected:#x}"
    for name, contents in reference.memory.objects:
        if not final.memory.has_object(name):
            continue
        other = final.memory.object(name)
        for offset in range(contents.descriptor.size):
            left = contents.load_byte(offset)
            right = other.load_byte(offset)
            if left.is_const() and right.is_const():
                if left.value != right.value:
                    return (
                        f"{label}: memory {name}[{offset}]"
                        f" = {right.value} != llvm {left.value}"
                    )
            elif left is not right:
                return f"{label}: memory {name}[{offset}] diverged symbolically"
    return None


def _shape_for(rng: random.Random) -> FunctionShape:
    return FunctionShape(
        parameters=3,
        straight_segments=rng.randint(1, 2),
        ops_per_segment=rng.randint(2, 4),
        diamonds=rng.randint(0, 2),
        loops=rng.randint(0, 1),
        loop_body_ops=rng.randint(1, 3),
        calls=0,
        memory_ops=rng.randint(0, 2),
        allocas=rng.randint(0, 1),
        selects=rng.randint(0, 1),
        casts=rng.randint(0, 1),
    )


def check_cross_target_exec(seed: int) -> Violation | None:
    """One oracle round: generate, lower for every target, co-execute.

    Returns a :class:`Violation` (with the full reproduction recipe in
    ``detail``; there are no term witnesses to shrink) or ``None``.
    """
    rng = random.Random(seed)
    shape = _shape_for(rng)
    module = generate_module([("f", shape, seed)])
    function = module.function("f")
    for _ in range(TRIALS):
        args = [rng.randint(0, 48) for _ in range(shape.parameters)]
        llvm_final = execute_llvm(module, function, args)
        if llvm_final.status is StatusKind.ERROR:
            continue  # per-target error behaviour may legitimately diverge
        for target_name in TARGET_NAMES:
            final = execute_target(target_name, module, function, args)
            detail = _mismatch(target_name, final, llvm_final)
            if detail is not None:
                return Violation(
                    oracle="cross-target-exec",
                    detail=(
                        f"{detail} [reproduce: seed={seed} args={args}]"
                    ),
                    witnesses=(),
                    predicate=lambda witnesses: False,
                )
    return None
