"""The target-ISA registry.

KEQ itself is language-parametric — it is coupled to a target only
through the :mod:`repro.semantics.interface` contract — but the
translation-validation *pipeline* around it needs to know, per target,
how to run instruction selection, how to build the machine semantics,
and which registers carry arguments and return values (for sync-point
generation).  This module is the single place that knowledge lives:
everything above it (driver, batch, campaign, service, CLI) carries an
opaque target *name* and resolves it here.

Adding a target means adding one :func:`get_target` branch; nothing in
``repro.keq`` changes — that is the paper's parametricity claim, and a
tier-1 test enforces it by asserting no target symbols leak into the
KEQ module namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

#: Names accepted by every ``--target`` flag, default first.
TARGET_NAMES = ("vx86", "vriscv")

DEFAULT_TARGET = "vx86"


@dataclass(frozen=True)
class Target:
    """Everything the TV pipeline needs to know about one target ISA."""

    name: str
    #: calling convention, consumed by the sync-point generator.
    argument_registers: tuple[str, ...]
    return_register: str
    #: ``(module, function, IselOptions) -> (MachineFunction, IselHints)``
    select_function: Callable = field(repr=False)
    #: ``{name: MachineFunction} -> Semantics`` (the KEQ right side).
    semantics: Callable = field(repr=False)
    #: ``(MachineFunction, Memory, register_values) -> ProgramState``
    machine_entry_state: Callable = field(repr=False)
    #: ``() -> Acceptability`` — the 𝒜 instance KEQ is parameterized
    #: with (see :mod:`repro.targets.acceptability`): trapping targets
    #: use the default policy, non-trapping ones the variant whose
    #: error-pair rule covers right-side continuation of left UB.
    acceptability: Callable = field(repr=False)


@lru_cache(maxsize=None)
def get_target(name: str) -> Target:
    """Resolve a target name; raises ``ValueError`` for unknown names."""
    if name == "vx86":
        from repro.isel.lowering import select_function
        from repro.targets.acceptability import default_acceptability
        from repro.vx86.insns import ARGUMENT_REGISTERS, RETURN_REGISTER
        from repro.vx86.semantics import Vx86Semantics, machine_entry_state

        return Target(
            name="vx86",
            argument_registers=ARGUMENT_REGISTERS,
            return_register=RETURN_REGISTER,
            select_function=select_function,
            semantics=Vx86Semantics,
            machine_entry_state=machine_entry_state,
            acceptability=default_acceptability,
        )
    if name == "vriscv":
        from repro.isel.riscv import select_function
        from repro.targets.acceptability import nontrapping_acceptability
        from repro.vriscv.insns import ARGUMENT_REGISTERS, RETURN_REGISTER
        from repro.vriscv.semantics import VRiscvSemantics, machine_entry_state

        return Target(
            name="vriscv",
            argument_registers=ARGUMENT_REGISTERS,
            return_register=RETURN_REGISTER,
            select_function=select_function,
            semantics=VRiscvSemantics,
            machine_entry_state=machine_entry_state,
            acceptability=nontrapping_acceptability,
        )
    raise ValueError(f"unknown target {name!r}; expected one of {TARGET_NAMES}")
