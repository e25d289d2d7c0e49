"""Synchronization point generation for Instruction Selection (paper §4.5).

Implements the paper's strategy:

- **function entry / exit** — constraints from the SysV calling convention
  (arguments in ``rdi``/``rsi``/``rdx``/``rcx``/``r8``/``r9`` sub-registers,
  return value in ``rax``);
- **loop entries** — one point per (loop header, predecessor) pair, as the
  paper does "to expedite the symbolic execution of the phi instructions";
  constraints relate the live registers across the edge, using the
  compiler-generated register-correspondence hint and liveness analysis;
- **call sites** — a covering (non-executable) point *before* each call,
  relating callee and arguments, and an executable *resume* point after
  it, relating the live registers and the return values;
- every point carries the whole-memory equality clause (the common memory
  model makes it a single structural constraint).

``imprecise_liveness=True`` reproduces the paper's "inadequate
synchronization points" failure category (16 functions in the GCC run).

``parser_memory_budget`` reproduces the paper's out-of-memory category
(the K parser giving up on an oversized specification).  Every point is
first drafted with the number of constraints it will carry; when the
drafted spec is over the budget, generation stops with
:class:`SpecOverBudget` before a single constraint is built.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.analysis import LlvmGraph, MachineGraph, liveness, natural_loops
from repro.isel.hints import IselHints
from repro.keq.syncpoints import (
    EqConstraint,
    Expr,
    StateSpec,
    SyncPoint,
    SyncPointSet,
    point_spec_size,
)
from repro.llvm import ir
from repro.llvm.typing import value_types
from repro.llvm.types import VoidType, bit_width, sizeof
from repro.memory import MemoryObject
from repro.mir import MachineFunction
from repro.semantics.state import Location
from repro.targets import DEFAULT_TARGET, get_target

#: Canonical argument-register names at a given bit width do not change —
#: the canonical full-width name is the environment key; the constraint
#: width selects the sub-register view.  Which names carry arguments and
#: the return value is the target's calling convention, resolved through
#: the target registry.


class VcGenError(Exception):
    pass


class SpecOverBudget(Exception):
    """The spec is larger than the parser memory budget.

    ``size`` and ``points`` are exactly what :meth:`SyncPointSet.spec_size`
    and ``len()`` of the spec would be; the spec itself is never built.
    """

    def __init__(self, size: int, points: int, budget: int):
        super().__init__(f"sync point spec size {size} > {budget}")
        self.size = size
        self.points = points


class _Draft(NamedTuple):
    """One sync point before its constraints exist."""

    constraints: int  # how many it will carry
    build: Callable[[], SyncPoint]


def generate_sync_points(
    module: ir.Module,
    function: ir.Function,
    machine: MachineFunction,
    hints: IselHints,
    imprecise_liveness: bool = False,
    loop_point_style: str = "per-predecessor",
    target: str = DEFAULT_TARGET,
    parser_memory_budget: int | None = None,
) -> SyncPointSet:
    """Generate the VC for one ISel instance.

    ``loop_point_style`` selects the loop-entry strategy: the paper's
    ``"per-predecessor"`` (one point per in-edge, constraints over the
    incoming values — "to expedite the symbolic execution of the phi
    instructions"), or ``"post-phi"`` (a single point per header placed
    *after* the phi group, constraints over the phi results) — the
    alternative the per-experiment ablation compares against.

    ``target`` names the machine's ISA; only the calling convention
    (argument/return registers) is consulted here — everything else is
    already expressed in the target-independent machine IR.

    Raises :class:`SpecOverBudget` instead of building a spec whose size
    exceeds ``parser_memory_budget`` (``None``: no budget), and
    :class:`VcGenError` for a function it cannot relate, which takes
    precedence over the size.
    """
    generator = _Generator(
        module, function, machine, hints, imprecise_liveness, loop_point_style,
        target=target,
    )
    return generator.run(parser_memory_budget)


class _Generator:
    def __init__(
        self,
        module: ir.Module,
        function: ir.Function,
        machine: MachineFunction,
        hints: IselHints,
        imprecise_liveness: bool,
        loop_point_style: str = "per-predecessor",
        target: str = DEFAULT_TARGET,
    ):
        self.loop_point_style = loop_point_style
        self.target = get_target(target)
        self.module = module
        self.function = function
        self.machine = machine
        self.hints = hints
        self.llvm_graph = LlvmGraph(function)
        self.machine_graph = MachineGraph(machine)
        self.machine_live = liveness(self.machine_graph, imprecise=imprecise_liveness)
        self.types = value_types(function)
        self.vreg_to_name = {
            reg.key: name for name, reg in hints.reg_map.items()
        }
        self.memory_objects = self._memory_template()

    def _memory_template(self) -> tuple[MemoryObject, ...]:
        objects = [
            MemoryObject(variable.name, sizeof(variable.type), kind="global")
            for variable in self.module.globals.values()
        ]
        objects += [
            MemoryObject(name, size, kind="stack")
            for name, size in self.machine.frame_objects.items()
        ]
        return tuple(objects)

    # -- driver -------------------------------------------------------------------

    def run(self, parser_memory_budget: int | None) -> SyncPointSet:
        drafts = [
            self._entry_point(),
            self._exit_point(),
            *self._loop_points(),
            *self._call_points(),
        ]
        if parser_memory_budget is not None:
            size = sum(point_spec_size(draft.constraints) for draft in drafts)
            if size > parser_memory_budget:
                raise SpecOverBudget(size, len(drafts), parser_memory_budget)
        return SyncPointSet([draft.build() for draft in drafts])

    # -- entry / exit -------------------------------------------------------------

    def _entry_point(self) -> _Draft:
        parameters = self.function.parameters

        def build() -> SyncPoint:
            constraints = []
            for index, (name, type_) in enumerate(parameters):
                width = bit_width(type_)
                constraints.append(
                    EqConstraint(
                        Expr.env(name, width),
                        Expr.env(self.target.argument_registers[index], min(width, 64)),
                        junk_upper="right" if width < 64 else None,
                    )
                )
            return SyncPoint(
                name="p_entry",
                kind="entry",
                left=StateSpec.at(
                    Location(self.function.name, self.function.entry_block.name, 0)
                ),
                right=StateSpec.at(
                    Location(self.machine.name, self.machine.entry_block.name, 0)
                ),
                constraints=tuple(constraints),
                memory_objects=self.memory_objects,
            )

        return _Draft(len(parameters), build)

    def _exit_point(self) -> _Draft:
        return_type = self.function.return_type
        returns = not isinstance(return_type, VoidType)

        def build() -> SyncPoint:
            constraints = []
            if returns:
                width = bit_width(return_type)
                constraints.append(
                    EqConstraint(Expr.ret(width), Expr.ret(width))
                )
            return SyncPoint(
                name="p_exit",
                kind="exit",
                left=StateSpec.exit(),
                right=StateSpec.exit(),
                constraints=tuple(constraints),
                memory_objects=self.memory_objects,
                executable=False,
            )

        return _Draft(int(returns), build)

    # -- loop entries -------------------------------------------------------------

    def _loop_points(self) -> list[_Draft]:
        points = []
        predecessors = self.llvm_graph.predecessors()
        for loop in natural_loops(self.llvm_graph):
            header = loop.header
            if self.loop_point_style == "post-phi":
                points.append(self._post_phi_point(header))
                continue
            for predecessor in predecessors[header]:
                points.append(self._edge_point(predecessor, header))
        return points

    def _post_phi_point(self, header: str) -> _Draft:
        """A single loop point per header, placed after the phi group."""
        machine_header = self.hints.machine_block(header)
        llvm_phis = len(self.function.block(header).phis())
        machine_phis = len(self.machine.block(machine_header).phis())
        related = self._related(self._machine_live_at(machine_header, machine_phis))

        def build() -> SyncPoint:
            return SyncPoint(
                name=f"p_loop_{header}_postphi",
                kind="loop",
                left=StateSpec.at(Location(self.function.name, header, llvm_phis)),
                right=StateSpec.at(
                    Location(self.machine.name, machine_header, machine_phis)
                ),
                constraints=tuple(self._live_constraints(related)),
                memory_objects=self.memory_objects,
            )

        return _Draft(len(related), build)

    def _edge_point(self, predecessor: str, header: str) -> _Draft:
        machine_header = self.hints.machine_block(header)
        machine_predecessor = self.hints.machine_block(predecessor)
        related = self._related(
            self.machine_live.edge_live(machine_predecessor, machine_header)
        )

        def build() -> SyncPoint:
            return SyncPoint(
                name=f"p_loop_{header}_from_{predecessor}",
                kind="loop",
                left=StateSpec.at(
                    Location(self.function.name, header, 0), prev_block=predecessor
                ),
                right=StateSpec.at(
                    Location(self.machine.name, machine_header, 0),
                    prev_block=machine_predecessor,
                ),
                constraints=tuple(self._live_constraints(related)),
                memory_objects=self.memory_objects,
            )

        return _Draft(len(related), build)

    def _related(self, machine_live: set[str]) -> list[str]:
        """The live machine registers a point constrains, in order: those
        with an LLVM counterpart or a known constant value.

        Machine registers with neither (possible under the imprecise
        liveness mode) are left unconstrained — KEQ will then fail with an
        unbound name, the paper's "inadequate synchronization points"."""
        const_regs = self.hints.const_regs
        return sorted(
            key
            for key in machine_live
            if key in self.vreg_to_name or key in const_regs
        )

    def _live_constraints(self, related: list[str]) -> list[EqConstraint]:
        """Relate each register of :meth:`_related` to its LLVM
        counterpart, or else to its constant value."""
        constraints = []
        for key in related:
            width = _key_width(key)
            name = self.vreg_to_name.get(key)
            if name is not None:
                llvm_width = bit_width(self.types[name])
                constraints.append(
                    EqConstraint(
                        Expr.env(name, llvm_width),
                        Expr.env(key, width),
                        pointer_object=self.hints.pointer_objects.get(name),
                    )
                )
            else:
                constraints.append(
                    EqConstraint(
                        Expr.lit(self.hints.const_regs[key], width),
                        Expr.env(key, width),
                    )
                )
        return constraints

    # -- call sites ------------------------------------------------------------------

    def _call_points(self) -> list[_Draft]:
        points = []
        for block in self.function.blocks.values():
            llvm_calls = [
                (index, instruction)
                for index, instruction in enumerate(block.instructions)
                if isinstance(instruction, ir.Call)
            ]
            if not llvm_calls:
                continue
            machine_block = self.machine.block(self.hints.machine_block(block.name))
            machine_calls = [
                index
                for index, instruction in enumerate(machine_block.instructions)
                if instruction.opcode == "call"
            ]
            if len(machine_calls) != len(llvm_calls):
                raise VcGenError(
                    f"call count mismatch in block {block.name}: "
                    f"{len(llvm_calls)} vs {len(machine_calls)}"
                )
            for (llvm_index, call), machine_index in zip(llvm_calls, machine_calls):
                points.append(
                    self._pre_call_point(block, llvm_index, call, machine_block.name, machine_index)
                )
                points.append(
                    self._resume_point(block, llvm_index, call, machine_block.name, machine_index)
                )
        return points

    def _pre_call_point(
        self,
        block: ir.Block,
        llvm_index: int,
        call: ir.Call,
        machine_block: str,
        machine_index: int,
    ) -> _Draft:
        def build() -> SyncPoint:
            constraints = []
            for position, (type_, _) in enumerate(call.arguments):
                width = bit_width(type_)
                constraints.append(
                    EqConstraint(Expr.arg(position, width), Expr.arg(position, width))
                )
            return SyncPoint(
                name=f"p_call_{block.name}_{llvm_index}",
                kind="call",
                left=StateSpec.call(
                    Location(self.function.name, block.name, llvm_index), call.callee
                ),
                right=StateSpec.call(
                    Location(self.machine.name, machine_block, machine_index),
                    call.callee,
                ),
                constraints=tuple(constraints),
                memory_objects=self.memory_objects,
                executable=False,
            )

        return _Draft(len(call.arguments), build)

    def _resume_point(
        self,
        block: ir.Block,
        llvm_index: int,
        call: ir.Call,
        machine_block: str,
        machine_index: int,
    ) -> _Draft:
        return_register = self.target.return_register
        machine_live = self._machine_live_at(machine_block, machine_index + 1)
        related = self._related(machine_live - {return_register})

        def build() -> SyncPoint:
            constraints = self._live_constraints(related)
            if call.name is not None:
                width = bit_width(call.return_type)
                constraints.append(
                    EqConstraint(
                        Expr.env(call.name, width),
                        Expr.env(return_register, min(width, 64)),
                        junk_upper="right" if width < 64 else None,
                    )
                )
            return SyncPoint(
                name=f"p_resume_{block.name}_{llvm_index}",
                kind="resume",
                left=StateSpec.at(
                    Location(self.function.name, block.name, llvm_index + 1)
                ),
                right=StateSpec.at(
                    Location(self.machine.name, machine_block, machine_index + 1)
                ),
                constraints=tuple(constraints),
                memory_objects=self.memory_objects,
            )

        return _Draft(len(related) + (call.name is not None), build)

    def _machine_live_at(self, block_name: str, index: int) -> set[str]:
        """Live machine registers immediately before instruction ``index``."""
        live = set(self.machine_live.live_out[block_name])
        for successor in self.machine_graph.successors(block_name):
            for phi in self.machine_graph.phi_defs(successor):
                for pred, incoming in phi.incomings:
                    if pred == block_name and incoming is not None:
                        live.add(incoming)
        block = self.machine.block(block_name)
        per_instruction = self.machine_graph.instruction_uses_defs(block_name)
        # instruction_uses_defs skips PHIs; align indices.
        phi_count = len(block.phis())
        for position in range(len(per_instruction) - 1, index - 1 - phi_count, -1):
            uses, defs = per_instruction[position]
            live -= defs
            live |= uses
        return live


def _key_width(key: str) -> int:
    if key.startswith("vr"):
        return int(key.rsplit("_", 1)[1])
    return 64
