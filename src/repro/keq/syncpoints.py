"""Symbolic synchronization points (paper Section 4.5).

A synchronization point is a pair of symbolic state *templates* — one per
language — plus equality constraints over symbolic variables the two states
share.  Each point denotes a potentially infinite set of concrete state
pairs: one pair per substitution of the shared symbols (the paper's
``(s_p, s'_p, ψ_p)`` triples from Section 3).

Instantiation binds each constrained name on both sides to the *same*
fresh symbol, and gives both sides the *same* symbolic memory, so "related
by ψ" holds by construction at the source point; after symbolic execution,
inclusion in a target point reduces to provable equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory import MemoryObject
from repro.semantics.state import Location


@dataclass(frozen=True)
class Expr:
    """One side of an equality constraint.

    kinds:
      - ``env``: the value bound to ``payload`` in the environment;
      - ``lit``: the integer literal ``payload`` (e.g. ``1 = %vr9_32``);
      - ``ret``: the function's returned value (exit points);
      - ``arg``: call argument number ``payload`` (call points);
      - ``mem``: the value stored at ``payload = (object, offset)`` —
        used by the register-allocation VC generator to constrain spill
        slots (a value's home may be memory, not a register).
    """

    kind: str
    payload: str | int | tuple
    width: int

    @staticmethod
    def env(name: str, width: int) -> "Expr":
        return Expr("env", name, width)

    @staticmethod
    def lit(value: int, width: int) -> "Expr":
        return Expr("lit", value, width)

    @staticmethod
    def ret(width: int) -> "Expr":
        return Expr("ret", "", width)

    @staticmethod
    def arg(index: int, width: int) -> "Expr":
        return Expr("arg", index, width)

    @staticmethod
    def mem(object_name: str, offset: int, width: int) -> "Expr":
        return Expr("mem", (object_name, offset), width)

    @staticmethod
    def ptr(object_name: str, offset: int = 0) -> "Expr":
        """The constant pointer to ``object_name`` (+offset) — used to pin
        environment entries that hold statically-known addresses (e.g. the
        alloca results of a clang-style -O0 compilation)."""
        return Expr("ptr", (object_name, offset), 64)

    def __str__(self) -> str:
        if self.kind == "env":
            return str(self.payload)
        if self.kind == "lit":
            return str(self.payload)
        if self.kind == "ret":
            return "<ret>"
        if self.kind == "mem":
            object_name, offset = self.payload
            return f"[{object_name}+{offset}]"
        if self.kind == "ptr":
            object_name, offset = self.payload
            return f"&{object_name}+{offset}"
        return f"<arg{self.payload}>"


@dataclass(frozen=True)
class EqConstraint:
    """``left = right`` at a given width.

    ``pointer_object`` marks pointer constraints (both sides hold a
    pointer into that object, with equal offsets).

    ``junk_upper`` ("left"/"right"/None) marks a side whose environment
    entry is *wider* than the constraint width with unconstrained upper
    bits — how a VC generator expresses sub-register views (e.g. a 32-bit
    argument in ``rdi`` whose upper half is calling-convention garbage)
    without KEQ knowing anything about registers.  ``junk_width`` is that
    side's full entry width.
    """

    left: Expr
    right: Expr
    pointer_object: str | None = None
    junk_upper: str | None = None
    junk_width: int = 64

    @property
    def width(self) -> int:
        return max(self.left.width, self.right.width)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class StateSpec:
    """Which states of one program a synchronization point covers."""

    status: str  # "at" | "exit" | "call"
    location: Location | None = None
    prev_block: str | None = None  # the paper's "Prev BB" column
    callee: str | None = None  # for "call" specs

    @staticmethod
    def at(location: Location, prev_block: str | None = None) -> "StateSpec":
        return StateSpec("at", location, prev_block)

    @staticmethod
    def exit() -> "StateSpec":
        return StateSpec("exit")

    @staticmethod
    def call(location: Location, callee: str) -> "StateSpec":
        return StateSpec("call", location, callee=callee)


@dataclass(frozen=True)
class SyncPoint:
    """A named synchronization point.

    ``memory_objects`` is the memory template used when KEQ instantiates
    this point as a *source*: both sides start from one shared memory built
    from these descriptors.  ``check_memory`` requires memories to be
    provably equal when the point is used as a *target* (the paper's
    whole-memory equality clause; every point of the ISel VC generator has
    it on).
    """

    name: str
    kind: str  # "entry" | "exit" | "loop" | "call" | "resume"
    left: StateSpec
    right: StateSpec
    constraints: tuple[EqConstraint, ...] = ()
    memory_objects: tuple[MemoryObject, ...] = ()
    check_memory: bool = True
    #: When set, the whole-memory equality clause covers only these objects
    #: (the register-allocation VC generator excludes the output-only spill
    #: slots this way).  ``None`` means "all objects" — the ISel default.
    memory_equal_objects: tuple[str, ...] | None = None
    #: Names executable as source states. Exit and call points are covering
    #: states with no successors, so KEQ's check() on them is vacuous.
    executable: bool = True

    def describe(self) -> str:
        lines = [f"sync point {self.name} ({self.kind})"]
        left_prev = self.left.prev_block or "-"
        right_prev = self.right.prev_block or "-"
        lines.append(f"  left:  {self.left.status} {self.left.location}"
                     f" prev={left_prev}")
        lines.append(f"  right: {self.right.status} {self.right.location}"
                     f" prev={right_prev}")
        if self.constraints:
            rendered = ", ".join(str(c) for c in self.constraints)
            lines.append(f"  constraints: {rendered}")
        return "\n".join(lines)


@dataclass
class SyncPointSet:
    """The verification condition: a finite set of symbolic points."""

    points: list[SyncPoint] = field(default_factory=list)

    def add(self, point: SyncPoint) -> SyncPoint:
        self.points.append(point)
        return point

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def spec_size(self) -> int:
        """A proxy for the textual size of the VC (the paper's K-parser
        memory blowup scales with this; see the OOM failure category)."""
        return sum(point_spec_size(len(point.constraints)) for point in self.points)


def point_spec_size(constraints: int) -> int:
    """Spec-size share of one point carrying ``constraints`` constraints:
    its name and two state templates, plus one clause per constraint."""
    return 3 + constraints
