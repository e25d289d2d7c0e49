"""Program states for symbolic execution.

A :class:`ProgramState` is the common configuration shape both language
semantics produce: a program location, an environment of named values, the
(shared-model) memory, a path condition, and a status.  Undefined behaviour
is represented by uniquely marked *error states* (paper Section 4.6), and
function calls pause the state at the call site so the equivalence checker
can treat call boundaries as cut points (paper Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Union

from repro.memory import Memory, PointerValue
from repro.smt import terms as t
from repro.smt.terms import Term

#: Runtime values: bitvector terms, or structured pointers.
Value = Union[Term, PointerValue]


def value_term(value: Value) -> Term:
    """Materialize any value into a plain term (pointers become base+offset)."""
    if isinstance(value, PointerValue):
        return value.materialize()
    return value


@dataclass(frozen=True)
class Location:
    """A program point: function, basic block, instruction index."""

    function: str
    block: str
    index: int = 0

    def __repr__(self) -> str:
        return f"{self.function}:{self.block}[{self.index}]"


class StatusKind(Enum):
    RUNNING = "running"
    EXITED = "exited"  # function returned
    ERROR = "error"  # undefined behaviour reached
    CALLING = "calling"  # paused at a call site (pre-call)


@dataclass(frozen=True)
class ErrorInfo:
    """Marker for an undefined-behaviour error state.

    ``kind`` is the error class used by the acceptability relation to match
    error states across languages (paper Section 4.6): e.g. LLVM's
    out-of-bounds error state is related only to the x86 out-of-bounds
    error state.
    """

    kind: str
    detail: str = ""

    # Error kinds shared by the two semantics.
    OUT_OF_BOUNDS = "out_of_bounds"
    DIV_BY_ZERO = "div_by_zero"
    SIGNED_OVERFLOW = "signed_overflow"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class CallMarker:
    """A state paused at a call instruction (pre-call)."""

    callee: str
    arguments: tuple[Value, ...]
    result_name: str | None  # where the return value will be bound
    return_location: Location  # the instruction after the call


@dataclass(frozen=True)
class ProgramState:
    """One symbolic program configuration."""

    location: Location | None
    env: Mapping[str, Value]
    memory: Memory
    path_condition: Term = t.TRUE
    status: StatusKind = StatusKind.RUNNING
    error: ErrorInfo | None = None
    call: CallMarker | None = None
    returned: Value | None = None
    prev_block: str | None = None
    steps: int = 0

    # -- functional updates -----------------------------------------------------
    #
    # Symbolic execution copies a state at every step, so updates copy the
    # fields directly instead of going through ``dataclasses.replace`` and
    # the frozen ``__init__`` (about twice as fast).

    def _updated(self, **changes) -> "ProgramState":
        """A copy of this state with ``changes`` applied to its fields."""
        state = object.__new__(self.__class__)
        fields = state.__dict__
        fields.update(self.__dict__)
        fields.update(changes)
        return state

    def bind(self, name: str, value: Value) -> "ProgramState":
        env = dict(self.env)
        env[name] = value
        return self._updated(env=env)

    def bind_many(self, bindings: Mapping[str, Value]) -> "ProgramState":
        env = dict(self.env)
        env.update(bindings)
        return self._updated(env=env)

    def lookup(self, name: str) -> Value:
        if name not in self.env:
            raise KeyError(f"unbound name {name!r} at {self.location}")
        return self.env[name]

    def with_memory(self, memory: Memory) -> "ProgramState":
        return self._updated(memory=memory)

    def at(self, location: Location, prev_block: str | None = None) -> "ProgramState":
        return self._updated(
            location=location,
            prev_block=prev_block if prev_block is not None else self.prev_block,
            steps=self.steps + 1,
        )

    def advanced(self) -> "ProgramState":
        """Move to the next instruction in the current block."""
        location = self.location
        assert location is not None
        return self._updated(
            location=Location(location.function, location.block, location.index + 1),
            steps=self.steps + 1,
        )

    def assuming(self, condition: Term) -> "ProgramState":
        return self._updated(path_condition=t.and_(self.path_condition, condition))

    def exited(self, value: Value | None) -> "ProgramState":
        return self._updated(
            status=StatusKind.EXITED, returned=value, steps=self.steps + 1
        )

    def errored(self, kind: str, detail: str = "") -> "ProgramState":
        return self._updated(
            status=StatusKind.ERROR,
            error=ErrorInfo(kind, detail),
            steps=self.steps + 1,
        )

    def calling(self, marker: CallMarker) -> "ProgramState":
        return self._updated(status=StatusKind.CALLING, call=marker)

    # -- forks every IR shares ----------------------------------------------------
    #
    # The acceptability relation matches an error state across languages
    # only by kind and path condition (paper Section 4.6), so the LLVM and
    # machine-IR semantics build these forks here, term for term alike.

    def undefined_if(
        self,
        condition: Term,
        kind: str,
        detail: str,
        successors: list["ProgramState"],
    ) -> "ProgramState":
        """The undefined-behaviour rule: append the error state marked
        ``kind`` where ``condition`` holds (none when it folds to false) and
        return this state continued under its negation."""
        if condition is t.FALSE:
            return self
        successors.append(self.assuming(condition).errored(kind, detail))
        return self.assuming(t.not_(condition))

    def divide_checked(
        self,
        lhs: Term,
        rhs: Term,
        signed: bool,
        detail: str,
        successors: list["ProgramState"],
    ) -> "ProgramState":
        """A trapping division: a zero divisor, then (``signed``) the
        ``INT_MIN / -1`` overflow."""
        width = rhs.width
        state = self.undefined_if(
            t.eq(rhs, t.zero(width)), ErrorInfo.DIV_BY_ZERO, detail, successors
        )
        if signed:
            overflow = t.and_(
                t.eq(lhs, t.bv_const(t.min_signed(width), width)),
                t.eq(rhs, t.ones(width)),
            )
            state = state.undefined_if(
                overflow, ErrorInfo.SIGNED_OVERFLOW, detail, successors
            )
        return state

    def access_checked(
        self,
        pointer: PointerValue,
        width_bytes: int,
        detail: str,
        successors: list["ProgramState"],
    ) -> "ProgramState":
        """A load or store of ``width_bytes`` at ``pointer``: out of bounds
        is undefined behaviour."""
        in_bounds = self.memory.in_bounds_condition(pointer, width_bytes)
        return self.undefined_if(
            t.not_(in_bounds), ErrorInfo.OUT_OF_BOUNDS, detail, successors
        )

    def selected(
        self,
        condition: Term,
        taken: Value,
        not_taken: Value,
        write: Callable[["ProgramState", Value], "ProgramState"],
    ) -> list["ProgramState"]:
        """``condition ? taken : not_taken``, stored by ``write``, then the
        next instruction.  A conditional over pointers into (possibly)
        different objects has no single-pointer form in the memory model,
        so the state splits on the condition instead."""
        if isinstance(taken, PointerValue) or isinstance(not_taken, PointerValue):
            return [
                write(self.assuming(condition), taken).advanced(),
                write(self.assuming(t.not_(condition)), not_taken).advanced(),
            ]
        value = t.ite(condition, value_term(taken), value_term(not_taken))
        return [write(self, value).advanced()]

    @property
    def is_running(self) -> bool:
        return self.status is StatusKind.RUNNING

    @property
    def is_feasible_syntactically(self) -> bool:
        """Cheap infeasibility check: path condition folded to false."""
        return self.path_condition is not t.FALSE

    def describe(self) -> str:
        """One-line human-readable summary (reports, debugging)."""
        if self.status is StatusKind.EXITED:
            return f"<exited returning {self.returned!r}>"
        if self.status is StatusKind.ERROR:
            assert self.error is not None
            return f"<error:{self.error.kind} {self.error.detail}>"
        if self.status is StatusKind.CALLING:
            assert self.call is not None
            return f"<calling {self.call.callee}>"
        return f"<at {self.location}>"
