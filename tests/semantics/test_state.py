"""Tests for the shared program-state shape and the Semantics protocol."""

import dataclasses

import pytest

from repro.llvm.semantics import LlvmSemantics
from repro.memory import Memory, MemoryObject, PointerValue
from repro.semantics import Semantics
from repro.semantics.state import (
    CallMarker,
    ErrorInfo,
    Location,
    ProgramState,
    StatusKind,
    value_term,
)
from repro.smt import t
from repro.vx86.semantics import Vx86Semantics


def fresh_state() -> ProgramState:
    return ProgramState(
        location=Location("f", "entry", 0),
        env={"x": t.bv_var("x", 32)},
        memory=Memory.create([]),
    )


class TestProgramState:
    def test_bind_is_persistent(self):
        state = fresh_state()
        bound = state.bind("y", t.bv_const(1, 32))
        assert "y" in bound.env
        assert "y" not in state.env

    def test_lookup_missing_raises(self):
        with pytest.raises(KeyError):
            fresh_state().lookup("nope")

    def test_assuming_accumulates_conjunction(self):
        state = fresh_state()
        p = t.bool_var("p")
        q = t.bool_var("q")
        state = state.assuming(p).assuming(q)
        assert state.path_condition is t.and_(p, q)

    def test_assuming_false_is_syntactically_infeasible(self):
        state = fresh_state().assuming(t.FALSE)
        assert not state.is_feasible_syntactically

    def test_advanced_increments_index_and_steps(self):
        state = fresh_state()
        advanced = state.advanced()
        assert advanced.location.index == 1
        assert advanced.steps == state.steps + 1

    def test_at_records_previous_block(self):
        state = fresh_state()
        moved = state.at(Location("f", "next", 0), prev_block="entry")
        assert moved.prev_block == "entry"

    def test_exited_state_is_halted(self):
        state = fresh_state().exited(t.bv_const(1, 32))
        assert state.status is StatusKind.EXITED
        assert not state.is_running

    def test_errored_state_carries_kind(self):
        state = fresh_state().errored(ErrorInfo.OUT_OF_BOUNDS, "load")
        assert state.error.kind == ErrorInfo.OUT_OF_BOUNDS
        assert "out_of_bounds" in state.describe()

    def test_calling_state_carries_marker(self):
        marker = CallMarker(
            callee="g",
            arguments=(t.bv_const(1, 32),),
            result_name="r",
            return_location=Location("f", "entry", 1),
        )
        state = fresh_state().calling(marker)
        assert state.status is StatusKind.CALLING
        assert state.call.callee == "g"

    def test_value_term_materializes_pointers(self):
        pointer = PointerValue("g", t.bv_const(4, 64))
        term = value_term(pointer)
        assert term.width == 64

    def test_describe_variants(self):
        assert "at" in fresh_state().describe()
        assert "exited" in fresh_state().exited(None).describe()


MARKER = CallMarker(
    callee="g",
    arguments=(t.bv_const(1, 32),),
    result_name="r",
    return_location=Location("f", "entry", 1),
)

#: Each functional update, and the ``dataclasses.replace`` it stands for.
UPDATES = {
    "bind": (
        lambda s: s.bind("y", t.bv_const(1, 32)),
        lambda s: dataclasses.replace(s, env={**s.env, "y": t.bv_const(1, 32)}),
    ),
    "bind_many": (
        lambda s: s.bind_many({"x": t.bv_const(2, 32), "z": t.TRUE}),
        lambda s: dataclasses.replace(
            s, env={**s.env, "x": t.bv_const(2, 32), "z": t.TRUE}
        ),
    ),
    "with_memory": (
        lambda s: s.with_memory(Memory.create([MemoryObject("g", 4)])),
        lambda s: dataclasses.replace(
            s, memory=Memory.create([MemoryObject("g", 4)])
        ),
    ),
    "at": (
        lambda s: s.at(Location("f", "next", 0), prev_block="entry"),
        lambda s: dataclasses.replace(
            s,
            location=Location("f", "next", 0),
            prev_block="entry",
            steps=s.steps + 1,
        ),
    ),
    "at_keeps_prev_block": (
        lambda s: s.at(Location("f", "next", 0)),
        lambda s: dataclasses.replace(
            s, location=Location("f", "next", 0), steps=s.steps + 1
        ),
    ),
    "advanced": (
        lambda s: s.advanced(),
        lambda s: dataclasses.replace(
            s,
            location=dataclasses.replace(s.location, index=s.location.index + 1),
            steps=s.steps + 1,
        ),
    ),
    "assuming": (
        lambda s: s.assuming(t.bool_var("q")),
        lambda s: dataclasses.replace(
            s, path_condition=t.and_(s.path_condition, t.bool_var("q"))
        ),
    ),
    "exited": (
        lambda s: s.exited(t.bv_const(7, 32)),
        lambda s: dataclasses.replace(
            s,
            status=StatusKind.EXITED,
            returned=t.bv_const(7, 32),
            steps=s.steps + 1,
        ),
    ),
    "errored": (
        lambda s: s.errored(ErrorInfo.DIV_BY_ZERO, "sdiv"),
        lambda s: dataclasses.replace(
            s,
            status=StatusKind.ERROR,
            error=ErrorInfo(ErrorInfo.DIV_BY_ZERO, "sdiv"),
            steps=s.steps + 1,
        ),
    ),
    "calling": (
        lambda s: s.calling(MARKER),
        lambda s: dataclasses.replace(s, status=StatusKind.CALLING, call=MARKER),
    ),
}


def field_values(state: ProgramState) -> list:
    """Every field's value, the environment's contents copied."""
    return [
        dict(state.env) if field.name == "env" else getattr(state, field.name)
        for field in dataclasses.fields(state)
    ]


class TestFunctionalUpdates:
    """The updates copy fields directly; each must build exactly the state
    ``dataclasses.replace`` builds, and leave its source untouched."""

    @staticmethod
    def busy_state() -> ProgramState:
        """A state whose every field is off its default."""
        return ProgramState(
            location=Location("f", "loop", 3),
            env={"x": t.bv_var("x", 32)},
            memory=Memory.create([MemoryObject("a", 8)]),
            path_condition=t.bool_var("p"),
            status=StatusKind.RUNNING,
            error=ErrorInfo("earlier"),
            call=MARKER,
            returned=t.bv_const(0, 32),
            prev_block="entry",
            steps=5,
        )

    @pytest.mark.parametrize("name", sorted(UPDATES))
    def test_matches_dataclasses_replace_field_by_field(self, name):
        update, reference = UPDATES[name]
        for state in (fresh_state(), self.busy_state()):
            before = field_values(state)
            updated, expected = update(state), reference(state)
            assert type(updated) is ProgramState
            for field in dataclasses.fields(ProgramState):
                assert getattr(updated, field.name) == getattr(
                    expected, field.name
                ), field.name
            assert updated == expected
            assert field_values(state) == before
            with pytest.raises(dataclasses.FrozenInstanceError):
                updated.steps = 0


class TestSemanticsProtocol:
    def test_llvm_semantics_satisfies_protocol(self):
        from repro.llvm import ir

        assert isinstance(LlvmSemantics(ir.Module()), Semantics)

    def test_vx86_semantics_satisfies_protocol(self):
        assert isinstance(Vx86Semantics({}), Semantics)

    def test_imp_semantics_satisfies_protocol(self):
        from repro.imp import ImpSemantics, StackSemantics

        assert isinstance(ImpSemantics({}), Semantics)
        assert isinstance(StackSemantics({}), Semantics)

    def test_halted_states_have_no_successors(self):
        from repro.llvm import ir

        semantics = LlvmSemantics(ir.Module())
        assert semantics.step(fresh_state().exited(None)) == []
        assert semantics.step(fresh_state().errored("x")) == []
