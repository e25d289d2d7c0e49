"""Tests for the select instruction across the whole pipeline."""

from repro.llvm import LlvmSemantics, entry_state, parse_module
from repro.semantics.run import run_concrete
from repro.semantics.state import StatusKind
from repro.smt import t
from repro.tv import validate_function

SMAX = """
define i32 @smax(i32 %a, i32 %b) {
entry:
  %c = icmp sgt i32 %a, %b
  %m = select i1 %c, i32 %a, i32 %b
  ret i32 %m
}
"""


def execute(source, name, arguments):
    module = parse_module(source)
    function = module.function(name)
    bound = {
        pname: t.bv_const(value, 32)
        for (pname, _), value in zip(function.parameters, arguments)
    }
    state = entry_state(module, function, arguments=bound)
    final = run_concrete(LlvmSemantics(module), state)
    assert final.status is StatusKind.EXITED
    return final


class TestSelectSemantics:
    def test_concrete_max(self):
        assert execute(SMAX, "smax", [3, 9]).returned.value == 9
        assert execute(SMAX, "smax", [9, 3]).returned.value == 9

    def test_signed_comparison(self):
        negative = 0xFFFFFFFF  # -1
        assert execute(SMAX, "smax", [negative, 1]).returned.value == 1

    def test_symbolic_select_builds_ite(self):
        module = parse_module(SMAX)
        function = module.function("smax")
        semantics = LlvmSemantics(module)
        state = entry_state(module, function)
        while state.status is StatusKind.RUNNING:
            (state,) = semantics.step(state)
        assert state.returned.op == "ite"

    def test_parser_roundtrip(self):
        module = parse_module(SMAX)
        reparsed = parse_module(str(module))
        assert str(reparsed) == str(module)


class TestSelectValidation:
    def test_fused_cmov_validates(self):
        assert validate_function(parse_module(SMAX), "smax").ok

    def test_select_of_pointers_validates(self):
        source = """
@a = external global i32
@b = external global i32
define i32 @pick(i32 %k) {
entry:
  %c = icmp eq i32 %k, 0
  %p = select i1 %c, i32* @a, i32* @b
  %v = load i32, i32* %p
  ret i32 %v
}
"""
        outcome = validate_function(parse_module(source), "pick")
        assert outcome.ok, outcome.detail

    def test_chained_selects_validate(self):
        source = """
define i32 @clamp(i32 %x, i32 %lo, i32 %hi) {
entry:
  %c1 = icmp slt i32 %x, %lo
  %m1 = select i1 %c1, i32 %lo, i32 %x
  %c2 = icmp sgt i32 %m1, %hi
  %m2 = select i1 %c2, i32 %hi, i32 %m1
  ret i32 %m2
}
"""
        assert validate_function(parse_module(source), "clamp").ok

    def test_select_inside_loop_validates(self):
        source = """
define i32 @maxscan(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %best = phi i32 [ 0, %entry ], [ %best2, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %x = xor i32 %i, 21
  %g = icmp ugt i32 %x, %best
  %best2 = select i1 %g, i32 %x, i32 %best
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %best
}
"""
        assert validate_function(parse_module(source), "maxscan").ok
