"""Seeded generator of well-formed LLVM IR functions.

Functions are built as a chain of *segments* — straight-line code, if/else
diamonds, and counted loops — over a pool of i32 SSA values, with optional
memory traffic through global arrays and entry-block allocas, and calls to
external functions.  Generation is deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.llvm import ir
from repro.llvm.builder import FunctionBuilder
from repro.llvm.types import ArrayType, IntType, PointerType, i8, i32, i64

_ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor")
_ARITH_OPS_NO_MUL = ("add", "sub", "and", "or", "xor")
_ICMP_PREDICATES = ("eq", "ne", "ult", "ule", "slt", "sle", "ugt", "sgt")


def _arith_ops(shape: "FunctionShape") -> tuple[str, ...]:
    return _ARITH_OPS if shape.wide_muls else _ARITH_OPS_NO_MUL


@dataclass
class FunctionShape:
    """Knobs controlling one generated function."""

    parameters: int = 3
    straight_segments: int = 2
    ops_per_segment: int = 4
    diamonds: int = 1
    loops: int = 1
    loop_body_ops: int = 3
    calls: int = 0
    memory_ops: int = 0  # global loads/stores with constant GEPs
    allocas: int = 0
    shifts: bool = True
    divisions: bool = False  # udiv/srem introduce UB error branches
    #: makes ISel reject the function (stands in for float/SIMD code).
    unsupported: bool = False
    #: fold every generated value into the return value, keeping the whole
    #: pool live across all loops (drives the sync-point spec size up).
    live_tail: bool = False
    #: emit select instructions (lowered to cmov).
    selects: int = 0
    #: emit zext/trunc round trips through i64/i16.
    casts: int = 0
    #: nest one extra loop inside each loop body (depth 2 loop nests).
    nested_loops: bool = False
    #: allow i32 variable×variable multiplies in generic segments.  Turned
    #: off by solver-bound corpora: a wide multiply downstream of a
    #: ``mul_guards`` divergence makes the obligation a 32-bit multiplier
    #: equivalence circuit — beyond any CDCL budget.
    wide_muls: bool = True
    #: emit narrow (i8) multiply-by-constant guard diamonds.  With ISel's
    #: ``mul_decompose`` enabled the machine side lowers the multiply to a
    #: shift/add chain, so every equivalence obligation over the product is
    #: a genuine bit-level SAT problem rather than a syntactic match —
    #: these segments make a corpus *solver-bound*.
    mul_guards: int = 0


@dataclass
class _GenState:
    builder: FunctionBuilder
    rng: random.Random
    values: list[ir.Operand] = field(default_factory=list)
    pointers: list[tuple[ir.Operand, int]] = field(default_factory=list)
    label_counter: int = 0

    def fresh_label(self, prefix: str) -> str:
        self.label_counter += 1
        return f"{prefix}{self.label_counter}"

    def pick_value(self) -> ir.Operand:
        if self.values and self.rng.random() < 0.85:
            return self.rng.choice(self.values)
        return ir.ConstInt(self.rng.randrange(0, 64), i32)


#: Declared external boundary functions: calls to them are uninterpreted
#: cut points on both semantics sides (see CallMarker), keyed on the name.
EXTERNAL_CALLEES = ("ext_helper", "ext_source", "ext_sink")


def generate_function(
    module: ir.Module, name: str, shape: FunctionShape, seed: int
) -> ir.Function:
    """Generate one function into ``module`` (globals are added on demand)."""
    rng = random.Random(seed)
    parameter_count = shape.parameters + (7 if shape.unsupported else 0)
    parameters = [(f"p{i}", i32) for i in range(min(parameter_count, 10))]
    builder = FunctionBuilder(module, name, i32, parameters)
    state = _GenState(builder, rng)
    state.values = [ir.LocalRef(pname, i32) for pname, _ in parameters]

    _ensure_globals(module)
    builder.block("entry")
    for index in range(shape.allocas):
        pointer = builder.alloca(i32, name=f"slot{index}")
        builder.store(i32, state.pick_value(), pointer)
        state.pointers.append((pointer, 4))

    # Build the segment plan, shuffled for variety but seed-deterministic.
    plan = (
        ["straight"] * shape.straight_segments
        + ["diamond"] * shape.diamonds
        + ["loop"] * shape.loops
        + ["call"] * shape.calls
        + ["memory"] * shape.memory_ops
        + ["select"] * shape.selects
        + ["cast"] * shape.casts
        + ["mul_guard"] * shape.mul_guards
    )
    rng.shuffle(plan)
    for segment in plan:
        if segment == "straight":
            _emit_straightline(state, shape)
        elif segment == "diamond":
            _emit_diamond(state, shape)
        elif segment == "loop":
            _emit_loop(state, shape)
        elif segment == "call":
            _emit_call(state)
        elif segment == "memory":
            _emit_memory(state, module)
        elif segment == "select":
            _emit_select(state)
        elif segment == "cast":
            _emit_cast_chain(state)
        elif segment == "mul_guard":
            _emit_mul_guard(state, shape)
    if shape.live_tail:
        result = state.values[0]
        for value in state.values[1:]:
            result = builder.binop("add", i32, result, value)
    else:
        result = state.pick_value()
        if isinstance(result, ir.ConstInt):
            result = state.values[0] if state.values else ir.ConstInt(0, i32)
    builder.ret(i32, result)
    return builder.finish()


def _ensure_globals(module: ir.Module) -> None:
    for name, type_ in (
        ("garr", ArrayType(i32, 16)),
        ("gbytes", ArrayType(i8, 32)),
        ("gword", i64),
    ):
        if name not in module.globals:
            module.add_global(ir.GlobalVariable(name, type_))


def _emit_op(state: _GenState, shape: FunctionShape) -> None:
    rng = state.rng
    lhs = state.pick_value()
    rhs = state.pick_value()
    roll = rng.random()
    if shape.shifts and roll < 0.12:
        result = state.builder.binop(
            rng.choice(("shl", "lshr", "ashr")),
            i32,
            lhs,
            ir.ConstInt(rng.randrange(0, 31), i32),
        )
    elif shape.divisions and roll < 0.18:
        result = state.builder.binop(
            rng.choice(("udiv", "urem")), i32, lhs, rhs
        )
    else:
        result = state.builder.binop(rng.choice(_arith_ops(shape)), i32, lhs, rhs)
    state.values.append(result)


def _emit_straightline(state: _GenState, shape: FunctionShape) -> None:
    for _ in range(shape.ops_per_segment):
        _emit_op(state, shape)


def _emit_diamond(state: _GenState, shape: FunctionShape) -> None:
    rng = state.rng
    builder = state.builder
    then_label = state.fresh_label("then")
    else_label = state.fresh_label("else")
    join_label = state.fresh_label("join")
    condition = builder.icmp(
        rng.choice(_ICMP_PREDICATES), i32, state.pick_value(), state.pick_value()
    )
    builder.cond_br(condition, then_label, else_label)
    builder.block(then_label)
    then_value = builder.binop(
        rng.choice(_arith_ops(shape)), i32, state.pick_value(), state.pick_value()
    )
    builder.br(join_label)
    builder.block(else_label)
    else_value = builder.binop(
        rng.choice(_arith_ops(shape)), i32, state.pick_value(), state.pick_value()
    )
    builder.br(join_label)
    builder.block(join_label)
    joined = builder.phi(
        i32, [(then_value, then_label), (else_value, else_label)]
    )
    state.values.append(joined)


def _emit_loop(state: _GenState, shape: FunctionShape, depth: int = 0) -> None:
    rng = state.rng
    builder = state.builder
    preheader = builder._block.name
    header = state.fresh_label("loop")
    body = state.fresh_label("body")
    latch = state.fresh_label("latch")
    exit_label = state.fresh_label("after")
    accum_init = state.pick_value()
    # Mask the trip count so concrete co-execution of generated code always
    # terminates quickly; symbolically the loop is handled the same way.
    bound = builder.binop("and", i32, state.pick_value(), 31)
    builder.br(header)

    builder.block(header)
    # Phi placeholders get patched once the latch values exist.
    counter_phi_name = state.fresh_label("i")
    accum_phi_name = state.fresh_label("acc")
    counter = ir.LocalRef(counter_phi_name, i32)
    accum = ir.LocalRef(accum_phi_name, i32)
    condition = builder.icmp("ult", i32, counter, bound)
    builder.cond_br(condition, body, exit_label)

    builder.block(body)
    state.values.append(accum)
    local_values = [accum, counter] + state.values[-4:]
    current = accum
    for _ in range(shape.loop_body_ops):
        current = builder.binop(
            rng.choice(_arith_ops(shape)), i32, current, rng.choice(local_values)
        )
    if shape.nested_loops and depth == 0:
        # An inner counted loop whose accumulator feeds the outer body.
        # Values defined inside the inner loop do not dominate code after
        # the *outer* loop, so the pool is restored afterwards.
        pool_mark = len(state.values)
        state.values.append(current)
        _emit_loop(state, shape, depth=1)
        inner_result = state.values[-1]
        del state.values[pool_mark:]
        current = builder.binop("xor", i32, current, inner_result)
    builder.br(latch)

    builder.block(latch)
    incremented = builder.binop("add", i32, counter, 1)
    builder.br(header)

    # Patch the header with real phis now that latch values are known.
    header_block = builder.function.block(header)
    phis = [
        ir.Phi(
            counter_phi_name,
            i32,
            ((ir.ConstInt(0, i32), preheader), (incremented, latch)),
        ),
        ir.Phi(
            accum_phi_name,
            i32,
            ((accum_init, preheader), (current, latch)),
        ),
    ]
    header_block.instructions[0:0] = phis

    builder.block(exit_label)
    state.values.append(accum)


def _emit_select(state: _GenState) -> None:
    rng = state.rng
    builder = state.builder
    condition = builder.icmp(
        rng.choice(_ICMP_PREDICATES), i32, state.pick_value(), state.pick_value()
    )
    chosen = builder.select(
        i32, condition, state.pick_value(), state.pick_value()
    )
    state.values.append(chosen)


def _emit_cast_chain(state: _GenState) -> None:
    rng = state.rng
    builder = state.builder
    from repro.llvm.types import i16, i64

    source = state.pick_value()
    if isinstance(source, ir.ConstInt):
        source = state.values[0]
    if rng.random() < 0.5:
        wide = builder.cast("zext" if rng.random() < 0.5 else "sext", source, i32, i64)
        mixed = builder.binop("add", i64, wide, rng.randrange(1, 9))
        state.values.append(builder.cast("trunc", mixed, i64, i32))
    else:
        narrow = builder.cast("trunc", source, i32, i16)
        bumped = builder.binop("xor", i16, narrow, rng.randrange(0, 255))
        state.values.append(builder.cast("zext", bumped, i16, i32))


#: Multipliers ISel's ``mul_decompose`` rewrites into shift/add chains.
_MUL_GUARD_CONSTANTS = (3, 5, 7, 9)


def _emit_mul_guard(state: _GenState, shape: FunctionShape) -> None:
    """An i8 multiply-by-constant guarding a diamond, product kept live.

    The multiplicand is always the first parameter, so every guard across a
    corpus shares the ``trunc(p0) * C`` sub-circuit — campaign-scoped
    incremental solving can transfer learned clauses between functions
    while the varying guard predicate and diamond bodies keep the overall
    goals distinct (no query-cache hits to mask the solver work).
    """
    rng = state.rng
    builder = state.builder
    then_label = state.fresh_label("multhen")
    else_label = state.fresh_label("mulelse")
    join_label = state.fresh_label("muljoin")
    base = state.values[0]
    narrow = builder.cast("trunc", base, i32, i8)
    constant = ir.ConstInt(rng.choice(_MUL_GUARD_CONSTANTS), i8)
    product = builder.binop("mul", i8, narrow, constant)
    other = state.pick_value()
    if isinstance(other, ir.ConstInt):
        other = state.values[-1]
    bound = builder.cast("trunc", other, i32, i8)
    condition = builder.icmp(
        rng.choice(("slt", "ult", "sle", "ne")), i8, product, bound
    )
    builder.cond_br(condition, then_label, else_label)
    builder.block(then_label)
    then_value = builder.binop(
        rng.choice(_arith_ops(shape)), i32, state.pick_value(), state.pick_value()
    )
    builder.br(join_label)
    builder.block(else_label)
    else_value = builder.binop(
        rng.choice(_arith_ops(shape)), i32, state.pick_value(), state.pick_value()
    )
    builder.br(join_label)
    builder.block(join_label)
    joined = builder.phi(
        i32, [(then_value, then_label), (else_value, else_label)]
    )
    wide = builder.cast("zext", product, i8, i32)
    state.values.append(builder.binop("add", i32, joined, wide))


def _emit_call(state: _GenState) -> None:
    rng = state.rng
    callee = rng.choice(EXTERNAL_CALLEES)
    arguments = [(i32, state.pick_value()) for _ in range(rng.randrange(0, 3))]
    result = state.builder.call(i32, callee, arguments)
    if result is not None:
        state.values.append(result)


def _emit_memory(state: _GenState, module: ir.Module) -> None:
    rng = state.rng
    builder = state.builder
    array = module.globals["garr"]
    pointer = ir.ConstGep(
        array.type,
        ir.GlobalRef("garr", PointerType(array.type)),
        (ir.ConstInt(0, i64), ir.ConstInt(rng.randrange(0, 16), i64)),
        PointerType(i32),
    )
    if state.pointers and rng.random() < 0.4:
        pointer = state.pointers[rng.randrange(len(state.pointers))][0]
    if rng.random() < 0.5:
        builder.store(i32, state.pick_value(), pointer)
    else:
        state.values.append(builder.load(i32, pointer))


def generate_module(
    shapes: list[tuple[str, FunctionShape, int]]
) -> ir.Module:
    """Generate a module containing one function per (name, shape, seed)."""
    module = ir.Module()
    for name, shape, seed in shapes:
        generate_function(module, name, shape, seed)
    return module
