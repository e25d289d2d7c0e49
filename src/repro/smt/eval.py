"""Concrete evaluation of terms under a variable assignment.

Used by property-based tests (the solver's model must satisfy the formula it
was extracted from; simplification must preserve meaning) and by the concrete
interpreters in the language semantics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping

from repro.smt import terms as t
from repro.smt.terms import BOOL, Term


class EvalError(Exception):
    """Raised when a term mentions a variable missing from the environment."""


SelectHandler = Callable[[str, int, int], int]


def _default_select(array: str, offset: int, width: int) -> int:
    raise EvalError(f"no select handler for array {array!r} at offset {offset}")


def evaluate(
    term: Term,
    env: Mapping[str, int | bool],
    select_handler: SelectHandler = _default_select,
) -> int | bool:
    """Evaluate ``term``; bitvector results are unsigned Python ints.

    ``select_handler(array, offset, width)`` supplies initial memory bytes
    for ``select`` terms (tests usually back it with a dict).
    """
    cache: dict[Term, int | bool] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args if arg not in cache)
            continue
        cache[node] = _eval_node(node, cache, env, select_handler)
    return cache[term]


def _eval_node(
    node: Term,
    cache: Mapping[Term, int | bool],
    env: Mapping[str, int | bool],
    select_handler: SelectHandler,
) -> int | bool:
    op = node.op
    args = [cache[arg] for arg in node.args]
    if op in ("bvconst", "boolconst"):
        return node.value
    if op in ("bvvar", "boolvar"):
        if node.name not in env:
            raise EvalError(f"unbound variable {node.name!r}")
        value = env[node.name]
        if node.sort is BOOL:
            return bool(value)
        return t.truncate(int(value), node.width)
    width = node.width if node.sort is not BOOL else None
    if op == "add":
        return t.truncate(args[0] + args[1], width)
    if op == "neg":
        return t.truncate(-args[0], width)
    if op == "mul":
        return t.truncate(args[0] * args[1], width)
    if op == "udiv":
        return t.mask(width) if args[1] == 0 else args[0] // args[1]
    if op == "urem":
        return args[0] if args[1] == 0 else args[0] % args[1]
    if op == "sdiv":
        return _sdiv(args[0], args[1], width)
    if op == "srem":
        return _srem(args[0], args[1], width)
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    if op == "bvnot":
        return t.truncate(~args[0], width)
    if op == "shl":
        return 0 if args[1] >= width else t.truncate(args[0] << args[1], width)
    if op == "lshr":
        return 0 if args[1] >= width else args[0] >> args[1]
    if op == "ashr":
        return _ashr(args[0], args[1], width)
    if op == "concat":
        lo_width = node.args[1].width
        return (args[0] << lo_width) | args[1]
    if op == "extract":
        high, low = node.attr
        return (args[0] >> low) & t.mask(high - low + 1)
    if op == "zext":
        return args[0]
    if op == "sext":
        return t.truncate(t.to_signed(args[0], node.args[0].width), width)
    if op == "eq":
        return args[0] == args[1]
    if op == "ult":
        return args[0] < args[1]
    if op == "slt":
        inner_width = node.args[0].width
        return t.to_signed(args[0], inner_width) < t.to_signed(args[1], inner_width)
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "xorb":
        return args[0] != args[1]
    if op == "ite":
        return args[1] if args[0] else args[2]
    if op == "select":
        array, width_bits = node.attr
        return t.truncate(select_handler(array, args[0], width_bits), width_bits)
    raise EvalError(f"cannot evaluate operation {op!r}")


def _sdiv(a: int, b: int, width: int) -> int:
    lhs = t.to_signed(a, width)
    rhs = t.to_signed(b, width)
    if rhs == 0:
        return t.truncate(-1 if lhs >= 0 else 1, width)
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return t.truncate(quotient, width)


def _srem(a: int, b: int, width: int) -> int:
    lhs = t.to_signed(a, width)
    rhs = t.to_signed(b, width)
    if rhs == 0:
        return t.truncate(lhs, width)
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return t.truncate(lhs - rhs * quotient, width)


def _ashr(a: int, b: int, width: int) -> int:
    return t.truncate(t.to_signed(a, width) >> min(b, width - 1), width)


def compile_node(
    node: Term, slots: Mapping[Term, int], select_handler: SelectHandler
) -> Callable[[list], int | bool]:
    """The in-place form of :func:`_eval_node` for an operation node.

    Returns ``fn(values)``, which reads the operands' values at
    ``values[slots[arg]]`` and returns ``node``'s value, with the same
    semantics as :func:`evaluate`.  A caller that re-evaluates one DAG many
    times (the solver's witness search) lays it out once and then only
    runs closures over one flat list.  Leaves (constants and variables)
    are the caller's: it stores their values in their slots itself.
    """
    op = node.op
    args = [slots[arg] for arg in node.args]
    width = node.width if node.sort is not BOOL else None
    m = t.mask(width) if width is not None else None
    if op == "add":
        a, b = args
        return lambda v: (v[a] + v[b]) & m
    if op == "neg":
        (a,) = args
        return lambda v: -v[a] & m
    if op == "mul":
        a, b = args
        return lambda v: (v[a] * v[b]) & m
    if op == "udiv":
        a, b = args
        return lambda v: v[a] // v[b] if v[b] else m
    if op == "urem":
        a, b = args
        return lambda v: v[a] % v[b] if v[b] else v[a]
    if op == "sdiv":
        a, b = args
        return lambda v: _sdiv(v[a], v[b], width)
    if op == "srem":
        a, b = args
        return lambda v: _srem(v[a], v[b], width)
    if op == "bvand":
        a, b = args
        return lambda v: v[a] & v[b]
    if op == "bvor":
        a, b = args
        return lambda v: v[a] | v[b]
    if op == "bvxor":
        a, b = args
        return lambda v: v[a] ^ v[b]
    if op == "bvnot":
        (a,) = args
        return lambda v: ~v[a] & m
    if op == "shl":
        a, b = args
        return lambda v: (v[a] << v[b]) & m if v[b] < width else 0
    if op == "lshr":
        a, b = args
        return lambda v: v[a] >> v[b] if v[b] < width else 0
    if op == "ashr":
        a, b = args
        return lambda v: _ashr(v[a], v[b], width)
    if op == "concat":
        a, b = args
        low_width = node.args[1].width
        return lambda v: (v[a] << low_width) | v[b]
    if op == "extract":
        (a,) = args
        high, low = node.attr
        field = t.mask(high - low + 1)
        return lambda v: (v[a] >> low) & field
    if op == "zext":
        (a,) = args
        return lambda v: v[a]
    if op == "sext":
        (a,) = args
        sign = 1 << (node.args[0].width - 1)
        return lambda v: ((v[a] ^ sign) - sign) & m
    if op == "eq":
        a, b = args
        return lambda v: v[a] == v[b]
    if op == "ult":
        a, b = args
        return lambda v: v[a] < v[b]
    if op == "slt":
        # Flipping the sign bit maps two's-complement order onto unsigned.
        a, b = args
        sign = 1 << (node.args[0].width - 1)
        return lambda v: v[a] ^ sign < v[b] ^ sign
    if op == "not":
        (a,) = args
        return lambda v: not v[a]
    if op == "and":
        operands = itemgetter(*args)  # and/or have at least two operands
        return lambda v: all(operands(v))
    if op == "or":
        operands = itemgetter(*args)
        return lambda v: any(operands(v))
    if op == "xorb":
        a, b = args
        return lambda v: v[a] != v[b]
    if op == "ite":
        c, a, b = args
        return lambda v: v[a] if v[c] else v[b]
    if op == "select":
        (a,) = args
        array, bits = node.attr
        mask_bits = t.mask(bits)
        return lambda v: select_handler(array, v[a], bits) & mask_bits
    raise EvalError(f"cannot evaluate operation {op!r}")
