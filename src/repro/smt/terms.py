"""Hash-consed boolean/bitvector term DAG.

Terms are immutable and interned: structurally equal terms are the *same*
Python object, so equality is ``is`` (and ``==``), hashing is O(1), and
common-subexpression sharing is automatic during symbolic execution.

Smart constructors perform constant folding and a small set of cheap,
always-beneficial identities (``x + 0 -> x``, ``x ^ x -> 0``, ...).  The
heavier rewriting lives in :mod:`repro.smt.simplify`.

Semantics of the operations follow SMT-LIB's ``QF_BV`` theory:

- ``udiv`` by zero yields all-ones, ``urem`` by zero yields the dividend;
- ``sdiv``/``srem`` truncate toward zero, ``sdiv`` by zero yields -1/1
  depending on sign per SMT-LIB, ``srem`` by zero yields the dividend;
- shift amounts are unsigned; shifting by >= width yields 0 (or the sign
  fill for ``ashr``).
"""

from __future__ import annotations

from typing import Iterable

# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


class Sort:
    """Base class for term sorts (types)."""

    __slots__ = ()


class BoolSort(Sort):
    """The sort of propositions."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Bool"


class BVSort(Sort):
    """Fixed-width bitvector sort."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        self.width = width

    def __repr__(self) -> str:
        return f"BV{self.width}"


BOOL = BoolSort()

_BV_SORTS: dict[int, BVSort] = {}


def bv_sort(width: int) -> BVSort:
    """Return the interned bitvector sort of the given width."""
    sort = _BV_SORTS.get(width)
    if sort is None:
        sort = _BV_SORTS[width] = BVSort(width)
    return sort


BV1 = bv_sort(1)
BV8 = bv_sort(8)
BV16 = bv_sort(16)
BV32 = bv_sort(32)
BV64 = bv_sort(64)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_TABLE: dict[tuple, "Term"] = {}


class Term:
    """An interned term node.

    ``op`` is the operation tag (e.g. ``"add"``), ``args`` the child terms,
    and ``attr`` non-term attributes (a constant's value, a variable's name,
    extract bounds, ...).  Do not construct directly — use the module-level
    smart constructors.
    """

    __slots__ = ("op", "args", "attr", "sort", "_hash", "serial")

    op: str
    args: tuple["Term", ...]
    attr: tuple
    sort: Sort
    serial: int

    def __new__(cls, op: str, args: tuple, attr: tuple, sort: Sort) -> "Term":
        key = (op, args, attr, sort)
        found = _TABLE.get(key)
        if found is not None:
            return found
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.attr = attr
        self.sort = sort
        self._hash = hash(key)
        self.serial = len(_TABLE)
        _TABLE[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    # Interning makes identity equality correct; inherit object.__eq__.

    @property
    def width(self) -> int:
        """Width of a bitvector term; raises for booleans."""
        sort = self.sort
        if not isinstance(sort, BVSort):
            raise TypeError(f"term {self!r} is not a bitvector")
        return sort.width

    def is_const(self) -> bool:
        return self.op in ("bvconst", "boolconst")

    def is_var(self) -> bool:
        return self.op in ("bvvar", "boolvar")

    @property
    def value(self):
        """Constant value (int for bitvectors, bool for booleans)."""
        if not self.is_const():
            raise TypeError(f"term {self!r} is not a constant")
        return self.attr[0]

    @property
    def name(self) -> str:
        """Variable name."""
        if not self.is_var():
            raise TypeError(f"term {self!r} is not a variable")
        return self.attr[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.smt.printer import to_str

        return to_str(self)


def interned_count() -> int:
    """Number of live interned terms (diagnostics / tests)."""
    return len(_TABLE)


# ---------------------------------------------------------------------------
# Integer helpers
# ---------------------------------------------------------------------------


def mask(width: int) -> int:
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Reduce an integer to its unsigned ``width``-bit representation."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's-complement."""
    value = truncate(value, width)
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def min_signed(width: int) -> int:
    return -(1 << (width - 1))


# ---------------------------------------------------------------------------
# Boolean constructors
# ---------------------------------------------------------------------------


def bool_const(value: bool) -> Term:
    return Term("boolconst", (), (bool(value),), BOOL)


TRUE = bool_const(True)
FALSE = bool_const(False)


def true() -> Term:
    return TRUE


def false() -> Term:
    return FALSE


def bool_var(name: str) -> Term:
    return Term("boolvar", (), (name,), BOOL)


def _expect_bool(term: Term, what: str) -> None:
    if term.sort is not BOOL:
        raise TypeError(f"{what} expects a boolean, got {term.sort!r}")


def not_(a: Term) -> Term:
    _expect_bool(a, "not")
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return Term("not", (a,), (), BOOL)


def _flatten(op: str, operands: Iterable[Term], unit: Term, zero: Term) -> Term:
    """Build a flattened, duplicate-free n-ary and/or."""
    seen: set[Term] = set()
    #: the atoms ``x`` of the kept ``not x`` children
    negated: set[Term] = set()
    flat: list[Term] = []
    for operand in operands:
        _expect_bool(operand, op)
        if operand is unit:
            continue
        if operand is zero:
            return zero
        children = operand.args if operand.op == op else (operand,)
        for child in children:
            if child is zero:
                return zero
            if child is unit or child in seen:
                continue
            # x AND NOT x -> false ; x OR NOT x -> true.  Matched by atom and
            # polarity, so testing a child interns no negation.
            if child.op == "not":
                atom = child.args[0]
                if atom in seen:
                    return zero
                negated.add(atom)
            elif child in negated:
                return zero
            seen.add(child)
            flat.append(child)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return Term(op, tuple(flat), (), BOOL)


def and_(*operands: Term) -> Term:
    return _flatten("and", operands, TRUE, FALSE)


def or_(*operands: Term) -> Term:
    return _flatten("or", operands, FALSE, TRUE)


def conj(operands: Iterable[Term]) -> Term:
    return and_(*operands)


def disj(operands: Iterable[Term]) -> Term:
    return or_(*operands)


def xor_bool(a: Term, b: Term) -> Term:
    _expect_bool(a, "xor")
    _expect_bool(b, "xor")
    if a is b:
        return FALSE
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return not_(b)
    if b is TRUE:
        return not_(a)
    return Term("xorb", (a, b), (), BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def iff(a: Term, b: Term) -> Term:
    return not_(xor_bool(a, b))


# ---------------------------------------------------------------------------
# Bitvector constructors
# ---------------------------------------------------------------------------


def bv_const(value: int, width: int) -> Term:
    return Term("bvconst", (), (truncate(value, width),), bv_sort(width))


def bv_var(name: str, width: int) -> Term:
    return Term("bvvar", (), (name,), bv_sort(width))


def zero(width: int) -> Term:
    return bv_const(0, width)


def ones(width: int) -> Term:
    return bv_const(mask(width), width)


def _expect_bv(term: Term, what: str) -> BVSort:
    if not isinstance(term.sort, BVSort):
        raise TypeError(f"{what} expects a bitvector, got {term.sort!r}")
    return term.sort


def _expect_same_width(a: Term, b: Term, what: str) -> int:
    sort_a = _expect_bv(a, what)
    sort_b = _expect_bv(b, what)
    if sort_a.width != sort_b.width:
        raise TypeError(
            f"{what} expects equal widths, got {sort_a.width} and {sort_b.width}"
        )
    return sort_a.width


def add(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "add")
    if a.is_const() and b.is_const():
        return bv_const(a.value + b.value, width)
    if a.is_const() and a.value == 0:
        return b
    if b.is_const() and b.value == 0:
        return a
    # Canonical order: constants last so (x + 1) + 2 folds via simplify.
    if a.is_const():
        a, b = b, a
    # Re-associate (x + c1) + c2 -> x + (c1 + c2).
    if b.is_const() and a.op == "add" and a.args[1].is_const():
        return add(a.args[0], bv_const(a.args[1].value + b.value, width))
    if not b.is_const() and a.serial > b.serial:
        a, b = b, a  # commutative canonical order
    return Term("add", (a, b), (), bv_sort(width))


def neg(a: Term) -> Term:
    sort = _expect_bv(a, "neg")
    if a.is_const():
        return bv_const(-a.value, sort.width)
    if a.op == "neg":
        return a.args[0]
    return Term("neg", (a,), (), sort)


def sub(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "sub")
    if a is b:
        return zero(width)
    if b.is_const():
        return add(a, bv_const(-b.value, width))
    return add(a, neg(b))


def mul(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "mul")
    if a.is_const() and b.is_const():
        return bv_const(a.value * b.value, width)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return zero(width)
        if b.value == 1:
            return a
    if not b.is_const() and a.serial > b.serial:
        a, b = b, a  # commutative canonical order
    return Term("mul", (a, b), (), bv_sort(width))


def udiv(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "udiv")
    if a.is_const() and b.is_const():
        if b.value == 0:
            return ones(width)
        return bv_const(a.value // b.value, width)
    if b.is_const() and b.value == 1:
        return a
    return Term("udiv", (a, b), (), bv_sort(width))


def urem(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "urem")
    if a.is_const() and b.is_const():
        if b.value == 0:
            return a
        return bv_const(a.value % b.value, width)
    return Term("urem", (a, b), (), bv_sort(width))


def _sdiv_int(lhs: int, rhs: int) -> int:
    """Truncating signed division, as in SMT-LIB bvsdiv."""
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def sdiv(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "sdiv")
    if a.is_const() and b.is_const():
        lhs = to_signed(a.value, width)
        rhs = to_signed(b.value, width)
        if rhs == 0:
            return ones(width) if lhs >= 0 else bv_const(1, width)
        return bv_const(_sdiv_int(lhs, rhs), width)
    return Term("sdiv", (a, b), (), bv_sort(width))


def srem(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "srem")
    if a.is_const() and b.is_const():
        lhs = to_signed(a.value, width)
        rhs = to_signed(b.value, width)
        if rhs == 0:
            return a
        return bv_const(lhs - rhs * _sdiv_int(lhs, rhs), width)
    return Term("srem", (a, b), (), bv_sort(width))


def bvand(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "and")
    if a is b:
        return a
    if a.is_const() and b.is_const():
        return bv_const(a.value & b.value, width)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return zero(width)
        if b.value == mask(width):
            return a
    if not b.is_const() and a.serial > b.serial:
        a, b = b, a  # commutative canonical order
    return Term("bvand", (a, b), (), bv_sort(width))


def bvor(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "or")
    if a is b:
        return a
    if a.is_const() and b.is_const():
        return bv_const(a.value | b.value, width)
    if a.is_const():
        a, b = b, a
    if b.is_const():
        if b.value == 0:
            return a
        if b.value == mask(width):
            return ones(width)
    if not b.is_const() and a.serial > b.serial:
        a, b = b, a  # commutative canonical order
    return Term("bvor", (a, b), (), bv_sort(width))


def bvxor(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "xor")
    if a is b:
        return zero(width)
    if a.is_const() and b.is_const():
        return bv_const(a.value ^ b.value, width)
    if a.is_const():
        a, b = b, a
    if b.is_const() and b.value == 0:
        return a
    if not b.is_const() and a.serial > b.serial:
        a, b = b, a  # commutative canonical order
    return Term("bvxor", (a, b), (), bv_sort(width))


def bvnot(a: Term) -> Term:
    sort = _expect_bv(a, "not")
    if a.is_const():
        return bv_const(~a.value, sort.width)
    if a.op == "bvnot":
        return a.args[0]
    return Term("bvnot", (a,), (), sort)


def shl(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "shl")
    if b.is_const():
        shift = b.value
        if shift == 0:
            return a
        if shift >= width:
            return zero(width)
        if a.is_const():
            return bv_const(a.value << shift, width)
    return Term("shl", (a, b), (), bv_sort(width))


def lshr(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "lshr")
    if b.is_const():
        shift = b.value
        if shift == 0:
            return a
        if shift >= width:
            return zero(width)
        if a.is_const():
            return bv_const(a.value >> shift, width)
    return Term("lshr", (a, b), (), bv_sort(width))


def ashr(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "ashr")
    if b.is_const():
        shift = b.value
        if shift == 0:
            return a
        if a.is_const():
            signed = to_signed(a.value, width)
            return bv_const(signed >> min(shift, width - 1), width)
        if shift >= width:
            shift = width  # canonical "all sign bits" form below
            return Term("ashr", (a, bv_const(width, width)), (), bv_sort(width))
    return Term("ashr", (a, b), (), bv_sort(width))


def concat(hi: Term, lo: Term) -> Term:
    """Concatenate bitvectors; ``hi`` supplies the most significant bits."""
    sort_hi = _expect_bv(hi, "concat")
    sort_lo = _expect_bv(lo, "concat")
    width = sort_hi.width + sort_lo.width
    if hi.is_const() and lo.is_const():
        return bv_const((hi.value << sort_lo.width) | lo.value, width)
    # Fuse adjacent extracts of the same term: x[15:8] ++ x[7:0] -> x[15:0].
    # This is what lets a pointer written to memory byte-by-byte round-trip
    # back into a recognizable base+offset term on load.
    if (
        hi.op == "extract"
        and lo.op == "extract"
        and hi.args[0] is lo.args[0]
        and hi.attr[1] == lo.attr[0] + 1
    ):
        return extract(lo.args[0], hi.attr[0], lo.attr[1])
    if hi.is_const() and hi.value == 0:
        return zext(lo, width)
    # Normalize right-leaning concats so extract fusion fires on byte chains:
    # (a ++ (b ++ c)) with a,b fusible is reached via left association.
    if lo.op == "concat":
        fused = concat(hi, lo.args[0])
        if fused.op != "concat":
            return concat(fused, lo.args[1])
    return Term("concat", (hi, lo), (), bv_sort(width))


def extract(a: Term, high: int, low: int) -> Term:
    """Bits ``high..low`` inclusive (SMT-LIB extract)."""
    sort = _expect_bv(a, "extract")
    if not (0 <= low <= high < sort.width):
        raise ValueError(f"extract [{high}:{low}] out of range for width {sort.width}")
    width = high - low + 1
    if width == sort.width:
        return a
    if a.is_const():
        return bv_const(a.value >> low, width)
    if a.op == "extract":
        inner_low = a.attr[1]
        return extract(a.args[0], inner_low + high, inner_low + low)
    if a.op == "concat":
        hi_part, lo_part = a.args
        lo_width = lo_part.width
        if high < lo_width:
            return extract(lo_part, high, low)
        if low >= lo_width:
            return extract(hi_part, high - lo_width, low - lo_width)
    if a.op == "zext":
        inner = a.args[0]
        if high < inner.width:
            return extract(inner, high, low)
        if low >= inner.width:
            return zero(width)
    return Term("extract", (a,), (high, low), bv_sort(width))


def zext(a: Term, width: int) -> Term:
    sort = _expect_bv(a, "zext")
    if width < sort.width:
        raise ValueError(f"zext to {width} narrower than {sort.width}")
    if width == sort.width:
        return a
    if a.is_const():
        return bv_const(a.value, width)
    if a.op == "zext":
        return zext(a.args[0], width)
    return Term("zext", (a,), (width,), bv_sort(width))


def sext(a: Term, width: int) -> Term:
    sort = _expect_bv(a, "sext")
    if width < sort.width:
        raise ValueError(f"sext to {width} narrower than {sort.width}")
    if width == sort.width:
        return a
    if a.is_const():
        return bv_const(to_signed(a.value, sort.width), width)
    if a.op == "sext":
        return sext(a.args[0], width)
    return Term("sext", (a,), (width,), bv_sort(width))


def trunc(a: Term, width: int) -> Term:
    """Keep the low ``width`` bits (LLVM trunc)."""
    sort = _expect_bv(a, "trunc")
    if width > sort.width:
        raise ValueError(f"trunc to {width} wider than {sort.width}")
    if width == sort.width:
        return a
    return extract(a, width - 1, 0)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def eq(a: Term, b: Term) -> Term:
    if a.sort is BOOL and b.sort is BOOL:
        return iff(a, b)
    width = _expect_same_width(a, b, "eq")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return bool_const(a.value == b.value)
    # eq(ite(c, k1, k2), k) with constant branches folds to c / !c / false.
    for branchy, other in ((a, b), (b, a)):
        if (
            other.is_const()
            and branchy.op == "ite"
            and branchy.args[1].is_const()
            and branchy.args[2].is_const()
        ):
            cond, then, els = branchy.args
            if other is then:
                return cond
            if other is els:
                return not_(cond)
            return FALSE
    # Canonical arg order for the symmetric operation (interning stability).
    if a.serial > b.serial:
        a, b = b, a
    del width
    return Term("eq", (a, b), (), BOOL)


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "ult")
    if a is b:
        return FALSE
    if a.is_const() and b.is_const():
        return bool_const(a.value < b.value)
    if b.is_const() and b.value == 0:
        return FALSE
    if a.is_const() and a.value == mask(width):
        return FALSE
    return Term("ult", (a, b), (), BOOL)


def ule(a: Term, b: Term) -> Term:
    return not_(ult(b, a))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def uge(a: Term, b: Term) -> Term:
    return not_(ult(a, b))


def slt(a: Term, b: Term) -> Term:
    width = _expect_same_width(a, b, "slt")
    if a is b:
        return FALSE
    if a.is_const() and b.is_const():
        return bool_const(to_signed(a.value, width) < to_signed(b.value, width))
    return Term("slt", (a, b), (), BOOL)


def sle(a: Term, b: Term) -> Term:
    return not_(slt(b, a))


def sgt(a: Term, b: Term) -> Term:
    return slt(b, a)


def sge(a: Term, b: Term) -> Term:
    return not_(slt(a, b))


# ---------------------------------------------------------------------------
# If-then-else (both sorts)
# ---------------------------------------------------------------------------


def ite(cond: Term, then: Term, other: Term) -> Term:
    _expect_bool(cond, "ite")
    if then.sort is not other.sort:
        raise TypeError(
            f"ite branches must share a sort, got {then.sort!r} and {other.sort!r}"
        )
    if cond is TRUE:
        return then
    if cond is FALSE:
        return other
    if then is other:
        return then
    if cond.op == "not":
        return ite(cond.args[0], other, then)
    if then.sort is BOOL:
        if then is TRUE and other is FALSE:
            return cond
        if then is FALSE and other is TRUE:
            return not_(cond)
        return or_(and_(cond, then), and_(not_(cond), other))
    return Term("ite", (cond, then, other), (), then.sort)


def bool_to_bv(cond: Term, width: int = 1) -> Term:
    """Encode a boolean as a 0/1 bitvector of the given width."""
    return ite(cond, bv_const(1, width), zero(width))


def bv_to_bool(a: Term) -> Term:
    """Interpret a bitvector as a boolean: true iff non-zero."""
    sort = _expect_bv(a, "bv_to_bool")
    return ne(a, zero(sort.width))


def select(array: str, offset: Term, width: int = 8) -> Term:
    """Uninterpreted read of the *initial* contents of a memory object.

    The memory model (see :mod:`repro.memory.model`) resolves store chains
    itself; ``select`` only appears when a read at a symbolic offset reaches
    the unwritten initial bytes of an object.  The solver façade applies
    Ackermann congruence lemmas (equal offsets imply equal bytes) before
    bit-blasting, which is the fragment of the array theory we need.
    """
    _expect_bv(offset, "select")
    return Term("select", (offset,), (array, width), bv_sort(width))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def free_vars(term: Term) -> frozenset[Term]:
    """All variable terms appearing in ``term`` (cached per term)."""
    cache: dict[Term, frozenset[Term]] = _FREE_VARS_CACHE
    found = cache.get(term)
    if found is not None:
        return found
    stack = [term]
    pending: list[Term] = []
    while stack:
        node = stack.pop()
        if node in cache:
            continue
        pending.append(node)
        stack.extend(arg for arg in node.args if arg not in cache)
    for node in reversed(pending):
        if node in cache:
            continue
        if node.is_var():
            cache[node] = frozenset((node,))
        elif not node.args:
            cache[node] = _EMPTY_VARS
        else:
            merged: frozenset[Term] = _EMPTY_VARS
            for arg in node.args:
                merged = merged | cache[arg]
            cache[node] = merged
    return cache[term]


_EMPTY_VARS: frozenset[Term] = frozenset()
_FREE_VARS_CACHE: dict[Term, frozenset[Term]] = {}


def size(term: Term) -> int:
    """Number of distinct nodes in the term DAG."""
    seen: set[Term] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.args)
    return len(seen)
