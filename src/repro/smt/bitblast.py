"""Tseitin bit-blasting of boolean/bitvector terms into CNF.

A :class:`BitBlaster` owns a :class:`~repro.smt.sat.SatSolver` and encodes
terms on demand, caching the encoding per term node so shared subterms (the
term layer is hash-consed) are encoded exactly once.  The cache also makes
the blaster *reusable across goals*: a solver session that checks many
obligations sharing a conjunct prefix bit-blasts the prefix once, and each
later goal only encodes its delta (``encode_hits``/``encode_misses`` count
the sharing).

Bitvectors become little-endian lists of SAT literals (``bits[0]`` is the
least significant bit).  Constant bits are represented as the literal of a
reserved always-true variable (or its negation), which keeps every code
path uniform.
"""

from __future__ import annotations

from repro.smt import terms as t
from repro.smt.sat import SatSolver
from repro.smt.terms import BOOL, Term

Bits = list[int]


class BitBlaster:
    def __init__(self, solver: SatSolver | None = None):
        self.solver = solver or SatSolver()
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._bool_cache: dict[Term, int] = {}
        self._bv_cache: dict[Term, Bits] = {}
        self._var_bits: dict[str, Bits] = {}
        self._bool_vars: dict[str, int] = {}
        self.encode_hits = 0
        self.encode_misses = 0

    # -- small gate helpers ---------------------------------------------------

    def const_lit(self, value: bool) -> int:
        return self._true if value else -self._true

    def _fresh(self) -> int:
        return self.solver.new_var()

    def _and_gate(self, literals: list[int]) -> int:
        literals = [lit for lit in literals if lit != self._true]
        if any(lit == -self._true for lit in literals):
            return -self._true
        if not literals:
            return self._true
        if len(literals) == 1:
            return literals[0]
        gate = self._fresh()
        for lit in literals:
            self.solver.add_clause([-gate, lit])
        self.solver.add_clause([gate] + [-lit for lit in literals])
        return gate

    def _or_gate(self, literals: list[int]) -> int:
        return -self._and_gate([-lit for lit in literals])

    def _xor_gate(self, a: int, b: int) -> int:
        if a == self._true:
            return -b
        if a == -self._true:
            return b
        if b == self._true:
            return -a
        if b == -self._true:
            return a
        if a == b:
            return -self._true
        if a == -b:
            return self._true
        gate = self._fresh()
        self.solver.add_clause([-gate, a, b])
        self.solver.add_clause([-gate, -a, -b])
        self.solver.add_clause([gate, -a, b])
        self.solver.add_clause([gate, a, -b])
        return gate

    def _iff_gate(self, a: int, b: int) -> int:
        return -self._xor_gate(a, b)

    def _mux_gate(self, cond: int, then: int, other: int) -> int:
        """out = cond ? then : other."""
        if cond == self._true:
            return then
        if cond == -self._true:
            return other
        if then == other:
            return then
        gate = self._fresh()
        self.solver.add_clause([-cond, -then, gate])
        self.solver.add_clause([-cond, then, -gate])
        self.solver.add_clause([cond, -other, gate])
        self.solver.add_clause([cond, other, -gate])
        return gate

    def _full_adder(self, a: int, b: int, carry: int) -> tuple[int, int]:
        """Returns (sum, carry_out)."""
        total = self._xor_gate(self._xor_gate(a, b), carry)
        carry_out = self._or_gate(
            [
                self._and_gate([a, b]),
                self._and_gate([a, carry]),
                self._and_gate([b, carry]),
            ]
        )
        return total, carry_out

    # -- bitvector circuits ----------------------------------------------------

    def _const_bits(self, value: int, width: int) -> Bits:
        return [self.const_lit(bool((value >> i) & 1)) for i in range(width)]

    def _add_bits(self, a: Bits, b: Bits) -> Bits:
        carry = -self._true
        out: Bits = []
        for bit_a, bit_b in zip(a, b):
            total, carry = self._full_adder(bit_a, bit_b, carry)
            out.append(total)
        return out

    def _neg_bits(self, a: Bits) -> Bits:
        inverted = [-bit for bit in a]
        one = self._const_bits(1, len(a))
        return self._add_bits(inverted, one)

    def _mul_bits(self, a: Bits, b: Bits) -> Bits:
        width = len(a)
        accumulator = self._const_bits(0, width)
        for shift in range(width):
            partial = [
                self._and_gate([a[i - shift], b[shift]]) if i >= shift else -self._true
                for i in range(width)
            ]
            accumulator = self._add_bits(accumulator, partial)
        return accumulator

    def _ult_bits(self, a: Bits, b: Bits) -> int:
        """a <u b as a single literal."""
        less = -self._true
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            bit_lt = self._and_gate([-bit_a, bit_b])
            bit_eq = self._iff_gate(bit_a, bit_b)
            less = self._or_gate([bit_lt, self._and_gate([bit_eq, less])])
        return less

    def _eq_bits(self, a: Bits, b: Bits) -> int:
        return self._and_gate(
            [self._iff_gate(bit_a, bit_b) for bit_a, bit_b in zip(a, b)]
        )

    def _shift_bits(self, a: Bits, amount: Bits, kind: str) -> Bits:
        """Barrel shifter; kind in {'shl','lshr','ashr'}."""
        width = len(a)
        fill = a[-1] if kind == "ashr" else -self._true
        current = list(a)
        stage = 0
        while (1 << stage) < width:
            shift_by = 1 << stage
            control = amount[stage]
            shifted: Bits = []
            for i in range(width):
                if kind == "shl":
                    source = current[i - shift_by] if i >= shift_by else -self._true
                else:
                    source = current[i + shift_by] if i + shift_by < width else fill
                shifted.append(self._mux_gate(control, source, current[i]))
            current = shifted
            stage += 1
        # If any higher bit of the shift amount is set, the shift is >= width.
        high_bits = amount[stage:]
        overflow = self._or_gate(high_bits) if high_bits else -self._true
        out_of_range_fill = fill if kind == "ashr" else -self._true
        return [self._mux_gate(overflow, out_of_range_fill, bit) for bit in current]

    # -- term encoders ------------------------------------------------------------

    def bool_var_lit(self, name: str) -> int:
        lit = self._bool_vars.get(name)
        if lit is None:
            lit = self._bool_vars[name] = self._fresh()
        return lit

    def bv_var_bits(self, name: str, width: int) -> Bits:
        bits = self._var_bits.get(name)
        if bits is None:
            bits = self._var_bits[name] = [self._fresh() for _ in range(width)]
        if len(bits) != width:
            raise ValueError(
                f"variable {name!r} used at widths {len(bits)} and {width}"
            )
        return bits

    def encode_bool(self, term: Term) -> int:
        """Encode a boolean term; returns its literal."""
        if term.sort is not BOOL:
            raise TypeError(f"expected boolean term, got {term!r}")
        cached = self._bool_cache.get(term)
        if cached is not None:
            self.encode_hits += 1
            return cached
        self.encode_misses += 1
        lit = self._encode_bool_uncached(term)
        self._bool_cache[term] = lit
        return lit

    def _encode_bool_uncached(self, term: Term) -> int:
        op = term.op
        if op == "boolconst":
            return self.const_lit(term.value)
        if op == "boolvar":
            return self.bool_var_lit(term.name)
        if op == "not":
            return -self.encode_bool(term.args[0])
        if op == "and":
            return self._and_gate([self.encode_bool(arg) for arg in term.args])
        if op == "or":
            return self._or_gate([self.encode_bool(arg) for arg in term.args])
        if op == "xorb":
            return self._xor_gate(
                self.encode_bool(term.args[0]), self.encode_bool(term.args[1])
            )
        if op == "eq":
            return self._eq_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "ult":
            return self._ult_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "slt":
            a = self.encode_bv(term.args[0])
            b = self.encode_bv(term.args[1])
            # Signed comparison == unsigned comparison with MSB flipped.
            return self._ult_bits(a[:-1] + [-a[-1]], b[:-1] + [-b[-1]])
        if op == "ite":
            return self._mux_gate(
                self.encode_bool(term.args[0]),
                self.encode_bool(term.args[1]),
                self.encode_bool(term.args[2]),
            )
        raise ValueError(f"cannot encode boolean operation {op!r}")

    def encode_bv(self, term: Term) -> Bits:
        """Encode a bitvector term; returns its little-endian literal list."""
        cached = self._bv_cache.get(term)
        if cached is not None:
            self.encode_hits += 1
            return cached
        self.encode_misses += 1
        bits = self._encode_bv_uncached(term)
        if len(bits) != term.width:
            raise AssertionError(
                f"encoding width mismatch for {term.op}: {len(bits)} != {term.width}"
            )
        self._bv_cache[term] = bits
        return bits

    def _encode_bv_uncached(self, term: Term) -> Bits:
        op = term.op
        width = term.width
        if op == "bvconst":
            return self._const_bits(term.value, width)
        if op == "bvvar":
            return self.bv_var_bits(term.name, width)
        if op == "add":
            return self._add_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "neg":
            return self._neg_bits(self.encode_bv(term.args[0]))
        if op == "mul":
            return self._mul_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op in ("udiv", "urem"):
            return self._encode_udiv_urem(term)
        if op in ("sdiv", "srem"):
            return self._encode_signed_div(term)
        if op == "bvand":
            return [
                self._and_gate([bit_a, bit_b])
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvor":
            return [
                self._or_gate([bit_a, bit_b])
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvxor":
            return [
                self._xor_gate(bit_a, bit_b)
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvnot":
            return [-bit for bit in self.encode_bv(term.args[0])]
        if op in ("shl", "lshr", "ashr"):
            return self._shift_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), op
            )
        if op == "concat":
            high, low = term.args
            return self.encode_bv(low) + self.encode_bv(high)
        if op == "extract":
            high, low = term.attr
            return self.encode_bv(term.args[0])[low : high + 1]
        if op == "zext":
            inner = self.encode_bv(term.args[0])
            return inner + [-self._true] * (width - len(inner))
        if op == "sext":
            inner = self.encode_bv(term.args[0])
            return inner + [inner[-1]] * (width - len(inner))
        if op == "ite":
            cond = self.encode_bool(term.args[0])
            then = self.encode_bv(term.args[1])
            other = self.encode_bv(term.args[2])
            return [
                self._mux_gate(cond, bit_t, bit_o)
                for bit_t, bit_o in zip(then, other)
            ]
        if op == "select":
            # Uninterpreted: fresh bits per distinct select term.  Functional
            # consistency is supplied by the solver façade's Ackermann pass.
            return [self._fresh() for _ in range(width)]
        raise ValueError(f"cannot encode bitvector operation {op!r}")

    def _encode_udiv_urem(self, term: Term) -> Bits:
        """Encode both quotient and remainder with auxiliary variables.

        We assert the defining relation once per (dividend, divisor) pair:
        ``b != 0  ->  a == b*q + r  and  r <u b`` computed at double width so
        the multiplication cannot wrap, and the SMT-LIB division-by-zero
        convention (``q = ~0``, ``r = a``).
        """
        a, b = term.args
        width = term.width
        key_q = t.Term("udiv", (a, b), (), t.bv_sort(width))
        key_r = t.Term("urem", (a, b), (), t.bv_sort(width))
        if key_q in self._bv_cache and key_r in self._bv_cache:
            return self._bv_cache[key_q if term.op == "udiv" else key_r]
        bits_q = [self._fresh() for _ in range(width)]
        bits_r = [self._fresh() for _ in range(width)]
        self._bv_cache[key_q] = bits_q
        self._bv_cache[key_r] = bits_r
        bits_a = self.encode_bv(a)
        bits_b = self.encode_bv(b)
        pad = [-self._true] * width
        wide_q = bits_q + pad
        wide_b = bits_b + pad
        wide_r = bits_r + pad
        wide_a = bits_a + pad
        product = self._mul_bits(wide_q, wide_b)
        total = self._add_bits(product, wide_r)
        relation = self._and_gate(
            [self._eq_bits(total, wide_a), self._ult_bits(bits_r, bits_b)]
        )
        b_is_zero = self._eq_bits(bits_b, self._const_bits(0, width))
        zero_case = self._and_gate(
            [
                self._eq_bits(bits_q, self._const_bits(t.mask(width), width)),
                self._eq_bits(bits_r, bits_a),
            ]
        )
        self.solver.add_clause(
            [self._mux_gate(b_is_zero, zero_case, relation)]
        )
        return bits_q if term.op == "udiv" else bits_r

    def _encode_signed_div(self, term: Term) -> Bits:
        """Rewrite sdiv/srem into sign-handled udiv/urem terms and encode."""
        a, b = term.args
        width = term.width
        zero_term = t.zero(width)
        neg_a = t.slt(a, zero_term)
        neg_b = t.slt(b, zero_term)
        abs_a = t.ite(neg_a, t.neg(a), a)
        abs_b = t.ite(neg_b, t.neg(b), b)
        if term.op == "sdiv":
            quotient = t.udiv(abs_a, abs_b)
            signed = t.ite(
                t.xor_bool(neg_a, neg_b), t.neg(quotient), quotient
            )
            # SMT-LIB: sdiv by zero is -1 when a >= 0, +1 when a < 0.
            by_zero = t.ite(neg_a, t.bv_const(1, width), t.ones(width))
            result = t.ite(t.eq(b, zero_term), by_zero, signed)
        else:
            remainder = t.urem(abs_a, abs_b)
            signed = t.ite(neg_a, t.neg(remainder), remainder)
            result = t.ite(t.eq(b, zero_term), a, signed)
        return self.encode_bv(result)

    # -- top-level assertion / model extraction -------------------------------------

    def assert_term(self, term: Term) -> None:
        self.solver.add_clause([self.encode_bool(term)])

    def model_bv(self, term: Term) -> int:
        """Read the value of an encoded bitvector from the SAT model."""
        bits = self.encode_bv(term)
        value = 0
        for index, lit in enumerate(bits):
            var = abs(lit)
            bit = self.solver.model_value(var)
            if lit < 0:
                bit = not bit
            if bit:
                value |= 1 << index
        return value

    def model_bool(self, term: Term) -> bool:
        lit = self.encode_bool(term)
        value = self.solver.model_value(abs(lit))
        return value if lit > 0 else not value
