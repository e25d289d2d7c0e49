"""Term substitution and a bottom-up rewriting simplifier.

The smart constructors in :mod:`repro.smt.terms` already fold constants and
apply cheap local identities.  This module adds:

- :func:`substitute` — capture-free substitution of variables (or arbitrary
  subterms) by terms, used by KEQ to apply synchronization-point equality
  constraints before issuing solver queries;
- :func:`simplify` — a bottom-up re-construction pass that re-runs every
  smart constructor (so local identities fire on terms built by
  substitution) plus a handful of deeper rewrites that matter for the
  queries KEQ generates (compare-with-subtraction patterns from x86 flags,
  double negation of comparisons, ite hoisting over extract, a linear
  normal form for sums, and three rules that make one relation one term
  however a target spells it: comparisons spelled through flags, an xor of
  an ite with constant arms, xor tests for equality);
- :func:`propagate_literals` — substitution of a conjunction's top-level
  literals into its other conjuncts, which the solver runs last among its
  fast paths to refute goals before bit-blasting.
"""

from __future__ import annotations

from typing import Mapping

from repro.smt import terms as t
from repro.smt.terms import BOOL, Term


def _rebuild(term: Term, args: tuple[Term, ...]) -> Term:
    """Re-apply the smart constructor for ``term.op`` with new arguments."""
    op = term.op
    if op == "add":
        return t.add(*args)
    if op == "neg":
        return t.neg(args[0])
    if op == "mul":
        return t.mul(*args)
    if op == "udiv":
        return t.udiv(*args)
    if op == "urem":
        return t.urem(*args)
    if op == "sdiv":
        return t.sdiv(*args)
    if op == "srem":
        return t.srem(*args)
    if op == "bvand":
        return t.bvand(*args)
    if op == "bvor":
        return t.bvor(*args)
    if op == "bvxor":
        return t.bvxor(*args)
    if op == "bvnot":
        return t.bvnot(args[0])
    if op == "shl":
        return t.shl(*args)
    if op == "lshr":
        return t.lshr(*args)
    if op == "ashr":
        return t.ashr(*args)
    if op == "concat":
        return t.concat(*args)
    if op == "extract":
        return t.extract(args[0], term.attr[0], term.attr[1])
    if op == "zext":
        return t.zext(args[0], term.attr[0])
    if op == "sext":
        return t.sext(args[0], term.attr[0])
    if op == "eq":
        return t.eq(*args)
    if op == "ult":
        return t.ult(*args)
    if op == "slt":
        return t.slt(*args)
    if op == "not":
        return t.not_(args[0])
    if op == "and":
        return t.and_(*args)
    if op == "or":
        return t.or_(*args)
    if op == "xorb":
        return t.xor_bool(*args)
    if op == "ite":
        return t.ite(*args)
    if op == "select":
        return t.select(term.attr[0], args[0], term.attr[1])
    raise ValueError(f"cannot rebuild unknown operation {op!r}")


def substitute(term: Term, mapping: Mapping[Term, Term]) -> Term:
    """Replace every occurrence of each key of ``mapping`` by its value.

    Keys are matched as whole subterms (typically variables).  The result is
    rebuilt through the smart constructors, so constant folding fires.
    """
    if not mapping:
        return term
    cache: dict[Term, Term] = dict(mapping)
    return _substitute_cached(term, cache)


def _substitute_cached(term: Term, cache: dict[Term, Term]) -> Term:
    # Iterative post-order traversal: avoids recursion limits on deep terms.
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if not node.args:
            cache[node] = node
            continue
        if expanded:
            args = tuple(cache[arg] for arg in node.args)
            cache[node] = node if args == node.args else _rebuild(node, args)
        else:
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args if arg not in cache)
    return cache[term]


# ---------------------------------------------------------------------------
# Deeper rewrites
# ---------------------------------------------------------------------------


def _split_const_add(term: Term) -> tuple[Term, int]:
    """Decompose ``x + c`` into ``(x, c)``; plain terms get offset 0."""
    if term.op == "add" and term.args[1].is_const():
        return term.args[0], term.args[1].value
    if term.is_const():
        return t.zero(term.width), term.value
    return term, 0


def _flatten_xor(term: Term) -> Term:
    """Flatten an xor chain, cancel duplicate leaves, fold constants."""
    leaves: list[Term] = []
    constant = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if node.op == "bvxor":
            stack.extend(node.args)
        elif node.is_const():
            constant ^= node.value
        else:
            leaves.append(node)
    counts: dict[Term, int] = {}
    for leaf in leaves:
        counts[leaf] = counts.get(leaf, 0) + 1
    kept = sorted(
        (leaf for leaf, count in counts.items() if count % 2 == 1),
        key=lambda node: node.serial,
    )
    if len(kept) == len(leaves) and (constant == 0 or not leaves):
        return term  # nothing cancelled; keep the original shape
    result = t.bv_const(constant, term.width)
    for leaf in kept:
        result = t.bvxor(result, leaf)
    return result


_MAX_LINEAR_LEAVES = 48


def _flatten_add(term: Term) -> Term:
    """Normalize an add/neg/(mul-by-const)/(shl-by-const) tree to a sorted
    linear form.

    ``(x + (-c)) + s`` and ``x + ((-c) + s)`` differ structurally but not
    semantically; collecting coefficients and rebuilding in a canonical
    leaf order makes associativity differences disappear, so syntactic
    equality catches them before any solver work.  A shift ``x << k`` by a
    constant ``k < width`` is ``x * 2^k``, so a strength-reduced product
    such as ``x + (x << 2)`` normalizes to the ``x * 5`` it replaces.
    """
    width = term.width
    coefficients: dict[Term, int] = {}
    constant = 0
    stack: list[tuple[Term, int]] = [(term, 1)]
    count = 0
    while stack:
        node, sign = stack.pop()
        count += 1
        if count > _MAX_LINEAR_LEAVES:
            return term
        if node.op == "add":
            stack.append((node.args[0], sign))
            stack.append((node.args[1], sign))
        elif node.op == "neg":
            stack.append((node.args[0], -sign))
        elif node.is_const():
            constant += sign * node.value
        elif node.op == "mul" and node.args[1].is_const():
            base = node.args[0]
            coefficients[base] = coefficients.get(base, 0) + sign * node.args[1].value
        elif (
            node.op == "shl"
            and node.args[1].is_const()
            and node.args[1].value < width
        ):
            base = node.args[0]
            coefficients[base] = (
                coefficients.get(base, 0) + sign * (1 << node.args[1].value)
            )
        else:
            coefficients[node] = coefficients.get(node, 0) + sign
    parts: list[Term] = []
    for leaf in sorted(coefficients, key=lambda node: node.serial):
        coefficient = t.truncate(coefficients[leaf], width)
        if coefficient == 0:
            continue
        if coefficient == 1:
            parts.append(leaf)
        elif coefficient == t.mask(width):  # -1
            parts.append(t.neg(leaf))
        else:
            parts.append(t.mul(leaf, t.bv_const(coefficient, width)))
    result: Term | None = None
    for part in parts:
        result = part if result is None else t.add(result, part)
    if result is None:
        return t.bv_const(constant, width)
    if t.truncate(constant, width):
        result = t.add(result, t.bv_const(constant, width))
    return result


def _fuse_comparisons(term: Term) -> Term:
    """Rule 1: a comparison spelled through flags, as one atom.

    In a disjunction, ``a < b`` next to ``a == b`` is ``¬(b < a)``; in a
    conjunction, ``¬(a < b)`` next to ``¬(a == b)`` is ``b < a``; for
    signed and unsigned ``<``.  The equality is matched as an unordered
    operand pair, so the rule does not depend on term serial order.  Each
    equality fuses with the first comparison over its pair and is then
    gone; a second one stays as it is, so ``¬(a < b) ∧ ¬(b < a) ∧
    ¬(a == b)`` becomes ``b < a ∧ ¬(b < a)``, which is FALSE.
    """
    negated = term.op == "and"
    # One pass over the children; nothing is allocated until a candidate
    # shows up, because most conjunctions hold no equality at all.
    equalities: dict[tuple[Term, Term], Term] | None = None
    comparisons: list[tuple[Term, Term]] | None = None
    for child in term.args:
        atom = child
        if negated:
            if child.op != "not":
                continue
            atom = child.args[0]
        op = atom.op
        if op == "eq":
            if equalities is None:
                equalities = {}
            equalities[atom.args] = child
        elif op == "ult" or op == "slt":
            if comparisons is None:
                comparisons = []
            comparisons.append((child, atom))
    if equalities is None or comparisons is None:
        return term
    replaced: dict[Term, Term] = {}
    fused: set[Term] = set()
    for child, atom in comparisons:
        a, b = atom.args
        equality = equalities.pop((a, b), None)
        if equality is None:
            equality = equalities.pop((b, a), None)
            if equality is None:
                continue
        swapped = t.ult(b, a) if atom.op == "ult" else t.slt(b, a)
        replaced[child] = swapped if negated else t.not_(swapped)
        fused.add(equality)
    if not replaced:
        return term
    return _rebuild(
        term,
        tuple(
            replaced.get(child, child) for child in term.args if child not in fused
        ),
    )


def _rewrite_node(term: Term) -> Term:
    """One top-level rewrite step; returns ``term`` when nothing applies."""
    op = term.op
    if op == "add":
        return _flatten_add(term)
    if op == "or" or op == "and":
        return _fuse_comparisons(term)
    if op == "bvxor":
        # Rule 2: ite(c, k1, k2) ^ k -> ite(c, k1 ^ k, k2 ^ k); the
        # constructors keep the constant last.
        inner, const = term.args
        if (
            const.is_const()
            and inner.op == "ite"
            and inner.args[1].is_const()
            and inner.args[2].is_const()
        ):
            cond, then, other = inner.args
            return t.ite(
                cond,
                t.bv_const(then.value ^ const.value, term.width),
                t.bv_const(other.value ^ const.value, term.width),
            )
        return _flatten_xor(term)
    if op == "eq":
        lhs, rhs = term.args
        if lhs.sort is not BOOL:
            # Rule 3: an xor tested against a constant is an equality of its
            # operands: (x ^ y) == 0 -> x == y, (x ^ k) == c -> x == k ^ c.
            # A chain the rule below folds to `chain == 0` comes back here
            # split at its last leaf, which that rule leaves alone.
            for xor, const in ((lhs, rhs), (rhs, lhs)):
                if xor.op == "bvxor" and const.is_const():
                    x, y = xor.args
                    if y.is_const():
                        return t.eq(x, t.bv_const(y.value ^ const.value, x.width))
                    if const.value == 0:
                        return t.eq(x, y)
            # Equalities over xor chains normalize to `lhs ^ rhs == 0`,
            # letting shared leaves cancel.
            if lhs.op == "bvxor" or rhs.op == "bvxor":
                raw = t.Term("bvxor", (lhs, rhs), (), lhs.sort)
                folded = _flatten_xor(raw)
                if folded is not raw:
                    return t.eq(folded, t.zero(lhs.width))
        if lhs.sort is not BOOL:
            # (x + c1) == (x + c2)  ->  c1 == c2
            base_l, off_l = _split_const_add(lhs)
            base_r, off_r = _split_const_add(rhs)
            if base_l is base_r:
                return t.bool_const(
                    t.truncate(off_l, lhs.width) == t.truncate(off_r, lhs.width)
                )
            # zext(a) == zext(b)  ->  a == b   (zext is injective)
            if (
                lhs.op == rhs.op
                and lhs.op in ("zext", "sext")
                and lhs.args[0].width == rhs.args[0].width
            ):
                return t.eq(lhs.args[0], rhs.args[0])
            # zext(a) == c  ->  a == c' (when c fits) or false
            for ext, const in ((lhs, rhs), (rhs, lhs)):
                if ext.op == "zext" and const.is_const():
                    inner = ext.args[0]
                    if const.value <= t.mask(inner.width):
                        return t.eq(inner, t.bv_const(const.value, inner.width))
                    return t.FALSE
            # ite(c, a, b) == a with a != b constants -> c ; == b -> !c
            for branchy, other in ((lhs, rhs), (rhs, lhs)):
                if (
                    branchy.op == "ite"
                    and branchy.args[1].is_const()
                    and branchy.args[2].is_const()
                    and other.is_const()
                ):
                    cond, then, els = branchy.args
                    if other is then and other is not els:
                        return cond
                    if other is els and other is not then:
                        return t.not_(cond)
                    if other is not then and other is not els:
                        return t.FALSE
    elif op == "ult":
        lhs, rhs = term.args
        base_l, off_l = _split_const_add(lhs)
        base_r, off_r = _split_const_add(rhs)
        if base_l is base_r and off_l == off_r:
            return t.FALSE
        # zext(a) <u zext(b) -> a <u b
        if (
            lhs.op == "zext"
            and rhs.op == "zext"
            and lhs.args[0].width == rhs.args[0].width
        ):
            return t.ult(lhs.args[0], rhs.args[0])
        # zext(a) <u const-that-fits -> a <u const
        if lhs.op == "zext" and rhs.is_const():
            inner = lhs.args[0]
            if rhs.value <= t.mask(inner.width):
                return t.ult(inner, t.bv_const(rhs.value, inner.width))
            return t.TRUE
    elif op == "slt":
        lhs, rhs = term.args
        width = lhs.width
        # The x86 idiom ``(a - b) <s 0`` is *not* the same as ``a <s b`` in
        # general (overflow), but ``sext(a) - sext(b) <s 0`` on the wider
        # type is.  We match the exact-width-safe cases only.
        if (
            lhs.op == "add"
            and rhs.is_const()
            and rhs.value == 0
            and lhs.args[0].op == "sext"
            and lhs.args[1].op == "neg"
            and lhs.args[1].args[0].op == "sext"
        ):
            wide_a = lhs.args[0]
            wide_b = lhs.args[1].args[0]
            if (
                wide_a.args[0].width == wide_b.args[0].width
                and wide_a.args[0].width < width
            ):
                return t.slt(wide_a.args[0], wide_b.args[0])
        if (
            lhs.op == "sext"
            and rhs.op == "sext"
            and lhs.args[0].width == rhs.args[0].width
        ):
            return t.slt(lhs.args[0], rhs.args[0])
    elif op == "ite":
        cond, then, other = term.args
        if then.op == "ite" and then.args[0] is cond:
            return t.ite(cond, then.args[1], other)
        if other.op == "ite" and other.args[0] is cond:
            return t.ite(cond, then, other.args[2])
    elif op in ("zext", "sext"):
        inner = term.args[0]
        if inner.op == "ite" and (
            inner.args[1].is_const() or inner.args[2].is_const()
        ):
            builder = t.zext if op == "zext" else t.sext
            width = term.attr[0]
            return t.ite(
                inner.args[0],
                builder(inner.args[1], width),
                builder(inner.args[2], width),
            )
    elif op == "extract":
        inner = term.args[0]
        high, low = term.attr
        if inner.op == "ite":
            cond, then, other = inner.args
            if then.is_const() or other.is_const():
                return t.ite(
                    cond, t.extract(then, high, low), t.extract(other, high, low)
                )
        if inner.op in ("bvand", "bvor", "bvxor"):
            rebuilt = _rebuild(
                inner,
                (
                    t.extract(inner.args[0], high, low),
                    t.extract(inner.args[1], high, low),
                ),
            )
            return rebuilt
        if low == 0 and inner.op in ("add", "mul"):
            # Truncation distributes over modular add/mul.
            return _rebuild(
                inner,
                (
                    t.extract(inner.args[0], high, 0),
                    t.extract(inner.args[1], high, 0),
                ),
            )
        if low == 0 and inner.op == "neg":
            return t.neg(t.extract(inner.args[0], high, 0))
    return term


def simplify(term: Term, max_rounds: int = 4) -> Term:
    """Bottom-up simplification to a fixpoint (bounded by ``max_rounds``)."""
    for _ in range(max_rounds):
        rewritten = _simplify_once(term)
        if rewritten is term:
            return term
        term = rewritten
    return term


def _literal(conjunct: Term) -> tuple[Term, Term] | None:
    """``(atom, value)`` for a literal conjunct — an atom (any boolean term
    but a conjunction or disjunction) or its negation — else None."""
    atom, value = conjunct, t.TRUE
    if atom.op == "not":
        atom, value = atom.args[0], t.FALSE
    if atom.op == "and" or atom.op == "or":
        return None
    return atom, value


def propagate_literals(goal: Term, max_rounds: int = 4) -> Term:
    """Substitute a conjunction's top-level literals into its conjuncts.

    The goal entails each literal conjunct, so the literal's atom may be
    replaced by its truth value in every *other* conjunct (literals
    included) without changing what the goal means; never in the literal
    itself, which would drop the fact.  The result is simplified again,
    and the step repeats while it changes the goal, up to ``max_rounds``
    times.  A goal that becomes ``FALSE`` is unsatisfiable.

    This decides checks such as RISC-V's non-trapping ``remu`` under a
    path condition that already rules out a zero divisor, which
    bit-blasting would otherwise prove with two full multipliers.
    """
    for _ in range(max_rounds):
        if goal.op != "and":
            return goal
        literals = [_literal(conjunct) for conjunct in goal.args]
        facts = {
            literal[0]: literal[1] for literal in literals if literal is not None
        }
        if not facts:
            return goal
        shared = dict(facts)
        rebuilt = []
        for conjunct, literal in zip(goal.args, literals):
            if literal is None:
                rebuilt.append(_substitute_cached(conjunct, shared))
            else:
                others = dict(facts)
                del others[literal[0]]
                rebuilt.append(_substitute_cached(conjunct, others))
        rewritten = simplify(t.conj(rebuilt))
        if rewritten is goal:
            return goal
        goal = rewritten
    return goal


def _simplify_once(term: Term) -> Term:
    cache: dict[Term, Term] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if not node.args:
            cache[node] = node
            continue
        if expanded:
            args = tuple(cache[arg] for arg in node.args)
            rebuilt = node if args == node.args else _rebuild(node, args)
            cache[node] = _rewrite_node(rebuilt)
        else:
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args if arg not in cache)
    return cache[term]
