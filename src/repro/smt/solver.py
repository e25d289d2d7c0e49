"""Solver façade used by KEQ (plays the role Z3 plays in the paper).

Queries are first run through the rewriting simplifier; formulas that
normalize to a constant are answered without touching the SAT solver (the
common case for the equality-constraint checks KEQ emits, because
synchronization-point constraints are applied by substitution).  The rest
go through the per-solver memo, the shared query cache, the boolean
skeleton (which refutes), a bounded witness search (which satisfies) and
top-level literal propagation (which refutes); only what all of them
leave open is bit-blasted and decided by CDCL.

The façade also implements the paper's *positive-form optimization*
(Section 3): for deterministic transition systems, proving ``φ1 ⇒ φ2`` via
unsatisfiability of ``φ1 ∧ Ψ2`` — where ``Ψ2`` is the disjunction of the
*sibling* path conditions of ``φ2`` — instead of ``φ1 ∧ ¬φ2``.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # cache.py imports Result from here; avoid the cycle.
    from repro.smt.cache import QueryCache

from repro.smt import eval as smt_eval
from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.eval import compile_node
from repro.smt.printer import canonical
from repro.smt.sat import SatResult, SatSolver
from repro.smt.simplify import propagate_literals, simplify
from repro.smt.terms import Term


class Result(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    @property
    def is_unsat(self) -> bool:
        return self is Result.UNSAT


@dataclass
class QueryStats:
    """Aggregate statistics across all queries issued through one Solver.

    Every field is a number that sums when solvers' counters are merged.
    """

    queries: int = 0
    fast_path: int = 0  # answered without bit-blasting
    #: fast-path SATs whose witness the bounded search found
    witnessed: int = 0
    #: fast-path UNSATs refuted by top-level literal propagation
    refuted: int = 0
    sat_calls: int = 0
    #: SAT-core calls that answered SAT / UNSAT (UNKNOWN: ``unknowns``)
    sat_calls_sat: int = 0
    sat_calls_unsat: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    time_seconds: float = 0.0
    unknowns: int = 0
    #: queries answered through a :class:`SolverSession` (incremental path)
    incremental_checks: int = 0
    #: learned clauses already in the session solver when a check started —
    #: CDCL work inherited from earlier obligations of the same session
    clauses_reused: int = 0
    #: Tseitin encodings served from the session blaster's per-term cache
    encode_cache_hits: int = 0
    #: learned clauses evicted by the bounded store (memory cap)
    clauses_evicted: int = 0
    cache_hits: int = 0  # answered by the shared QueryCache
    cache_misses: int = 0
    #: memo/cache entries that held the answer but could not serve the query
    #: because a model was requested (``need_model=True``).  Not misses: the
    #: cache knew the result, the caller just needed more than the result.
    cache_hits_unused: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Fold another solver's counters into this one (batch aggregation)."""
        for spec in dataclasses.fields(self):
            name = spec.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Model:
    """A satisfying assignment, queried through the original terms."""

    def __init__(self, blaster: BitBlaster):
        self._blaster = blaster

    def eval_bv(self, term: Term) -> int:
        return self._blaster.model_bv(term)

    def eval_bool(self, term: Term) -> bool:
        return self._blaster.model_bool(term)


class _ZeroEnv(dict):
    """A total environment: every variable reads as 0 (False for booleans)."""

    def __contains__(self, key) -> bool:
        return True

    def __missing__(self, key) -> int:
        return 0


_ZERO_ENV = _ZeroEnv()


def _zero_select(array: str, offset: int, width: int) -> int:
    return 0


class TrivialModel(Model):
    """All-zeros model for goals that simplify to a constant ``true``.

    Any assignment satisfies such a goal, so the all-zeros one is a valid
    witness; terms are read through concrete evaluation instead of a SAT
    assignment (``check_sat(..., need_model=True)`` guarantees callers can
    always read ``last_model`` on SAT, even on the simplification fast path).
    """

    def __init__(self):
        pass

    def eval_bv(self, term: Term) -> int:
        return int(smt_eval.evaluate(term, _ZERO_ENV, _zero_select))

    def eval_bool(self, term: Term) -> bool:
        return bool(smt_eval.evaluate(term, _ZERO_ENV, _zero_select))


def _fingerprint(*parts) -> int:
    """A 64-bit process-independent fingerprint.

    ``hash()`` is randomized per interpreter (PYTHONHASHSEED), which would
    make witness search — and hence query outcomes and cache contents —
    differ between the batch driver's worker processes and the parent.
    """
    data = "\x1f".join(str(part) for part in parts).encode()
    return zlib.crc32(data) | (zlib.crc32(data[::-1]) << 32)


#: node evaluations one witness search may spend, shared by its start points
WITNESS_BUDGET = 20_000


class _WitnessSearch:
    """Bounded, deterministic search for an assignment that satisfies a goal.

    KEQ's positive-form implication checks (``pc1 ∧ Ψ2``) are satisfiable
    whenever a successor pair does not match, and such goals usually have
    witnesses that plain evaluation finds far faster than bit-blasting and
    CDCL.  The search is a plain form of local search for bit-vectors
    (Niemetz, Preiner & Biere, FMSD 2017): it probes candidate values by
    evaluation, without propagating target values down the DAG.

    - **Start points.**  Four fixed assignments: bitvectors all 0, all 1,
      then two per-name fingerprints; booleans always take a fingerprint
      bit, and ``select`` reads a fingerprint of (array, offset, start).
      All four are evaluated before any descent.
    - **Descent.**  Greedy coordinate descent from each start point in turn:
      every probe sets one variable to one candidate value (0, 1, all-ones,
      the signed extremes, and ``c-1``, ``c``, ``c+1`` for every bitvector
      constant ``c`` of the goal, truncated), and the best probe is taken
      if it raises the score.  A descent ends when the goal holds, at a
      local optimum, or when :data:`WITNESS_BUDGET` node evaluations are
      spent (the budget is shared by all start points, and counts their
      evaluation too).
    - **Score.**  The number of satisfied conjuncts, with negation pushed
      through ``and``/``or`` and an ``or`` scoring its best child: exact
      integers, so no rounding can order two probes differently.
    - **Evaluation.**  The goal's DAG is laid out once in topological order
      on one flat list; a probe re-evaluates in place only the nodes (and
      score entries) that depend on the changed variable, then undoes them.

    The search is a pure function of the goal, independent of operand
    order (which follows interning order): variables are visited by name,
    candidates by value, ties go to the first (name, value), and the cost
    of a probe is the size of a variable's cone.  Every process therefore
    finds the same witness, which is what makes a cost-0 SAT entry in the
    shared cache sound.  A witness counts only when
    :func:`repro.smt.eval.evaluate` confirms it; an :class:`EvalError`
    there just moves on to the next start point.
    """

    STARTS = 4

    def __init__(self, goal: Term):
        self.goal = goal
        #: node and score-entry evaluations spent so far
        self.evaluations = 0
        self._start = 0
        order = _topological(goal)
        widths: dict[str, int] = {}  # 0 for a boolean-only name
        for var in t.free_vars(goal):
            width = 0 if var.sort is t.BOOL else var.width
            widths[var.name] = max(width, widths.get(var.name, 0))
        self._names = names = sorted(widths)
        self._widths = [widths[name] for name in names]
        name_slots = {name: index for index, name in enumerate(names)}
        slots: dict[Term, int] = {}
        values: list = [None] * len(names)
        cones: dict[str, list] = {name: [] for name in names}
        program: list = []
        constants: set[int] = set()
        for node in order:
            slot = slots[node] = len(values)
            values.append(None)
            op = node.op
            if op == "bvconst" or op == "boolconst":
                values[slot] = node.value
                if op == "bvconst":
                    constants.add(node.value)
                continue
            if op == "bvvar" or op == "boolvar":
                fn = _read_variable(name_slots[node.name], node)
            else:
                fn = compile_node(node, slots, self._select)
            program.append((slot, fn))
            for name in _names_of(node):
                cones[name].append((slot, fn))
        score_entries: list = []
        self._score_slot = _score_slot(goal, True, slots, {}, score_entries, values)
        for slot, fn, node in score_entries:
            program.append((slot, fn))
            for name in _names_of(node):
                cones[name].append((slot, fn))
        self._values = values
        self._slots = slots
        self._program = program
        self._goal_slot = slots[goal]
        candidates = {
            width: _candidates(width, constants) for width in widths.values()
        }
        self._coordinates = [
            (index, candidates[width], cones[name])
            for index, (name, width) in enumerate(zip(names, self._widths))
        ]

    def run(self) -> dict[str, int | bool] | None:
        """The witness (name -> value) for the goal, or None."""
        for start in range(self.STARTS):
            self._load(start)
            if self._values[self._goal_slot]:
                witness = self._confirm()
                if witness is not None:
                    return witness
        for start in range(self.STARTS):
            if self.evaluations + len(self._program) > WITNESS_BUDGET:
                break
            self._load(start)
            if self._descend():
                witness = self._confirm()
                if witness is not None:
                    return witness
        return None

    def _select(self, array: str, offset: int, width: int) -> int:
        return _fingerprint(array, offset, self._start) & t.mask(width)

    def _load(self, start: int) -> None:
        """Assign start point ``start`` and evaluate the whole layout."""
        self._start = start
        values = self._values
        for index, (name, width) in enumerate(zip(self._names, self._widths)):
            fingerprint = _fingerprint(name, start)
            if not width:
                values[index] = bool(fingerprint & 1)
            elif start < 2:
                values[index] = start
            else:
                values[index] = fingerprint & t.mask(width)
        for slot, fn in self._program:
            values[slot] = fn(values)
        self.evaluations += len(self._program)

    def _descend(self) -> bool:
        """Greedy coordinate descent from the loaded assignment; True iff
        it reaches one where the goal holds (left loaded)."""
        values = self._values
        goal_slot = self._goal_slot
        score_slot = self._score_slot
        while not values[goal_slot]:
            best = values[score_slot]
            move = None
            for index, candidates, cone in self._coordinates:
                current = values[index]
                saved = [values[slot] for slot, _ in cone]
                for value in candidates:
                    if value == current:
                        continue
                    if not self._assign(index, value, cone):
                        self._undo(index, current, cone, saved)
                        return False  # budget spent
                    if values[goal_slot]:
                        return True
                    if values[score_slot] > best:
                        best = values[score_slot]
                        move = (index, value, cone)
                self._undo(index, current, cone, saved)
            if move is None or not self._assign(*move):
                return False  # a local optimum, or the budget is spent
        return True

    def _assign(self, index: int, value, cone: list) -> bool:
        """Set one variable and re-evaluate its cone in place; False, with
        nothing changed, when that would overrun the budget."""
        if self.evaluations + len(cone) > WITNESS_BUDGET:
            return False
        self.evaluations += len(cone)
        values = self._values
        values[index] = value
        for slot, fn in cone:
            values[slot] = fn(values)
        return True

    def _undo(self, index: int, value, cone: list, saved: list) -> None:
        values = self._values
        values[index] = value
        for (slot, _), old in zip(cone, saved):
            values[slot] = old

    def _confirm(self) -> dict[str, int | bool] | None:
        """The loaded assignment, if the reference evaluator agrees that it
        satisfies the goal."""
        values = self._values
        env = {name: values[index] for index, name in enumerate(self._names)}
        try:
            if smt_eval.evaluate(self.goal, env, self._select) is True:
                return env
        except smt_eval.EvalError:
            pass  # a later start point may avoid the failing path
        return None


def _topological(goal: Term) -> list[Term]:
    """The DAG under ``goal``, every node after its operands."""
    order: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(goal, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        stack.extend((arg, False) for arg in node.args if arg not in seen)
    return order


def _names_of(node: Term) -> set[str]:
    return {var.name for var in t.free_vars(node)}


def _read_variable(slot: int, node: Term):
    """A variable node reads its name's value, as :func:`evaluate` reads
    the environment."""
    if node.sort is t.BOOL:
        return lambda values: bool(values[slot])
    mask = t.mask(node.width)
    return lambda values: values[slot] & mask


def _candidates(width: int, constants: set[int]) -> list:
    """A variable's probe values, ascending."""
    if not width:
        return [False, True]
    mask = t.mask(width)
    pool = {0, 1, mask, 1 << (width - 1), mask >> 1}
    for constant in constants:
        for near in (constant - 1, constant, constant + 1):
            pool.add(near & mask)
    return sorted(pool)


def _score_slot(
    node: Term,
    positive: bool,
    slots: dict[Term, int],
    memo: dict[tuple[Term, bool], int],
    entries: list,
    values: list,
) -> int:
    """The slot holding the score of ``node`` under ``positive`` polarity,
    appending any new score entries (children first) to ``entries``."""
    key = (node, positive)
    found = memo.get(key)
    if found is not None:
        return found
    op = node.op
    if op == "not":
        slot = _score_slot(node.args[0], not positive, slots, memo, entries, values)
    elif op == "and" or op == "or":
        children = itemgetter(
            *[
                _score_slot(arg, positive, slots, memo, entries, values)
                for arg in node.args
            ]
        )
        if (op == "and") == positive:
            fn = lambda v: sum(children(v))  # noqa: E731
        else:
            fn = lambda v: max(children(v))  # noqa: E731
        slot = len(values)
        values.append(None)
        entries.append((slot, fn, node))
    elif positive:
        slot = slots[node]  # a satisfied atom reads True, which counts 1
    else:
        atom = slots[node]
        fn = lambda v: not v[atom]  # noqa: E731
        slot = len(values)
        values.append(None)
        entries.append((slot, fn, node))
    memo[key] = slot
    return slot


#: goals with more free variables than this are left to CDCL
_WITNESS_MAX_VARIABLES = 64


def _witness(goal: Term) -> dict[str, int | bool] | None:
    """A confirmed satisfying assignment found by :class:`_WitnessSearch`,
    or None (which proves nothing)."""
    if len(t.free_vars(goal)) > _WITNESS_MAX_VARIABLES:
        return None
    return _WitnessSearch(goal).run()


def _skeleton_unsat(goal: Term) -> bool:
    """Propositional-abstraction check (the DPLL(T) boolean skeleton).

    Theory atoms (comparisons, equalities, boolean variables) are replaced
    by fresh propositional variables — consistently, by term identity —
    and only the boolean skeleton is solved.  The abstraction
    over-approximates satisfiability, so skeleton-UNSAT implies UNSAT.
    Most of KEQ's implication queries (``pc1 ∧ Ψ2`` with shared branch
    atoms) die here without bit-blasting any arithmetic.
    """
    solver = SatSolver()
    true_var = solver.new_var()
    solver.add_clause([true_var])
    mapping: dict[Term, int] = {}

    def encode(node: Term) -> int:
        found = mapping.get(node)
        if found is not None:
            return found
        if node is t.TRUE:
            literal = true_var
        elif node is t.FALSE:
            literal = -true_var
        elif node.op == "not":
            literal = -encode(node.args[0])
        elif node.op in ("and", "or"):
            literals = [encode(arg) for arg in node.args]
            gate = solver.new_var()
            if node.op == "and":
                for lit in literals:
                    solver.add_clause([-gate, lit])
                solver.add_clause([gate] + [-lit for lit in literals])
            else:
                for lit in literals:
                    solver.add_clause([gate, -lit])
                solver.add_clause([-gate] + literals)
            literal = gate
        elif node.op == "xorb":
            a = encode(node.args[0])
            b = encode(node.args[1])
            gate = solver.new_var()
            solver.add_clause([-gate, a, b])
            solver.add_clause([-gate, -a, -b])
            solver.add_clause([gate, -a, b])
            solver.add_clause([gate, a, -b])
            literal = gate
        else:  # a theory atom: fresh unconstrained variable
            literal = solver.new_var()
        mapping[node] = literal
        return literal

    solver.add_clause([encode(goal)])
    return solver.solve(conflict_budget=20_000) is SatResult.UNSAT


def _comparison_lemmas(goal: Term) -> Term:
    """Trichotomy lemmas for comparison atoms over shared operand pairs.

    Bit-blasted CDCL rediscovers facts like ``x <s y, y <s x, x == y are
    mutually exclusive and exhaustive`` one bit at a time, at a cost of
    thousands of conflicts.  Injecting the (valid) trichotomy clauses over
    the atoms that already occur makes such queries propositionally easy;
    the bit-level encoding still guarantees soundness.

    Lemmas are emitted in operand-serial order: term hashes mix in sort
    identities (memory addresses), so hash order would change the CNF,
    and with it the search, from one interpreter to the next.
    """
    atoms: set[Term] = set()
    seen: set[Term] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op in ("slt", "ult"):
            atoms.add(node)
        stack.extend(node.args)
    signedness: dict[tuple[Term, Term], set[str]] = {}
    for atom in atoms:
        lhs, rhs = atom.args
        if lhs is rhs:
            continue
        pair = (lhs, rhs) if lhs.serial < rhs.serial else (rhs, lhs)
        signedness.setdefault(pair, set()).add(atom.op)
    lemmas: list[Term] = []
    for x, y in sorted(
        signedness, key=lambda pair: (pair[0].serial, pair[1].serial)
    ):
        equal = t.eq(x, y)
        for op in sorted(signedness[(x, y)]):
            builder = t.slt if op == "slt" else t.ult
            forward = builder(x, y)
            backward = builder(y, x)
            lemmas.append(t.or_(forward, backward, equal))
            lemmas.append(t.not_(t.and_(forward, backward)))
            lemmas.append(t.not_(t.and_(forward, equal)))
            lemmas.append(t.not_(t.and_(backward, equal)))
    return t.conj(lemmas)


def _ackermann_lemmas(goal: Term) -> Term:
    """Functional-consistency lemmas for uninterpreted ``select`` terms.

    For every pair of same-width reads from the same array, equal offsets
    must yield equal values.  This is the only fragment of the array theory
    KEQ's queries need (the memory model resolves store chains itself).

    Reads are grouped by (array, value width) — two reads of different
    widths cannot be equated — and offsets are compared as unsigned
    integers (zero-extended to a common width), matching the evaluation
    semantics where the select handler is keyed by the offset's numeric
    value.  Found by differential fuzzing: grouping by array name alone
    crashed on mixed-width offsets and missed congruences across widths.
    """
    selects: dict[tuple[str, int], list[Term]] = {}
    seen: set[Term] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op == "select":
            selects.setdefault((node.attr[0], node.attr[1]), []).append(node)
        stack.extend(node.args)
    lemmas: list[Term] = []
    for group in selects.values():
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                off_a, off_b = first.args[0], second.args[0]
                width = max(off_a.width, off_b.width)
                lemmas.append(
                    t.implies(
                        t.eq(t.zext(off_a, width), t.zext(off_b, width)),
                        t.eq(first, second),
                    )
                )
    return t.conj(lemmas)


#: what a fast-path answer moves besides ``QueryStats.fast_path``, by the
#: path that gave it: that path's own counter, whether the memo records the
#: answer, and whether the shared cache gets it at cost 0.  The paths that
#: share decide a goal the same way in every process without CDCL (the
#: witness search is a pure function of the goal); the memo and the cache
#: only replay answers already recorded.
_FAST_PATHS: dict[str, tuple[str | None, bool, bool]] = {
    "constant": (None, False, False),
    "memo": (None, False, False),
    "cache": ("cache_hits", True, False),
    "skeleton": (None, True, True),
    "witness": ("witnessed", True, True),
    "propagation": ("refuted", True, True),
}


class Solver:
    """Stateless-per-query solver with shared statistics.

    ``conflict_budget`` bounds SAT search per query; exceeding it yields
    :data:`Result.UNKNOWN`, which KEQ surfaces as a (deterministic) timeout
    — the stand-in for the paper's 3-hour wall-clock limit.
    """

    def __init__(
        self,
        conflict_budget: int | None = 200_000,
        cache: "QueryCache | None" = None,
    ):
        self.conflict_budget = conflict_budget
        self.stats = QueryStats()
        self.last_model: Model | None = None
        #: simplified goal -> Result.  KEQ re-issues many identical queries
        #: (the same path-condition pair is checked once per candidate
        #: pairing); terms are interned so the key is O(1).
        self._memo: dict[Term, Result] = {}
        #: optional shared :class:`repro.smt.cache.QueryCache` — consulted
        #: after the per-solver memo, fed with every decided answer.
        self.cache = cache

    # -- core entry points -----------------------------------------------------

    def check_sat(
        self,
        formula: Term | Iterable[Term],
        need_model: bool = False,
        deadline: float | None = None,
    ) -> Result:
        """Decide satisfiability of a formula (or conjunction of formulas).

        ``need_model=True`` guarantees ``last_model`` is populated on SAT
        (the memo, cache and witness-search shortcuts answer SAT without one).
        ``deadline`` (a ``time.perf_counter()`` reading) stops the CDCL
        search at its first conflict past it, with UNKNOWN.
        """
        if isinstance(formula, Term):
            goal = formula
        else:
            goal = t.conj(formula)
        started = time.perf_counter()
        self.stats.queries += 1
        self.last_model = None
        goal = simplify(goal)
        fast = self._answer_fast(goal, need_model, started)
        if fast is not None:
            return fast
        blaster = BitBlaster(SatSolver())
        blaster.assert_term(
            t.and_(goal, _ackermann_lemmas(goal), _comparison_lemmas(goal))
        )
        return self._answer_cdcl(goal, blaster, None, deadline, started, fresh=True)

    def _answer_fast(
        self, goal: Term, need_model: bool, started: float
    ) -> Result | None:
        """Answer an already-simplified goal without bit-blasting, or None.

        :meth:`check_sat` and :meth:`SolverSession.check` both start here,
        on the simplified formula of the query (for a session check, the
        one :func:`check_query` builds), so the fresh and incremental paths
        read and feed one memo and cache namespace and take the same
        shortcuts.  The answer is booked as :data:`_FAST_PATHS` says for
        the path that gave it.
        """
        decided = self._decide_fast(goal, need_model)
        if decided is None:
            return None
        path, result = decided
        counter, memoised, shared = _FAST_PATHS[path]
        stats = self.stats
        stats.fast_path += 1
        if counter is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)
        if memoised:
            self._memo[goal] = result
        if shared:
            self._share(goal, result, cost=0)
        stats.time_seconds += time.perf_counter() - started
        return result

    def _decide_fast(
        self, goal: Term, need_model: bool
    ) -> tuple[str, Result] | None:
        """The fast-path ladder: a constant goal, then memo, shared cache,
        boolean skeleton, witness search and literal propagation; the first
        path that decides the goal, with its verdict."""
        if goal is t.TRUE:
            if need_model:
                # The goal holds under every assignment; hand out an explicit
                # witness so callers can always read a model on SAT.
                self.last_model = TrivialModel()
            return "constant", Result.SAT
        if goal is t.FALSE:
            return "constant", Result.UNSAT
        cached = self._memo.get(goal)
        if cached is not None and not (need_model and cached is Result.SAT):
            # Memo hit: no model is reconstructed (KEQ never reads models).
            return "memo", cached
        if self.cache is not None:
            if cached is not None:
                # The memo held the answer but a model was requested; the
                # shared cache cannot supply one either, so don't consult it
                # (and don't tally a miss — the result *was* cached).
                self.stats.cache_hits_unused += 1
            else:
                shared = self.cache.lookup(goal, self.conflict_budget)
                if shared is None:
                    self.stats.cache_misses += 1
                elif need_model and shared is Result.SAT:
                    self.stats.cache_hits_unused += 1
                else:
                    return "cache", shared
        # Boolean-skeleton check, strengthened with the comparison-theory
        # lemmas *at the atom level*: UNSATness that follows from branch
        # structure plus trichotomy never needs arithmetic bit-blasting.
        if _skeleton_unsat(t.and_(goal, _comparison_lemmas(goal))):
            return "skeleton", Result.UNSAT
        # A skeleton-refuted goal has no witness, so the search runs only
        # here.
        if not need_model and _witness(goal) is not None:
            return "witness", Result.SAT
        # Literal propagation runs last, on the few goals every other fast
        # path left open.  Any outcome but FALSE is dropped and the goal
        # goes to CDCL as it stands.
        if propagate_literals(goal) is t.FALSE:
            return "propagation", Result.UNSAT
        return None

    def _answer_cdcl(
        self,
        goal: Term,
        blaster: BitBlaster,
        assumptions: list[int] | None,
        deadline: float | None,
        started: float,
        fresh: bool,
    ) -> Result:
        """Decide ``goal``, as ``blaster`` encoded it, by CDCL under
        ``assumptions``, and book the answer.

        Every decided answer enters the memo (this solver re-serves it
        under the same budget), but only a ``fresh`` search's enters the
        shared cache, at its minimal deciding budget: the CDCL loop gives
        up *at* the budget-th conflict, so a run that decided after ``c``
        conflicts needs ``c + 1``.  A session's search leaned on clauses
        learned by earlier checks, so its conflict count can undershoot
        what a fresh search needs; a cache entry carrying that optimistic
        cost would let a cached run decide under a small budget where an
        uncached run returns UNKNOWN, breaking cached-vs-uncached outcome
        identity (see the budget-monotonicity policy in cache.py).
        """
        stats = self.stats
        sat_solver = blaster.solver
        sat_stats = sat_solver.stats
        conflicts = sat_stats.conflicts
        decisions = sat_stats.decisions
        propagations = sat_stats.propagations
        stats.sat_calls += 1
        outcome = sat_solver.solve(
            assumptions, conflict_budget=self.conflict_budget, deadline=deadline
        )
        conflicts = sat_stats.conflicts - conflicts
        stats.conflicts += conflicts
        stats.decisions += sat_stats.decisions - decisions
        stats.propagations += sat_stats.propagations - propagations
        stats.time_seconds += time.perf_counter() - started
        if outcome is SatResult.UNKNOWN:
            stats.unknowns += 1
            return Result.UNKNOWN
        if outcome is SatResult.SAT:
            stats.sat_calls_sat += 1
            self.last_model = Model(blaster)
            result = Result.SAT
        else:
            stats.sat_calls_unsat += 1
            result = Result.UNSAT
        self._memo[goal] = result
        if fresh:
            self._share(goal, result, conflicts + 1)
        return result

    def _share(self, goal: Term, result: Result, cost: int) -> None:
        if self.cache is not None:
            self.cache.store(goal, result, cost)

    def is_valid(self, formula: Term) -> Result:
        """Validity: VALID iff the negation is unsatisfiable.

        Returns UNSAT when *valid* (mirroring the underlying query), SAT when
        a countermodel exists, UNKNOWN on budget exhaustion.  Use
        :meth:`prove` for a boolean-flavoured wrapper.
        """
        return self.check_sat(t.not_(formula))

    def prove(self, formula: Term) -> bool:
        """True iff ``formula`` is valid.  UNKNOWN counts as *not proven*."""
        return self.is_valid(formula).is_unsat

    def prove_implies(self, antecedent: Term, consequent: Term) -> bool:
        """Negative-form implication proof: UNSAT(antecedent ∧ ¬consequent)."""
        return self.check_sat(t.and_(antecedent, t.not_(consequent))).is_unsat

    def prove_implies_positive(
        self, antecedent: Term, sibling_conditions: Iterable[Term]
    ) -> bool:
        """Positive-form implication proof (paper, Section 3).

        For deterministic systems the sibling path conditions ``Ψ2`` of a
        successor partition ``¬φ2``, so ``φ1 ⇒ φ2`` iff ``φ1 ∧ Ψ2`` is
        unsatisfiable, avoiding the negation.
        """
        psi = t.disj(sibling_conditions)
        return self.check_sat(t.and_(antecedent, psi)).is_unsat

    def prove_equiv(self, left: Term, right: Term) -> bool:
        """True iff two boolean formulas are logically equivalent."""
        return self.prove(t.iff(left, right))

    # -- incremental sessions ----------------------------------------------------

    def session(self) -> "SolverSession":
        """Open an incremental session.

        Each check passes its assumption conjuncts explicitly; the SAT
        solver, Tseitin encodings, learned clauses, and VSIDS activity
        persist across checks, so obligations sharing a fat prefix (KEQ's
        per-sync-point queries) amortize both the bit-blasting and the
        search.  Usable as a context manager.
        """
        return SolverSession(self)


def check_query(
    delta: Term, assumptions: Iterable[Term] = ()
) -> tuple[list[Term], Term]:
    """The query a check of ``delta`` under ``assumptions`` decides: the
    assumptions, deduplicated in canonical order, and their conjunction
    with ``delta``.

    ``(a, b)`` and ``(b, a)`` are one assumption set; ordering by the
    full-fidelity :func:`~repro.smt.printer.canonical` printing (never by
    ``Term.serial``, which depends on per-process interning order, nor by
    ``str``, which elides deep subterms) makes the conjunction — and hence
    the memo and on-disk cache keys — identical for both, in every process.
    :meth:`SolverSession.check` decides that conjunction incrementally; a
    caller without a session hands it to :meth:`Solver.check_sat`.  Both
    build it here, so the two paths key one memo and cache entry.
    """
    ordered = list(dict.fromkeys(assumptions))
    if len(ordered) > 1:
        ordered.sort(key=canonical)
    return ordered, t.conj([*ordered, delta])


class SolverSession:
    """Assumption-based incremental checking against one shared SAT solver.

    The session keeps one :class:`~repro.smt.sat.SatSolver` and one
    :class:`~repro.smt.bitblast.BitBlaster` alive across :meth:`check`
    calls.  Each check's ``assumptions`` are encoded once — their Tseitin
    gate literals double as MiniSat-style *indicator literals* — and every
    check solves under those literals as assumptions, so nothing checked
    here ever poisons the clause database: learned clauses are implied by
    the gate definitions and valid lemmas alone.

    Soundness with the fresh path: a check decides the query
    :func:`check_query` builds, through the same fast paths and the same
    CDCL bookkeeping as :meth:`Solver.check_sat`, keyed on the *simplified
    combined goal* — the cached and incremental paths answer from one
    namespace.  Only its CDCL answers stay out of the shared cache
    (:meth:`Solver._answer_cdcl` says why).

    Before a check that reaches the SAT solver, a learned store past
    :attr:`MAX_LEARNED` clauses gets one maintenance pass
    (:meth:`~repro.smt.sat.SatSolver.inprocess`): root-decided clauses and
    literals go, then the weakest learned clauses (LBD/size order) down to
    half the cap, so memory stays flat.
    """

    MAX_LEARNED = 4000

    def __init__(self, solver: Solver):
        self.solver = solver
        #: created by the first check that reaches the SAT solver
        self._sat: SatSolver | None = None
        self._blaster: BitBlaster | None = None
        #: raw assumption term -> encoded indicator literal
        self._assume_lits: dict[Term, int] = {}
        #: valid lemma conjunctions already asserted permanently
        self._lemmas_asserted: set[Term] = set()

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def _assume_lit(self, term: Term) -> int:
        lit = self._assume_lits.get(term)
        if lit is None:
            lit = self._blaster.encode_bool(simplify(term))
            self._assume_lits[term] = lit
        return lit

    def check(
        self,
        delta: Term,
        assumptions: Iterable[Term] = (),
        need_model: bool = False,
        deadline: float | None = None,
    ) -> Result:
        """Decide SAT(assumptions ∧ delta) incrementally.

        Semantically identical to ``solver.check_sat(check_query(delta,
        assumptions)[1], need_model, deadline)`` — same result, same cache
        keys — but reuses the session's SAT state.  On SAT with
        ``need_model=True``, ``solver.last_model`` reads through the
        session blaster (valid until the next check).
        """
        solver = self.solver
        stats = solver.stats
        started = time.perf_counter()
        stats.queries += 1
        stats.incremental_checks += 1
        solver.last_model = None
        ordered, query = check_query(delta, assumptions)
        combined = simplify(query)
        fast = solver._answer_fast(combined, need_model, started)
        if fast is not None:
            return fast
        # Maintenance runs *before* this check's encoding: it must never sit
        # between the solve and the model extraction, which reads the same
        # blaster the solve used.
        sat_solver = self._sat
        if sat_solver is None:
            sat_solver = self._sat = SatSolver()
            self._blaster = BitBlaster(sat_solver)
        elif sat_solver.num_learned > self.MAX_LEARNED:
            stats.clauses_evicted += sat_solver.inprocess(self.MAX_LEARNED // 2)
        blaster = self._blaster
        sat_solver.reset_to_root()
        # Theory lemmas for the combined goal are *valid*, so they may be
        # asserted permanently — they can only help later checks.
        lemmas = t.and_(
            _ackermann_lemmas(combined), _comparison_lemmas(combined)
        )
        encode_hits_before = blaster.encode_hits
        if lemmas is not t.TRUE and lemmas not in self._lemmas_asserted:
            self._lemmas_asserted.add(lemmas)
            blaster.assert_term(lemmas)
        assume_lits = [self._assume_lit(term) for term in ordered]
        delta_lit = self._assume_lit(delta)
        stats.clauses_reused += sat_solver.num_learned
        stats.encode_cache_hits += blaster.encode_hits - encode_hits_before
        return solver._answer_cdcl(
            combined, blaster, assume_lits + [delta_lit], deadline, started,
            fresh=False,
        )
