"""A CDCL SAT solver.

This is the decision procedure at the bottom of the reproduction's SMT stack
(the paper used Z3; see DESIGN.md Section 2).  Features:

- two-watched-literal unit propagation;
- first-UIP conflict analysis with clause learning and non-chronological
  backjumping;
- VSIDS-style branching activity with exponential decay (implemented via a
  lazily-cleaned binary heap);
- Luby-sequence restarts (base :data:`RESTART_BASE` conflicts);
- solving under assumptions (used by the solver façade to implement
  ``prove`` queries without re-encoding shared structure);
- *incremental* use à la MiniSat: clauses may be added between
  :meth:`SatSolver.solve` calls, and learned clauses, VSIDS activity, and
  watch lists all stay valid across calls — assumptions are enqueued as
  pseudo-decisions at successive levels, so everything a call learns is
  implied by the clause database alone and is safe to keep when a later
  call drops an assumption;
- a conflict budget so callers can emulate the paper's per-function
  timeouts deterministically, and an optional wall-clock deadline checked
  at each conflict as the backstop;
- a bounded learned-clause store: learned clauses carry an LBD (literal
  block distance) and :meth:`SatSolver.reduce_learned` evicts the weakest
  ones; :meth:`SatSolver.inprocess` first drops what the root assignment
  decides, then evicts, so long-lived incremental sessions keep flat
  memory.

The public interface speaks DIMACS: variables are positive integers and a
negated literal is the negated integer.  Inside the solver a literal is a
*code*, ``2v`` for ``v`` and ``2v + 1`` for ``-v``, so negation is
``code ^ 1`` and every per-literal table (values, watch lists) is a flat
list indexed by code.  The layout is chosen for CPython's interpreter
overhead; the search it runs (every decision, propagation order, learned
clause, counter and model) is pinned by the trajectory-lock test.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum

UNASSIGNED = 0
TRUE = 1
FALSE = -1

_NO_LITERAL = -1

#: VSIDS activity decay per conflict
VAR_DECAY = 0.95
#: conflicts before the first restart; later limits follow the Luby sequence
RESTART_BASE = 32
#: initial saved phase of every variable as a code's sign bit (negative);
#: phase saving overwrites it as search proceeds
_DEFAULT_PHASE = 1


class SatResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # conflict budget exhausted


def luby(index: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    ``index`` is 0-based.  This is the classic MiniSat formulation: find the
    finite subsequence containing the index, then recurse into it.
    """
    size = 1
    seq = 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


def _code(lit: int) -> int:
    """Internal code of a DIMACS literal."""
    return lit << 1 if lit > 0 else (-lit << 1) | 1


def _dimacs(code: int) -> int:
    """DIMACS literal of an internal code."""
    return -(code >> 1) if code & 1 else code >> 1


@dataclass
class Stats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0
    #: variables allocated so far
    vars_allocated: int = 0
    solve_calls: int = 0
    #: learned clauses evicted by :meth:`SatSolver.reduce_learned`
    evicted: int = 0


class _Clause:
    """A stored clause.  ``lits`` holds literal codes; positions 0 and 1
    are the watched literals."""

    __slots__ = ("lits", "learned", "lbd")

    def __init__(self, lits: list[int], learned: bool = False, lbd: int = 0):
        self.lits = lits
        self.learned = learned
        #: literal block distance at learn time (eviction quality signal)
        self.lbd = lbd


class SatSolver:
    """CDCL solver over clauses added with :meth:`add_clause`."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        self._num_learned = 0
        #: per code: the clauses to visit when that literal becomes true
        #: (they watch its negation)
        self._watches: list[list[_Clause]] = [[], []]
        #: per code: TRUE, FALSE or UNASSIGNED
        self._values: list[int] = [UNASSIGNED, UNASSIGNED]
        # Per-variable tables, 1-indexed.
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        #: saved phase as a code's sign bit: 0 positive, 1 negative
        self._phase: list[int] = [0]
        #: conflict-analysis marks, all False between analyses
        self._seen: list[bool] = [False]
        #: the heap holds an entry at the variable's current activity.
        #: Invariant: every unassigned variable is queued.
        self._queued: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._var_inc = 1.0
        #: lazy VSIDS order: ``(-activity, var)``; entries whose activity
        #: is no longer current are skipped when popped
        self._heap: list[tuple[float, int]] = []
        self._ok = True
        #: unit clauses (codes) received while the trail was not at the root
        #: level (e.g. a caller encoding a new goal right after a SAT
        #: answer); flushed at the next root visit so no constraint is lost.
        self._pending_units: list[int] = []
        self.stats = Stats()

    # -- problem construction ------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Variables allocated so far (they are numbered 1..num_vars)."""
        return self._num_vars

    def new_var(self) -> int:
        var = self._num_vars = self._num_vars + 1
        self._values += (UNASSIGNED, UNASSIGNED)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(_DEFAULT_PHASE)
        self._seen.append(False)
        self._queued.append(True)
        heapq.heappush(self._heap, (0.0, var))
        self.stats.vars_allocated = var
        return var

    def ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self.new_var()

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause; duplicate literals are removed, tautologies dropped.

        Safe to call between :meth:`solve` calls (incremental use): clauses
        are simplified against *root-level* assignments only, and a unit
        clause arriving while the trail is deep is parked in
        ``_pending_units`` rather than mis-assigned at the current level.
        """
        if not self._ok:
            return
        values = self._values
        level = self._level
        seen: set[int] = set()
        unique: list[int] = []
        for lit in literals:
            if lit > 0:
                var = lit
                code = lit << 1
            else:
                var = -lit
                code = (var << 1) | 1
            if var > self._num_vars:
                self.ensure_vars(var)
            if code in seen:
                continue
            if code ^ 1 in seen:
                return  # tautology
            value = values[code]
            if value != UNASSIGNED and level[var] == 0:
                if value == TRUE:
                    return  # satisfied at the root forever
                continue  # root-falsified literal: drop it
            seen.add(code)
            unique.append(code)
        if not unique:
            self._ok = False
            return
        if len(unique) == 1:
            if self._trail_lim:
                self._pending_units.append(unique[0])
            elif not self._enqueue_root(unique[0]):
                self._ok = False
            return
        clause = _Clause(unique)
        self._clauses.append(clause)
        self._watches[unique[0] ^ 1].append(clause)
        self._watches[unique[1] ^ 1].append(clause)

    def reset_to_root(self) -> None:
        """Backtrack to decision level 0 and flush pending unit clauses.

        Incremental callers (the solver façade's sessions) invoke this
        before encoding new structure so fresh clauses are simplified
        against root-fixed literals only.
        """
        self._backtrack(0)
        self._flush_pending_units()

    @property
    def num_learned(self) -> int:
        """Learned clauses currently in the database (evictions deducted)."""
        return self._num_learned

    def learned_clauses(self) -> list[list[int]]:
        """The learned clauses currently in the database, as DIMACS lists."""
        return [
            [_dimacs(code) for code in clause.lits]
            for clause in self._clauses
            if clause.learned
        ]

    def _store_learned(self, learned: list[int]) -> _Clause | None:
        """Record a learned clause in the database; units are parked so the
        next root visit asserts them.  Returns the clause, or None for a
        unit.  The LBD is the number of distinct decision levels among the
        clause's literals at learn time (lower is better)."""
        if len(learned) == 1:
            self._pending_units.append(learned[0])
            return None
        level = self._level
        clause = _Clause(
            learned, learned=True, lbd=len({level[code >> 1] for code in learned})
        )
        self._clauses.append(clause)
        self._num_learned += 1
        self.stats.learned += 1
        self._watches[learned[0] ^ 1].append(clause)
        self._watches[learned[1] ^ 1].append(clause)
        return clause

    # -- learned-clause store maintenance -------------------------------------

    def reduce_learned(self, cap: int) -> int:
        """Evict the weakest learned clauses until at most ``cap`` remain.

        Quality order is (LBD, length, age): glue clauses (LBD ≤ 2) are
        always kept, as are clauses currently acting as a propagation
        reason.  Must be called at the root level (callers use
        :meth:`reset_to_root` first).  Returns the number evicted.
        """
        if not self._ok or self._trail_lim:
            return 0
        learned = [clause for clause in self._clauses if clause.learned]
        if len(learned) <= cap:
            return 0
        reason = self._reason
        locked = {
            reason[code >> 1]
            for code in self._trail
            if reason[code >> 1] is not None
        }
        ranked = sorted(learned, key=lambda c: (c.lbd, len(c.lits)))
        keep: set[_Clause] = set()
        for clause in ranked:
            if len(keep) < cap or clause.lbd <= 2 or clause in locked:
                keep.add(clause)
        evicted = len(learned) - len(keep)
        if evicted == 0:
            return 0
        self._clauses = [
            clause for clause in self._clauses if not clause.learned or clause in keep
        ]
        self.stats.evicted += evicted
        self._rebuild_watches()
        return evicted

    def _rebuild_watches(self) -> None:
        """Re-watch the first two literals of every clause.

        Only valid when every in-database clause has its first two literals
        unassigned at the root (guaranteed after :meth:`_simplify_db`, and
        preserved by clause deletion at the root level).
        Every removal of clauses ends here, so the learned count is
        recounted too.
        """
        watches: list[list[_Clause]] = [[] for _ in range(2 * self._num_vars + 2)]
        learned = 0
        for clause in self._clauses:
            lits = clause.lits
            watches[lits[0] ^ 1].append(clause)
            watches[lits[1] ^ 1].append(clause)
            learned += clause.learned
        self._watches = watches
        self._num_learned = learned

    def _simplify_db(self) -> None:
        """Remove root-satisfied clauses and root-falsified literals.

        Precondition: root level, unit propagation at fixpoint.  After the
        pass every stored clause contains only root-unassigned literals, so
        watching positions 0/1 is always valid.
        """
        values = self._values
        level = self._level
        kept: list[_Clause] = []
        for clause in self._clauses:
            new_lits: list[int] = []
            satisfied = False
            for code in clause.lits:
                value = values[code]
                if value != UNASSIGNED and level[code >> 1] == 0:
                    if value == TRUE:
                        satisfied = True
                        break
                    continue  # root-falsified: drop the literal
                new_lits.append(code)
            if satisfied:
                continue
            if not new_lits:
                self._ok = False
                return
            if len(new_lits) == 1:
                self._pending_units.append(new_lits[0])
                continue
            clause.lits = new_lits
            kept.append(clause)
        self._clauses = kept
        self._rebuild_watches()
        self._flush_pending_units()
        if self._ok and self._propagate() is not None:
            self._ok = False

    def inprocess(self, cap: int) -> int:
        """Session maintenance between incremental solve calls.

        At the root, drops root-satisfied clauses and root-falsified
        literals (:meth:`_simplify_db`), then evicts learned clauses down
        to ``cap`` (:meth:`reduce_learned`).  Root units are permanent and
        learned clauses are implied by the rest of the database, so the
        pass is sound for later solves under any assumptions.  Returns the
        number evicted.
        """
        if not self._ok:
            return 0
        self._backtrack(0)
        self._flush_pending_units()
        if not self._ok:
            return 0
        if self._propagate() is not None:
            self._ok = False
            return 0
        self._simplify_db()
        return self.reduce_learned(cap)

    def _flush_pending_units(self) -> None:
        while self._pending_units:
            code = self._pending_units.pop()
            if not self._enqueue_root(code):
                self._ok = False
                return

    def _enqueue_root(self, code: int) -> bool:
        """Assert a unit clause at decision level 0."""
        value = self._values[code]
        if value == TRUE:
            return True
        if value == FALSE:
            return False
        self._assign(code, None)
        return True

    # -- assignment primitives ------------------------------------------------

    def _assign(self, code: int, reason: _Clause | None) -> None:
        var = code >> 1
        values = self._values
        values[code] = TRUE
        values[code ^ 1] = FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = code & 1
        self._trail.append(code)

    # -- propagation ------------------------------------------------------------

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        head = self._prop_head
        if head == len(trail):
            return None
        start = head
        watches = self._watches
        values = self._values
        level = self._level
        reason = self._reason
        phase = self._phase
        depth = len(self._trail_lim)
        conflict: _Clause | None = None
        while head < len(trail):
            code = trail[head]
            head += 1
            watchers = watches[code]
            if not watchers:
                continue
            false_code = code ^ 1
            kept: list[_Clause] = []
            index = 0
            total = len(watchers)
            while index < total:
                clause = watchers[index]
                index += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                first = lits[0]
                if first == false_code:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_code
                value = values[first]
                if value == TRUE:
                    kept.append(clause)
                    continue
                # Search a new literal to watch.
                for slot in range(2, len(lits)):
                    other = lits[slot]
                    if values[other] != FALSE:
                        lits[1] = other
                        lits[slot] = false_code
                        watches[other ^ 1].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value == FALSE:
                        conflict = clause
                        kept.extend(watchers[index:total])
                        break
                    var = first >> 1
                    values[first] = TRUE
                    values[first ^ 1] = FALSE
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = first & 1
                    trail.append(first)
            watches[code] = kept
            if conflict is not None:
                break
        self.stats.propagations += head - start
        self._prop_head = head
        return conflict

    # -- conflict analysis --------------------------------------------------------

    def _rescale_activity(self) -> None:
        """Scale every activity down by 1e-100 and rebuild the heap with
        one entry per unassigned variable (every old entry is stale)."""
        activity = self._activity
        for var in range(1, self._num_vars + 1):
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        values = self._values
        queued = self._queued
        heap: list[tuple[float, int]] = []
        for var in range(1, self._num_vars + 1):
            free = values[var << 1] == UNASSIGNED
            queued[var] = free
            if free:
                heap.append((-activity[var], var))
        heapq.heapify(heap)
        self._heap = heap

    def _bump_var(self, var: int) -> None:
        """Raise an assigned variable's activity.  Its heap entry goes stale;
        the variable is queued again when backtracking unassigns it."""
        activity = self._activity
        activity[var] += self._var_inc
        self._queued[var] = False
        if activity[var] > 1e100:
            self._rescale_activity()

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP analysis: learned clause + backjump level."""
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        activity = self._activity
        queued = self._queued
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        counter = 0
        # The trail literal being resolved; the reason clause that
        # propagated it contains it, and it is skipped there.
        code = _NO_LITERAL
        clause: _Clause | None = conflict
        index = len(trail) - 1
        while True:
            assert clause is not None, "conflict analysis reached a decision"
            for other in clause.lits:
                if other == code:
                    continue
                var = other >> 1
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = True
                # _bump_var inlined: every variable here is assigned.
                activity[var] += var_inc
                queued[var] = False
                if activity[var] > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                if var_level == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Find the next seen literal on the trail.
            while not seen[trail[index] >> 1]:
                index -= 1
            code = trail[index]
            var = code >> 1
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = code ^ 1
                break
            clause = reason[var]
        for other in learned[1:]:
            seen[other >> 1] = False
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        best = 1
        best_level = level[learned[1] >> 1]
        for slot in range(2, len(learned)):
            slot_level = level[learned[slot] >> 1]
            if slot_level > best_level:
                best = slot
                best_level = slot_level
        learned[1], learned[best] = learned[best], learned[1]
        return learned, best_level

    def _analyze_prefix(self, conflict: _Clause, assumed: set[int]) -> list[int]:
        """Resolve a prefix conflict into a learnable clause.

        First-UIP analysis does not apply inside the assumption prefix: a
        level there can hold several reason-less literals (the assumption
        itself plus parked learned units), so the resolution is run to the
        reason-less frontier instead.  Assumption literals are kept,
        negated, as clause literals; parked units are dropped — they are
        implied by the clause database, so resolving them away keeps the
        result database-implied and valid under any later assumptions.
        ``assumed`` holds the assumptions' codes.
        """
        level = self._level
        reason = self._reason
        seen = {code >> 1 for code in conflict.lits if level[code >> 1] > 0}
        learned: list[int] = []
        for code in reversed(self._trail):
            if not seen:
                break
            var = code >> 1
            if var not in seen:
                continue
            seen.discard(var)
            self._bump_var(var)
            clause = reason[var]
            if clause is None:
                if code in assumed:
                    learned.append(code ^ 1)
                continue
            for other in clause.lits:
                if other != code and level[other >> 1] > 0:
                    seen.add(other >> 1)
        return learned

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        boundary = trail_lim[level]
        values = self._values
        queued = self._queued
        activity = self._activity
        heap = self._heap
        for code in trail[boundary:]:
            values[code] = UNASSIGNED
            values[code ^ 1] = UNASSIGNED
            var = code >> 1
            if not queued[var]:
                queued[var] = True
                heapq.heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del trail_lim[level:]
        self._prop_head = len(trail)
        if len(heap) > 2 * self._num_vars + 64:
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop every stale entry and every entry of an assigned variable,
        keeping the existing tuple of each unassigned variable's current
        entry.  A session whose checks all answer UNSAT never pops the
        heap empty, so without this every conflict's bumps pile up.

        Pop order is by (activity, variable) and the dropped entries would
        have been skipped, so no decision changes; an assigned variable
        loses its ``queued`` flag and is pushed again when unassigned.
        """
        activity = self._activity
        values = self._values
        queued = self._queued
        for var in range(1, self._num_vars + 1):
            queued[var] = False
        heap = self._heap
        kept = 0
        for entry in heap:
            var = entry[1]
            if (
                not queued[var]
                and values[var << 1] == UNASSIGNED
                and -entry[0] == activity[var]
            ):
                queued[var] = True
                heap[kept] = entry
                kept += 1
        del heap[kept:]
        heapq.heapify(heap)

    # -- branching ------------------------------------------------------------------

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity (ties: the smallest
        variable) in its saved phase, or _NO_LITERAL when all are assigned.

        Every unassigned variable is queued at its current activity, so
        the first popped entry that is current and unassigned is the
        maximum.
        """
        heap = self._heap
        activity = self._activity
        values = self._values
        queued = self._queued
        while heap:
            neg_activity, var = heapq.heappop(heap)
            if -neg_activity != activity[var]:
                continue  # stale: a current entry exists if one is needed
            queued[var] = False
            if values[var << 1] != UNASSIGNED:
                continue
            return (var << 1) | self._phase[var]
        return _NO_LITERAL

    # -- main loop -------------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_budget: int | None = None,
        deadline: float | None = None,
    ) -> SatResult:
        """Solve the clause set, optionally under assumptions.

        ``conflict_budget`` bounds the number of conflicts before giving up
        with :data:`SatResult.UNKNOWN` (deterministic timeout emulation).
        ``deadline``, a ``time.perf_counter()`` reading, gives up the same
        way at the first conflict past it: the wall-clock backstop.
        """
        stats = self.stats
        stats.solve_calls += 1
        codes = [_code(lit) for lit in assumptions or ()]
        assumed = set(codes)
        prefix = len(codes)
        if not self._ok:
            return SatResult.UNSAT
        self._backtrack(0)
        self._flush_pending_units()
        if not self._ok:
            return SatResult.UNSAT
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult.UNSAT
        values = self._values
        trail = self._trail
        trail_lim = self._trail_lim
        budget_left = conflict_budget
        restart_index = 0
        restart_limit = RESTART_BASE * luby(restart_index)
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._backtrack(0)
                        return SatResult.UNKNOWN
                if deadline is not None and time.perf_counter() > deadline:
                    self._backtrack(0)
                    return SatResult.UNKNOWN
                if not trail_lim:
                    return SatResult.UNSAT
                if len(trail_lim) <= prefix:
                    # Conflict inside the assumption prefix: the clause set
                    # refutes a subset of the assumptions.  Learn a clause
                    # anyway — the prefix analysis resolves the conflict
                    # down to reason-less literals, so the result is
                    # implied by the clause database alone and transfers
                    # to later solve calls under different assumptions.
                    # UNSAT-heavy incremental workloads would otherwise
                    # never accumulate reusable clauses.
                    prefix_clause = self._analyze_prefix(conflict, assumed)
                    if prefix_clause:
                        self._store_learned(prefix_clause)
                    self._backtrack(0)
                    return SatResult.UNSAT
                learned, backjump = self._analyze(conflict)
                self._backtrack(max(backjump, prefix))
                if len(learned) == 1:
                    # A unit learned clause is implied by the clause database
                    # alone (assumption literals would have survived the
                    # resolution).  When the trail is inside the assumption
                    # prefix the unit is parked so it is re-asserted at the
                    # next root visit and survives into later solve calls.
                    code = learned[0]
                    if trail_lim:
                        self._pending_units.append(code)
                    value = values[code]
                    if value == FALSE:
                        self._backtrack(0)
                        return SatResult.UNSAT
                    if value == UNASSIGNED:
                        self._assign(code, None)
                else:
                    clause = self._store_learned(learned)
                    self._assign(learned[0], clause)
                self._var_inc /= VAR_DECAY
                continue
            if conflicts_since_restart >= restart_limit and len(trail_lim) > prefix:
                stats.restarts += 1
                restart_index += 1
                restart_limit = RESTART_BASE * luby(restart_index)
                conflicts_since_restart = 0
                self._backtrack(prefix)
                continue
            # Apply pending assumptions as decisions.
            depth = len(trail_lim)
            if depth < prefix:
                code = codes[depth]
                value = values[code]
                if value == FALSE:
                    # An earlier assignment (root fact, or a consequence of
                    # the assumptions already applied) falsifies this
                    # assumption.
                    self._backtrack(0)
                    return SatResult.UNSAT
                trail_lim.append(len(trail))
                if value == UNASSIGNED:
                    self._assign(code, None)
                continue
            branch = self._pick_branch()
            if branch == _NO_LITERAL:
                return SatResult.SAT
            stats.decisions += 1
            trail_lim.append(len(trail))
            self._assign(branch, None)

    # -- models ------------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of a variable in the satisfying assignment (after SAT)."""
        return self._values[var << 1] == TRUE

    def model(self) -> dict[int, bool]:
        values = self._values
        return {
            var: values[var << 1] == TRUE for var in range(1, self._num_vars + 1)
        }
