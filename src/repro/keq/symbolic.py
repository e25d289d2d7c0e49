"""KEQ: the symbolic variant of Algorithm 1 (paper Section 3).

``Keq`` is parameterized by the two language semantics and never inspects
the programs directly — the language-parametricity property that names the
paper.  For each synchronization point, it

1. *instantiates* the point: builds one symbolic state per side whose
   constrained names are bound to shared fresh symbols and whose memories
   are one shared symbolic memory (so the point's ψ holds by construction);
2. computes each side's *cut-successors* by symbolic execution up to the
   next synchronization location / exit / error / call;
3. checks every reachable successor pair is *included* in some
   synchronization point: structural match, path-condition equivalence
   (with the positive-form SMT optimization for deterministic semantics),
   provable equality constraints, and provable whole-memory equality;
4. requires every left successor — and in bisimulation mode every right
   successor — to be matched (the paper's black colouring).

Undefined behaviour follows Section 4.6: a left error state is accepted
against anything (the check degrades to refinement on those paths), a
right error state must be matched by a left error of the same kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.keq.acceptability import Acceptability, default_acceptability
from repro.keq.report import (
    CheckFailure,
    FailureReason,
    KeqReport,
    KeqStats,
    Verdict,
)
from repro.keq.proof import EquivalenceProof, MatchedPair, Obligation
from repro.keq.syncpoints import EqConstraint, Expr, StateSpec, SyncPoint
from repro.memory import Memory, PointerValue
from repro.semantics.interface import Semantics
from repro.semantics.state import (
    Location,
    ProgramState,
    StatusKind,
    Value,
    value_term,
)
from repro.smt import Result, Solver, check_query
from repro.smt import terms as t
from repro.smt.simplify import simplify
from repro.smt.terms import Term


@dataclass
class KeqOptions:
    max_steps: int = 4000  # symbolic execution budget per next() call
    max_pair_checks: int = 2500  # successor-pair budget per check()
    mode: str = "bisimulation"  # or "simulation" (refinement)
    use_positive_form: bool = True  # the paper's SMT query optimization
    #: route obligations through one incremental solver session per
    #: function pair: each sync point's instantiated prefix rides as a
    #: swappable assumption set, so every feasibility/path/constraint/
    #: memory obligation of the function shares one clause database.
    incremental_solving: bool = True
    #: the session lifetime: only ``"function"`` is accepted (the field
    #: stays for callers that still pass it).
    session_scope: str = "function"
    solver_conflict_budget: int = 100_000
    record_proof: bool = False  # build a machine-checkable witness
    #: wall-clock budget per function — the paper's actual mechanism (a
    #: 3-hour limit per verification run).  None disables it; the batch
    #: campaign sets one so pathological solver workloads land in the
    #: timeout row exactly as in the paper.
    wall_budget_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.session_scope != "function":
            raise ValueError(
                f"session_scope {self.session_scope!r} is not supported;"
                " sessions are function-scoped"
            )


class _StepBudgetExceeded(Exception):
    pass


class _SolverBudgetExceeded(Exception):
    pass


class _WallBudgetExceeded(Exception):
    pass


class Keq:
    """The language-parametric equivalence checker."""

    def __init__(
        self,
        left: Semantics,
        right: Semantics,
        acceptability: Acceptability | None = None,
        options: KeqOptions | None = None,
        solver: Solver | None = None,
    ):
        self.left = left
        self.right = right
        self.acceptability = acceptability or default_acceptability()
        self.options = options or KeqOptions()
        self.solver = solver or Solver(
            conflict_budget=self.options.solver_conflict_budget
        )
        self._proof: EquivalenceProof | None = None
        self._obligation_context: tuple[str, str] = ("?", "?")
        #: the active incremental session (None when disabled); opened per
        #: function in :meth:`check_equivalence`.
        self._session = None
        #: ``time.perf_counter()`` reading past which the running check is
        #: a wall-clock timeout (None: no wall budget)
        self._deadline: float | None = None

    # ------------------------------------------------------------------ driver --

    def check_equivalence(self, points) -> KeqReport:
        """Algorithm 1's ``main``: is the point set a cut-bisimulation?"""
        points = list(points)
        stats = KeqStats()
        failures: list[CheckFailure] = []
        started = time.perf_counter()
        self._proof = None
        if self.options.record_proof and points:
            first = points[0]
            self._proof = EquivalenceProof(
                left_program=(
                    first.left.location.function if first.left.location else "?"
                ),
                right_program=(
                    first.right.location.function if first.right.location else "?"
                ),
                point_names=[p.name for p in points],
                executable_points=[p.name for p in points if p.executable],
            )
        # Cut locations: only "at" specs denote running states; call specs
        # are reached through the CALLING status, not by location.
        left_cuts = {
            _loc_key(p.left.location)
            for p in points
            if p.left.status == "at" and p.left.location
        }
        right_cuts = {
            _loc_key(p.right.location)
            for p in points
            if p.right.status == "at" and p.right.location
        }
        verdict = Verdict.VALIDATED
        deadline = (
            started + self.options.wall_budget_seconds
            if self.options.wall_budget_seconds is not None
            else None
        )
        self._deadline = deadline
        # Function-scoped incremental session: one clause database serves
        # every sync point of this function.  Each point's instantiated
        # prefix enters as per-check assumptions (indicator literals),
        # retracted automatically between points — only DB-implied learned
        # clauses persist, so retracted points cannot constrain later ones.
        if self.options.incremental_solving:
            self._session = self.solver.session()
        try:
            verdict = self._run_points(
                points, left_cuts, right_cuts, stats, failures, verdict
            )
        finally:
            self._session = None
        stats.wall_time = time.perf_counter() - started
        stats.solver_queries = self.solver.stats.queries
        stats.cache_hits = self.solver.stats.cache_hits
        stats.cache_misses = self.solver.stats.cache_misses
        proof = self._proof if verdict is Verdict.VALIDATED else None
        self._proof = None
        return KeqReport(verdict, failures, stats, proof)

    def _run_points(
        self, points, left_cuts, right_cuts, stats, failures, verdict
    ) -> Verdict:
        for point in points:
            if not point.executable:
                continue
            stats.points_checked += 1
            try:
                ok = self._check_point(point, points, left_cuts, right_cuts, stats, failures)
            except _WallBudgetExceeded:
                failures.append(
                    CheckFailure(point.name, FailureReason.STEP_BUDGET, "wall clock")
                )
                verdict = Verdict.TIMEOUT
                break
            except _StepBudgetExceeded:
                failures.append(
                    CheckFailure(point.name, FailureReason.STEP_BUDGET)
                )
                verdict = Verdict.TIMEOUT
                break
            except _SolverBudgetExceeded:
                failures.append(
                    CheckFailure(point.name, FailureReason.SOLVER_UNKNOWN)
                )
                verdict = Verdict.TIMEOUT
                break
            except Exception as error:  # semantics errors: unsupported input
                failures.append(
                    CheckFailure(point.name, FailureReason.UNSUPPORTED, str(error))
                )
                verdict = Verdict.NOT_VALIDATED
                break
            if not ok:
                verdict = Verdict.NOT_VALIDATED
                break
        return verdict

    # ------------------------------------------------------- point instantiation --

    def instantiate(self, point: SyncPoint) -> tuple[ProgramState, ProgramState]:
        """Build the shared-symbol state pair a point denotes."""
        memory = Memory.create(list(point.memory_objects))
        left_env: dict[str, Value] = {}
        right_env: dict[str, Value] = {}
        memories = {"l": memory, "r": memory}
        for index, constraint in enumerate(point.constraints):
            self._bind_constraint(
                point, index, constraint, left_env, right_env, memories
            )
        left_state = self._make_state(point.left, left_env, memories["l"])
        right_state = self._make_state(point.right, right_env, memories["r"])
        return left_state, right_state

    def _bind_constraint(
        self,
        point: SyncPoint,
        index: int,
        constraint: EqConstraint,
        left_env: dict[str, Value],
        right_env: dict[str, Value],
        memories: dict[str, Memory] | None = None,
    ) -> None:
        current_left = _peek(left_env, constraint.left)
        current_right = _peek(right_env, constraint.right)
        # A cross-width constraint `l = r` with width(l) < width(r) denotes
        # `zext(l) == r`, so the shared symbol lives at the *minimum* width
        # and the wider side is bound to its zero-extension.  (Physical
        # sub-register constraints are the exception — handled in _bind.)
        shared_width = min(constraint.left.width, constraint.right.width)
        shared: Value | None = None
        if constraint.left.kind == "lit":
            shared = t.bv_const(constraint.left.payload, shared_width)
        elif constraint.right.kind == "lit":
            shared = t.bv_const(constraint.right.payload, shared_width)
        elif constraint.left.kind == "ptr":
            obj, off = constraint.left.payload
            shared = PointerValue(obj, t.bv_const(off, 64))
        elif constraint.right.kind == "ptr":
            obj, off = constraint.right.payload
            shared = PointerValue(obj, t.bv_const(off, 64))
        elif current_left is not None:
            shared = current_left
        elif current_right is not None:
            shared = current_right
        if shared is None:
            if constraint.pointer_object is not None:
                shared = PointerValue(
                    constraint.pointer_object,
                    t.bv_var(f"sp_{point.name}_{index}", 64),
                )
            else:
                shared = t.bv_var(f"sp_{point.name}_{index}", shared_width)
        _bind(
            left_env, constraint.left, shared, point, index, "l",
            junk_width=(
                constraint.junk_width if constraint.junk_upper == "left" else None
            ),
        )
        _bind(
            right_env, constraint.right, shared, point, index, "r",
            junk_width=(
                constraint.junk_width if constraint.junk_upper == "right" else None
            ),
        )
        if memories is not None:
            for side, expr in (("l", constraint.left), ("r", constraint.right)):
                if expr.kind == "mem":
                    object_name, offset = expr.payload
                    pointer = PointerValue(object_name, t.bv_const(offset, 64))
                    term = _adjust_width(shared, ((expr.width + 7) // 8) * 8)
                    memories[side] = memories[side].store(
                        pointer, term, (expr.width + 7) // 8
                    )

    def _make_state(
        self, spec: StateSpec, env: dict[str, Value], memory: Memory
    ) -> ProgramState:
        if spec.status != "at":
            # Exit/call specs denote covering states; they are never
            # executed (SyncPoint.executable is False for such points).
            raise ValueError("only 'at' specs can be instantiated")
        assert spec.location is not None
        return ProgramState(
            location=spec.location,
            env=env,
            memory=memory,
            prev_block=spec.prev_block,
        )

    # ------------------------------------------------------------ cut successors --

    def next_states(
        self,
        semantics: Semantics,
        start: ProgramState,
        cut_locations: set,
    ) -> list[ProgramState]:
        """Algorithm 1's ``next_i``: symbolic execution to the next cuts."""
        results: list[ProgramState] = []
        frontier = list(semantics.step(start))
        steps = len(frontier)
        guard = 0
        while frontier:
            guard += 1
            if guard % 256 == 0:
                self._check_deadline()
            state = frontier.pop()
            if self._is_cut_state(state, cut_locations):
                results.append(state)
                continue
            successors = semantics.step(state)
            if not successors and state.status is StatusKind.RUNNING:
                raise RuntimeError(f"running state with no successors: {state}")
            steps += len(successors)
            if steps > self.options.max_steps:
                raise _StepBudgetExceeded()
            frontier.extend(successors)
        return results

    def _check_deadline(self) -> None:
        deadline = self._deadline
        if deadline is not None and time.perf_counter() > deadline:
            raise _WallBudgetExceeded()

    @staticmethod
    def _is_cut_state(state: ProgramState, cut_locations: set) -> bool:
        if state.status is not StatusKind.RUNNING:
            return True
        assert state.location is not None
        return _loc_key(state.location) in cut_locations

    # ------------------------------------------------------------------ checking --

    def _check_sat_conditional(self, delta: Term, assumptions=()) -> Result:
        """SAT(assumptions ∧ delta) via the active session, if any.

        Without a session (``incremental_solving`` off) the same query,
        built by :func:`~repro.smt.solver.check_query`, goes to
        ``check_sat``: both paths decide one formula under one memo and
        cache key.  The wall-clock deadline reaches the
        SAT search; an UNKNOWN past it is the wall-clock timeout, not the
        conflict budget running out.
        """
        deadline = self._deadline
        if self._session is not None:
            outcome = self._session.check(
                delta, assumptions=assumptions, deadline=deadline
            )
        else:
            _, query = check_query(delta, assumptions)
            outcome = self.solver.check_sat(query, deadline=deadline)
        if outcome is Result.UNKNOWN:
            self._check_deadline()
        return outcome

    def _check_point(
        self,
        point: SyncPoint,
        points: list[SyncPoint],
        left_cuts: set,
        right_cuts: set,
        stats: KeqStats,
        failures: list[CheckFailure],
    ) -> bool:
        left_state, right_state = self.instantiate(point)
        lefts = self.next_states(self.left, left_state, left_cuts)
        rights = self.next_states(self.right, right_state, right_cuts)
        stats.steps_left += sum(s.steps for s in lefts)
        stats.steps_right += sum(s.steps for s in rights)
        if len(lefts) * len(rights) > self.options.max_pair_checks:
            # Quadratically many successor pairs: the same blow-up that
            # dominates the paper's timeout category.
            raise _StepBudgetExceeded()
        left_has_error = any(s.status is StatusKind.ERROR for s in lefts)
        left_black: set[int] = set()
        right_black: set[int] = set()
        last_failure: CheckFailure | None = None
        for i, n1 in enumerate(lefts):
            self._check_deadline()
            if self.acceptability.left_error_accepted(n1):
                # UB on the left: acceptable against anything (Section 4.6).
                # Still run the pair loop so matching right error states can
                # be blackened through the error-pair rule.
                left_black.add(i)
            for j, n2 in enumerate(rights):
                matched, failure = self._match_pair(
                    point, n1, n2, rights, lefts, points, left_has_error
                )
                if matched:
                    left_black.add(i)
                    right_black.add(j)
                    stats.pairs_matched += 1
                    if self._proof is not None:
                        self._proof.matched_pairs.append(
                            MatchedPair(
                                source_point=point.name,
                                target_point=matched if isinstance(matched, str) else "",
                                left_state=n1.describe(),
                                right_state=n2.describe(),
                            )
                        )
                elif failure is not None:
                    last_failure = failure
        # An unmatched successor whose path condition is unsatisfiable
        # denotes no concrete states; it is vacuously covered.
        for index in range(len(lefts)):
            if index not in left_black and self._infeasible(lefts[index]):
                left_black.add(index)
        for index in range(len(rights)):
            if index not in right_black and self._infeasible(rights[index]):
                right_black.add(index)
        ok = True
        if len(left_black) != len(lefts):
            missing = next(k for k in range(len(lefts)) if k not in left_black)
            failures.append(
                last_failure
                or CheckFailure(
                    point.name,
                    FailureReason.UNMATCHED_LEFT,
                    lefts[missing].describe(),
                )
            )
            ok = False
        if self.options.mode == "bisimulation" and len(right_black) != len(rights):
            missing = next(k for k in range(len(rights)) if k not in right_black)
            failures.append(
                last_failure
                or CheckFailure(
                    point.name,
                    FailureReason.UNMATCHED_RIGHT,
                    rights[missing].describe(),
                )
            )
            ok = False
        return ok

    def _infeasible(self, state: ProgramState) -> bool:
        outcome = self._check_sat_conditional(state.path_condition)
        if outcome is Result.UNKNOWN:
            raise _SolverBudgetExceeded()
        infeasible = outcome is Result.UNSAT
        if infeasible and self._proof is not None:
            self._proof.obligations.append(
                Obligation(
                    kind="feasibility",
                    source_point=self._obligation_context[0],
                    target_point="-",
                    claim_unsat=state.path_condition,
                    description="vacuous successor",
                )
            )
        return infeasible

    def _match_pair(
        self,
        source: SyncPoint,
        n1: ProgramState,
        n2: ProgramState,
        right_siblings: list[ProgramState],
        left_siblings: list[ProgramState],
        points: list[SyncPoint],
        left_has_error: bool,
    ) -> tuple[bool, CheckFailure | None]:
        """Is the pair (n1, n2) included in some synchronization point?"""
        if n1.status is StatusKind.ERROR or n2.status is StatusKind.ERROR:
            if self.acceptability.error_pair_related(n1, n2):
                ok, failure = self._check_path_conditions(
                    source, n1, n2, right_siblings, left_siblings, left_has_error
                )
                return (ok, failure)
            return (False, None)
        candidates = [
            target
            for target in points
            if _spec_matches(target.left, n1) and _spec_matches(target.right, n2)
        ]
        if not candidates:
            return (False, None)
        self._obligation_context = (source.name, candidates[0].name)
        ok, failure = self._check_path_conditions(
            source, n1, n2, right_siblings, left_siblings, left_has_error
        )
        if not ok:
            return (False, failure)
        last_failure: CheckFailure | None = None
        for target in candidates:
            ok, failure = self._check_inclusion(source, target, n1, n2)
            if ok:
                return (True, None)
            last_failure = failure or last_failure
        return (False, last_failure)

    def _check_inclusion(
        self,
        source: SyncPoint,
        target: SyncPoint,
        n1: ProgramState,
        n2: ProgramState,
    ) -> tuple[bool, CheckFailure | None]:
        assumption = t.and_(n1.path_condition, n2.path_condition)
        for constraint in target.constraints:
            try:
                left_value = _eval_expr(n1, constraint.left)
                right_value = _eval_expr(n2, constraint.right)
            except KeyError as error:
                return (
                    False,
                    CheckFailure(
                        source.name, FailureReason.UNBOUND_NAME, str(error)
                    ),
                )
            goal = t.eq(
                _adjust_width(left_value, constraint.width),
                _adjust_width(right_value, constraint.width),
            )
            self._obligation_context = (source.name, target.name)
            outcome = self._prove(
                assumption, goal, "constraint", str(constraint)
            )
            if outcome is not True:
                return (
                    False,
                    CheckFailure(
                        source.name,
                        FailureReason.CONSTRAINT,
                        f"{target.name}: {constraint}",
                    ),
                )
        if target.check_memory:
            equal = simplify(
                n1.memory.equal_term(n2.memory, objects=(
                    list(target.memory_equal_objects)
                    if target.memory_equal_objects is not None
                    else None
                ))
            )
            self._obligation_context = (source.name, target.name)
            outcome = self._prove(assumption, equal, "memory")
            if outcome is not True:
                return (
                    False,
                    CheckFailure(
                        source.name, FailureReason.MEMORY, f"target {target.name}"
                    ),
                )
        return (True, None)

    def _check_path_conditions(
        self,
        source: SyncPoint,
        n1: ProgramState,
        n2: ProgramState,
        right_siblings: list[ProgramState],
        left_siblings: list[ProgramState],
        left_has_error: bool,
    ) -> tuple[bool, CheckFailure | None]:
        pc1 = n1.path_condition
        pc2 = n2.path_condition
        # Fast paths: identical path conditions are trivially equivalent
        # (the shared-symbol instantiation makes this the common case for
        # correctly-paired successors); syntactically contradictory ones
        # cannot satisfy pc1 => pc2 unless pc1 is itself unsatisfiable, in
        # which case the pair denotes nothing and may be rejected anyway.
        if pc1 is pc2:
            return (True, None)
        if simplify(t.and_(pc1, pc2)) is t.FALSE:
            return (
                False,
                CheckFailure(
                    source.name, FailureReason.PATH_CONDITION, "disjoint"
                ),
            )
        forward = self._prove_implication(
            pc1, pc2, right_siblings, n2, self.right.deterministic
        )
        if forward is not True:
            return (
                False,
                CheckFailure(source.name, FailureReason.PATH_CONDITION, "pc1 => pc2"),
            )
        refinement_only = (
            self.options.mode == "simulation"
            or (left_has_error and self.acceptability.left_error_accepts_all)
        )
        if not refinement_only:
            backward = self._prove_implication(
                pc2, pc1, left_siblings, n1, self.left.deterministic
            )
            if backward is not True:
                return (
                    False,
                    CheckFailure(
                        source.name, FailureReason.PATH_CONDITION, "pc2 => pc1"
                    ),
                )
        return (True, None)

    def _prove_implication(
        self,
        antecedent: Term,
        consequent: Term,
        siblings: list[ProgramState],
        target_state: ProgramState,
        deterministic: bool,
    ) -> bool:
        """``antecedent => consequent`` using the positive form when the
        semantics that produced ``siblings`` is deterministic (Section 3:
        the sibling path conditions then partition ``¬consequent``)."""
        if self.options.use_positive_form and deterministic:
            psi = t.disj(
                s.path_condition for s in siblings if s is not target_state
            )
            outcome = self._check_sat_conditional(psi, assumptions=[antecedent])
        else:
            outcome = self._check_sat_conditional(
                t.not_(consequent), assumptions=[antecedent]
            )
        if outcome is Result.UNKNOWN:
            raise _SolverBudgetExceeded()
        proven = outcome is Result.UNSAT
        if proven and self._proof is not None:
            source, target = self._obligation_context
            self._proof.obligations.append(
                Obligation(
                    kind="pc-implication",
                    source_point=source,
                    target_point=target,
                    claim_unsat=t.and_(antecedent, t.not_(consequent)),
                )
            )
        return proven

    def _prove(
        self,
        assumption: Term,
        goal: Term,
        kind: str = "constraint",
        detail: str = "",
    ) -> bool:
        """Prove ``assumption ⇒ goal`` via UNSAT(assumption ∧ ¬goal).

        The assumption (the pair's ``pc1 ∧ pc2``) rides as a session
        assumption so consecutive constraint/memory obligations of one
        matched pair re-solve only their delta.
        """
        outcome = self._check_sat_conditional(
            t.not_(goal), assumptions=[assumption]
        )
        if outcome is Result.UNKNOWN:
            raise _SolverBudgetExceeded()
        proven = outcome is Result.UNSAT
        if proven and self._proof is not None:
            source, target = self._obligation_context
            self._proof.obligations.append(
                Obligation(
                    kind=kind,
                    source_point=source,
                    target_point=target,
                    claim_unsat=t.and_(assumption, t.not_(goal)),
                    description=detail,
                )
            )
        return proven


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _loc_key(location: Location | None):
    if location is None:
        return None
    return (location.function, location.block, location.index)


def _spec_matches(spec: StateSpec, state: ProgramState) -> bool:
    if spec.status == "exit":
        return state.status is StatusKind.EXITED
    if spec.status == "call":
        return (
            state.status is StatusKind.CALLING
            and state.call is not None
            and state.call.callee == spec.callee
            and _loc_key(state.location) == _loc_key(spec.location)
        )
    if spec.status == "at":
        if state.status is not StatusKind.RUNNING:
            return False
        if _loc_key(state.location) != _loc_key(spec.location):
            return False
        return spec.prev_block is None or state.prev_block == spec.prev_block
    return False


def _peek(env: dict[str, Value], expr: Expr) -> Value | None:
    if expr.kind == "env":
        return env.get(expr.payload)
    return None


def _bind(
    env: dict[str, Value],
    expr: Expr,
    shared: Value,
    point: SyncPoint,
    index: int,
    side: str,
    junk_width: int | None = None,
) -> None:
    if expr.kind != "env" or expr.payload in env:
        return
    name = expr.payload
    value: Value = shared
    if (
        junk_width is not None
        and isinstance(shared, Term)
        and shared.width < junk_width
    ):
        # Sub-register view: the entry is wider than the constraint and its
        # upper bits are unconstrained junk (deterministically named so
        # both instantiations in one check stay consistent).
        junk = t.bv_var(
            f"hi_{point.name}_{index}_{side}", junk_width - shared.width
        )
        value = t.concat(junk, shared)
    elif isinstance(shared, Term) and shared.width != expr.width:
        value = _adjust_width(shared, expr.width)
    env[name] = value


def _eval_expr(state: ProgramState, expr: Expr) -> Value:
    if expr.kind == "env":
        return state.lookup(expr.payload)
    if expr.kind == "lit":
        return t.bv_const(expr.payload, expr.width)
    if expr.kind == "ret":
        if state.returned is None:
            raise KeyError("state has no return value")
        return state.returned
    if expr.kind == "arg":
        if state.call is None:
            raise KeyError("state is not at a call")
        return state.call.arguments[expr.payload]
    if expr.kind == "mem":
        object_name, offset = expr.payload
        pointer = PointerValue(object_name, t.bv_const(offset, 64))
        return state.memory.load(pointer, (expr.width + 7) // 8)
    if expr.kind == "ptr":
        object_name, offset = expr.payload
        return PointerValue(object_name, t.bv_const(offset, 64))
    raise KeyError(f"unknown expression kind {expr.kind!r}")


def _adjust_width(value: Value, width: int) -> Term:
    term = value_term(value)
    if term.width > width:
        return t.trunc(term, width)
    if term.width < width:
        return t.zext(term, width)
    return term
