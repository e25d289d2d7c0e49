"""How each decision path books its answer, on the fresh and session paths.

``Solver.check_sat`` and ``SolverSession.check`` share one answer path:
the fast-path ladder (constant, memo, shared cache, boolean skeleton,
witness search, literal propagation) and one CDCL tail.  Per path, this
table pins which ``QueryStats`` counters move, whether the memo holds the
answer afterwards, and what the shared cache was given to store.
"""

import pytest

from repro.smt import QueryCache, Solver, check_query, simplify, t
from repro.smt.solver import Result

#: the counters that tell the decision paths apart (``queries`` and, on the
#: session path, ``incremental_checks`` move on every check).
ANSWER_COUNTERS = (
    "fast_path",
    "witnessed",
    "refuted",
    "cache_hits",
    "cache_misses",
    "cache_hits_unused",
    "sat_calls",
    "sat_calls_sat",
    "sat_calls_unsat",
    "unknowns",
)


class RecordingCache(QueryCache):
    """A query cache that records every store it is given."""

    def __init__(self):
        super().__init__()
        self.stored: list[tuple[Result, int]] = []

    def store(self, goal, result, cost):
        self.stored.append((result, cost))
        super().store(goal, result, cost)


def _x():
    return t.bv_var("ax", 4)


def _y():
    return t.bv_var("ay", 4)


def _remu_goal():
    """Refuted by literal propagation only (substituting ``p1 != 0``)."""
    p1, p2 = t.bv_var("ap1", 8), t.bv_var("ap2", 8)
    rem = t.urem(p1, p1)
    guarded = t.ite(t.eq(p1, t.zero(8)), p1, rem)
    return t.ne(p1, t.zero(8)), t.not_(t.eq(t.mul(p2, rem), t.mul(p2, guarded)))


def _square_is_three():
    """UNSAT at width 4, and only CDCL decides it (two conflicts)."""
    return t.eq(t.mul(_x(), _x()), t.bv_const(3, 4))


#: path -> (delta and assumptions, need_model, conflict budget, verdict,
#: answer counters moved, memo holds the answer, store cost: None for no
#: store, "cdcl" for the search's conflicts + 1).  ``memo`` and ``cache``
#: rows decide the query once beforehand (into the memo, or through a
#: second solver into the shared cache).
PATHS = {
    "constant": (
        lambda: (t.TRUE, ()), False, None, Result.SAT,
        {"fast_path"}, False, None,
    ),
    "memo": (
        lambda: (t.eq(_x(), t.bv_const(1, 4)), ()), False, None, Result.SAT,
        {"fast_path"}, True, None,
    ),
    "cache": (
        lambda: (t.eq(_x(), t.bv_const(1, 4)), ()), False, None, Result.SAT,
        {"fast_path", "cache_hits"}, True, None,
    ),
    "skeleton": (
        lambda: (t.ult(_y(), _x()), (t.ult(_x(), _y()),)), False, None,
        Result.UNSAT, {"fast_path", "cache_misses"}, True, 0,
    ),
    "witness": (
        lambda: (t.eq(_x(), t.bv_const(1, 4)), ()), False, None, Result.SAT,
        {"fast_path", "witnessed", "cache_misses"}, True, 0,
    ),
    "propagation": (
        lambda: (_remu_goal()[1], (_remu_goal()[0],)), False, None,
        Result.UNSAT, {"fast_path", "refuted", "cache_misses"}, True, 0,
    ),
    "cdcl-sat": (
        lambda: (t.eq(_x(), t.bv_const(1, 4)), ()), True, None, Result.SAT,
        {"sat_calls", "sat_calls_sat", "cache_misses"}, True, "cdcl",
    ),
    "cdcl-unsat": (
        lambda: (_square_is_three(), ()), False, None, Result.UNSAT,
        {"sat_calls", "sat_calls_unsat", "cache_misses"}, True, "cdcl",
    ),
    "cdcl-unknown": (
        lambda: (_square_is_three(), ()), False, 1, Result.UNKNOWN,
        {"sat_calls", "unknowns", "cache_misses"}, False, None,
    ),
}


def _check(solver, session, delta, assumptions, need_model):
    if session is not None:
        return session.check(delta, assumptions, need_model=need_model)
    return solver.check_sat(check_query(delta, assumptions)[1], need_model)


def _counters(solver) -> dict[str, int]:
    stats = solver.stats
    return {name: getattr(stats, name) for name in ANSWER_COUNTERS}


@pytest.mark.parametrize("via", ["fresh", "session"])
@pytest.mark.parametrize("path", list(PATHS))
def test_answer_bookkeeping(path, via):
    build, need_model, budget, verdict, moved, memoised, cost = PATHS[path]
    delta, assumptions = build()
    query = simplify(check_query(delta, assumptions)[1])
    cache = RecordingCache()
    solver = Solver(conflict_budget=budget or 100_000, cache=cache)
    session = solver.session() if via == "session" else None
    if path == "memo":
        _check(solver, session, delta, assumptions, need_model)
    elif path == "cache":
        Solver(cache=cache).check_sat(query)
    cache.stored.clear()
    before = _counters(solver)
    queries = solver.stats.queries
    checks = solver.stats.incremental_checks
    conflicts = solver.stats.conflicts

    assert _check(solver, session, delta, assumptions, need_model) is verdict

    after = _counters(solver)
    assert {name for name in after if after[name] != before[name]} == moved
    assert all(after[name] - before[name] == 1 for name in moved)
    assert solver.stats.queries == queries + 1
    assert solver.stats.incremental_checks == checks + (via == "session")
    assert solver._memo.get(query) is (verdict if memoised else None)
    if cost is None or (cost == "cdcl" and via == "session"):
        # A session's CDCL answer is never stored: its conflict count may
        # lean on clauses learned by earlier checks.
        assert cache.stored == []
    elif cost == "cdcl":
        assert cache.stored == [(verdict, solver.stats.conflicts - conflicts + 1)]
    else:
        assert cache.stored == [(verdict, cost)]

