"""Experiment: incremental SMT solving on sync-point-style obligations.

A KEQ sync point issues many solver obligations that share one long
path-condition prefix and differ only in a small delta (one constraint or
memory-equality goal at a time).  This benchmark reproduces that query
shape at the SMT level and measures the incremental session path
(:meth:`repro.smt.solver.Solver.session`) against fresh per-query solving:

- *fresh*: one ``check_sat(prefix ∧ delta)`` per obligation — every call
  re-bit-blasts the prefix and restarts CDCL search from nothing;
- *session*: one session, each check passing the prefix as its
  assumption set — Tseitin encodings and learned clauses persist across
  obligations.

Both modes must agree on every verdict (the function-session-vs-fresh fuzz
oracle checks the same contract on random terms).  The session mode is
asserted to do *less search* — fewer decisions and propagations, counted
deterministically — and to be at least 1.3x faster in wall time.

A second experiment pushes the same contract through the full validator:
the solver-bound corpus (i8 multiply-guard diamonds validated against
ISel's ``mul_decompose`` lowering) with ``KeqOptions.incremental_solving``
on (function scope) vs off.  There the solver is ~95% of KEQ wall time,
so the function-scoped session win must survive end to end: the bench
asserts a wall-time speedup >= 1.3 (measured 1.5-1.7 on the reference
box; both modes take the best of two runs to shed scheduler noise),
strictly fewer CDCL conflicts, ``clauses_reused > 0``, and — the
soundness half — byte-identical campaign summaries once the
timing/solver/session lines are filtered out.

Numbers land in ``BENCH_incremental.json`` via the ``bench_json`` hook.
"""

import dataclasses
import time

from repro.smt import terms as t
from repro.smt.solver import Solver
from repro.tv import TvOptions
from repro.tv.batch import run_corpus
from repro.workloads import solver_bound_corpus

WIDTH = 14
UNSAT_OBLIGATIONS = 24
SAT_OBLIGATIONS = 6
#: ``x`` values whose products ``x*(x+1)`` fix the SAT deltas' low bytes.
#: None of them is a value the solver's witness search probes, so the SAT
#: obligations, too, are decided by CDCL on the shared prefix circuit.
SAT_ROOTS = (37, 91, 133, 201)
CORPUS_SEED = 2021
#: wall-clock lines excluded from the summary-identity comparison.
_NONDETERMINISTIC_LINES = ("time:", "solver:", "session:")


def _const(value):
    return t.bv_const(value & ((1 << WIDTH) - 1), WIDTH)


def _workload():
    """Shared prefix + per-obligation deltas, all distinct post-simplify.

    ``y = x*(x+1)`` is a product of consecutive integers, hence even: each
    odd-target delta is UNSAT but only via bit-level multiplier reasoning,
    so every obligation does real CDCL work on the same prefix circuit.
    """
    x = t.bv_var("x", WIDTH)
    y = t.bv_var("y", WIDTH)
    prefix = [
        t.eq(y, t.mul(x, t.add(x, _const(1)))),
        t.ult(x, _const(5000)),
    ]
    deltas = [t.eq(y, _const(2 * i + 1)) for i in range(UNSAT_OBLIGATIONS)]
    low_bytes = [root * (root + 1) & 0xFF for root in SAT_ROOTS]
    deltas += [
        t.eq(t.bvand(y, _const(0xFF)), _const(low_bytes[i % len(low_bytes)]))
        for i in range(SAT_OBLIGATIONS)
    ]
    return prefix, deltas


def test_bench_incremental_vs_fresh(bench_json):
    prefix, deltas = _workload()
    combined_prefix = t.conj(prefix)

    fresh_solver = Solver()
    started = time.perf_counter()
    fresh = [
        fresh_solver.check_sat(t.and_(combined_prefix, delta))
        for delta in deltas
    ]
    t_fresh = time.perf_counter() - started

    session_solver = Solver()
    started = time.perf_counter()
    with session_solver.session() as session:
        incremental = [session.check(delta, prefix) for delta in deltas]
    t_session = time.perf_counter() - started

    # Soundness first: identical verdicts obligation by obligation.
    assert incremental == fresh

    f_stats, s_stats = fresh_solver.stats, session_solver.stats
    speedup = t_fresh / t_session
    print(f"\nincremental SMT ({len(deltas)} obligations, i{WIDTH}):")
    print(
        f"  fresh:   {t_fresh:.3f}s decisions={f_stats.decisions} "
        f"propagations={f_stats.propagations}"
    )
    print(
        f"  session: {t_session:.3f}s decisions={s_stats.decisions} "
        f"propagations={s_stats.propagations} "
        f"encode_hits={s_stats.encode_cache_hits}"
    )
    print(f"  speedup: {speedup:.2f}x")

    # The reproduction contract: the session does strictly less search
    # (deterministic counters) and is materially faster (>= 1.3x; the
    # observed margin is ~7x, so the bound survives noisy CI boxes).
    assert s_stats.decisions < f_stats.decisions
    assert s_stats.propagations < f_stats.propagations
    assert s_stats.incremental_checks == len(deltas)
    assert s_stats.encode_cache_hits > 0
    assert speedup >= 1.3

    bench_json(
        "incremental",
        {
            "width": WIDTH,
            "obligations": len(deltas),
            "wall_seconds": {
                "fresh": round(t_fresh, 4),
                "session": round(t_session, 4),
            },
            "speedup": round(speedup, 3),
            "decisions": {
                "fresh": f_stats.decisions,
                "session": s_stats.decisions,
            },
            "propagations": {
                "fresh": f_stats.propagations,
                "session": s_stats.propagations,
            },
            "session_counters": {
                "incremental_checks": s_stats.incremental_checks,
                "encode_cache_hits": s_stats.encode_cache_hits,
                "clauses_reused": s_stats.clauses_reused,
            },
        },
    )


def _stable_summary(result) -> str:
    """The campaign summary minus wall-clock/solver-counter lines."""
    return "\n".join(
        line
        for line in result.summary().splitlines()
        if not line.startswith(_NONDETERMINISTIC_LINES)
    )


def _timed_corpus_run(corpus, options):
    """Best of two runs: (min wall seconds, last BatchResult)."""
    best = float("inf")
    result = None
    for _ in range(2):
        started = time.perf_counter()
        result = run_corpus(corpus, options, dedup=False)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_keq_incremental_end_to_end(bench_json):
    corpus = solver_bound_corpus(seed=CORPUS_SEED)
    base = TvOptions()
    enabled = dataclasses.replace(
        base,
        isel=dataclasses.replace(base.isel, mul_decompose=True),
        keq=dataclasses.replace(
            base.keq, incremental_solving=True
        ),
    )
    disabled = dataclasses.replace(
        enabled,
        keq=dataclasses.replace(enabled.keq, incremental_solving=False),
    )

    t_off, off = _timed_corpus_run(corpus, disabled)
    t_on, on = _timed_corpus_run(corpus, enabled)

    # Flipping the solver path must never flip a validation verdict —
    # the campaign reports are byte-identical once the timing and solver
    # counter lines are filtered out.
    assert [(o.function, o.category) for o in on.outcomes] == [
        (o.function, o.category) for o in off.outcomes
    ]
    assert _stable_summary(on) == _stable_summary(off)
    assert on.solver_stats.incremental_checks > 0
    assert on.solver_stats.clauses_reused > 0
    assert off.solver_stats.incremental_checks == 0

    speedup = t_off / t_on if t_on else 0.0
    print(f"\nKEQ campaign (solver-bound corpus), incremental off vs on:")
    print(f"  off: {t_off:.2f}s   on: {t_on:.2f}s   ({speedup:.2f}x)")
    print(
        f"  conflicts: off={off.solver_stats.conflicts}"
        f" on={on.solver_stats.conflicts}"
        f" clauses_reused={on.solver_stats.clauses_reused}"
    )

    # The session must do strictly less CDCL search (deterministic) and be
    # materially faster end to end (the observed margin is 1.5-1.7x, so
    # the 1.3x bound survives noisy CI boxes).
    assert on.solver_stats.conflicts < off.solver_stats.conflicts
    assert speedup >= 1.3

    bench_json(
        "incremental",
        {
            "keq_campaign": {
                "corpus": "solver_bound",
                "functions": len(on.outcomes),
                "wall_seconds": {
                    "incremental_off": round(t_off, 3),
                    "incremental_on": round(t_on, 3),
                },
                "speedup": round(speedup, 3),
                "conflicts": {
                    "incremental_off": off.solver_stats.conflicts,
                    "incremental_on": on.solver_stats.conflicts,
                },
                "session_counters": {
                    "incremental_checks": (
                        on.solver_stats.incremental_checks
                    ),
                    "clauses_reused": on.solver_stats.clauses_reused,
                    "clauses_evicted": on.solver_stats.clauses_evicted,
                },
            }
        },
    )
