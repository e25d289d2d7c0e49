"""Trajectory lock for the CDCL core.

Every ``solve()`` of a fixed set of operation streams must reproduce the
search recorded in ``data/sat_trajectory.json`` step for step: the result,
every :class:`~repro.smt.sat.Stats` counter, the number of learned clauses
and the full assignment.  Equal counters after every call mean equal
decisions, propagations, conflicts, learned clauses, restarts and
evictions, so a rewrite of the core's data structures that passes this
test searches exactly like the core that recorded the fixture.

The streams are generated here from seeds.  They cover incremental sessions
under assumptions (duplicate and contradictory ones included), clauses and
units added right after a SAT answer, ``reset_to_root`` and
``reduce_learned``, the session maintenance pass ``inprocess(cap)`` (root
simplification, then eviction), bit-blasted goals in both conjunction
orders under doubling conflict-budget slices, bit-blasted goals from the
fuzz generator, and VSIDS activity rescaling.

Term serials order the operands of commutative operations, so the CNF of a
bit-blasted goal depends on which terms the process interned before it.
The streams therefore run in a fresh interpreter.  Re-record the fixture
only for an intended change of search behaviour::

    PYTHONPATH=src python tests/smt/test_sat_trajectory.py --record
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.generator import TermGenerator
from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.sat import VAR_DECAY, SatResult, SatSolver, Stats

FIXTURE = Path(__file__).resolve().parent / "data" / "sat_trajectory.json"


# ---------------------------------------------------------------------------
# Stream generation (runs in the fresh interpreter)
# ---------------------------------------------------------------------------


def _solve(log, solver, assumptions=None, budget=None):
    result = solver.solve(assumptions=assumptions, conflict_budget=budget)
    model = solver.model().values()
    log.append(
        {
            "result": result.value,
            "stats": dataclasses.astuple(solver.stats),
            "learned": solver.num_learned,
            "model": "".join("1" if value else "0" for value in model),
        }
    )
    return result


def _reduce(log, solver, cap):
    log.append({"op": "reduce_learned", "returned": solver.reduce_learned(cap)})


def _random_clause(rng, nvars, size):
    chosen = rng.sample(range(1, nvars + 1), size)
    return [var if rng.random() < 0.5 else -var for var in chosen]


def _random_assumptions(rng, nvars, count):
    assumptions = _random_clause(rng, nvars, count)
    if assumptions and rng.random() < 0.2:
        assumptions.append(-assumptions[0])  # contradictory pair
    if assumptions and rng.random() < 0.2:
        assumptions.insert(0, assumptions[-1])  # duplicate
    return assumptions


def _pigeonhole(pigeons, holes):
    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                clauses.append([-var(first, hole), -var(second, hole)])
    return clauses


def _shift_add(x, factor, width):
    acc, bit = t.bv_const(0, width), 0
    while factor:
        if factor & 1:
            acc = t.add(acc, t.shl(x, t.bv_const(bit, width)))
        factor >>= 1
        bit += 1
    return acc


def _miter(width, factor):
    """UNSAT: a constant multiplication differs from its shift-add form."""
    x = t.bv_var(f"x{width}", width)
    product = t.mul(x, t.bv_const(factor, width))
    return t.ne(product, _shift_add(x, factor, width))


def stream_incremental(seed):
    """One long-lived solver: clause batches, solves under assumptions."""
    rng = random.Random(seed)
    log = []
    solver = SatSolver()
    nvars = 120
    for _ in range(380):
        solver.add_clause(_random_clause(rng, nvars, 3))
    for _ in range(16):
        for _ in range(rng.randint(4, 12)):
            size = rng.choice((2, 3, 3, 3, 4))
            solver.add_clause(_random_clause(rng, nvars, size))
        _solve(log, solver, _random_assumptions(rng, nvars, rng.randint(0, 7)))
        if rng.random() < 0.3:
            solver.reset_to_root()
    return log


def stream_after_sat(seed):
    """Clauses and units added on a deep trail, root resets, evictions."""
    rng = random.Random(seed)
    log = []
    solver = SatSolver()
    nvars = 150
    for _ in range(610):
        solver.add_clause(_random_clause(rng, nvars, 3))
    for round_ in range(14):
        assumptions = _random_assumptions(rng, nvars, rng.randint(0, 4))
        if _solve(log, solver, assumptions) is SatResult.SAT:
            # No reset: the trail is still at the SAT answer's depth.
            solver.add_clause(_random_clause(rng, nvars, 2))
            solver.add_clause(_random_clause(rng, nvars, 1))
            solver.add_clause(_random_clause(rng, nvars, 3))
            _reduce(log, solver, 0)
        if round_ % 3 == 2:
            solver.reset_to_root()
            _reduce(log, solver, rng.randint(0, 12))
    return log


def stream_inprocess(seed):
    """Session-style maintenance: evictions, then the maintenance pass."""
    rng = random.Random(seed)
    log = []
    solver = SatSolver()
    nvars = 110
    for _ in range(330):
        solver.add_clause(_random_clause(rng, nvars, 3))
    for _ in range(12):
        for _ in range(rng.randint(4, 10)):
            clause = _random_clause(rng, nvars, rng.choice((2, 3, 3, 4)))
            solver.add_clause(clause)
            roll = rng.random()
            if roll < 0.25:  # a superset
                solver.add_clause(clause + _random_clause(rng, nvars, 1))
            elif roll < 0.45:  # one literal flipped plus extras
                variant = [-clause[0]] + clause[1:]
                extra = _random_clause(rng, nvars, 1)
                if -extra[0] not in variant:
                    variant += extra
                solver.add_clause(variant)
        _solve(log, solver, _random_assumptions(rng, nvars, rng.randint(0, 5)))
        solver.reset_to_root()
        _reduce(log, solver, rng.randint(4, 30))
        solver.inprocess(rng.choice((0, 2, 8)))
        _solve(log, solver, _random_assumptions(rng, nvars, rng.randint(0, 3)))
    return log


def stream_conjunction_order(seed):
    """Shared bit-blasted goals, each as given and as its reversed
    conjunction, under doubling conflict-budget slices."""
    goals = [
        t.and_(_miter(7, 0x5B), TermGenerator(seed).formula()),
        t.and_(
            TermGenerator(seed + 1).formula(), TermGenerator(seed + 2).formula()
        ),
    ]
    log = []
    for reversed_form in (False, True):
        for goal in goals:
            solver = SatSolver()
            encoded = goal
            if reversed_form and goal.op == "and":
                encoded = t.conj(list(reversed(goal.args)))
            BitBlaster(solver).assert_term(encoded)
            budget = 32
            while _solve(log, solver, budget=budget) is SatResult.UNKNOWN:
                budget *= 2
    return log


def stream_fuzz_goals(seed):
    """Bit-blasted fuzz goals: fresh solves and one assumption session."""
    log = []
    for offset in range(8):
        solver = SatSolver()
        BitBlaster(solver).assert_term(TermGenerator(seed + offset).formula())
        _solve(log, solver, budget=20_000)
    session = SatSolver()
    blaster = BitBlaster(session)
    generator = TermGenerator(seed + 100)
    prefix = blaster.encode_bool(generator.formula())
    for _ in range(8):
        literal = blaster.encode_bool(generator.formula())
        _solve(log, session, [prefix, literal], budget=20_000)
        _solve(log, session, [prefix, -literal], budget=20_000)
        session.reset_to_root()
    return log


def stream_rescale(seed):
    """Enough conflicts to pass the point where VSIDS activities rescale."""
    rng = random.Random(seed)
    log = []
    solver = SatSolver()
    for clause in _pigeonhole(8, 7):
        solver.add_clause(clause)
    _solve(log, solver)
    # Rescales with many variables unassigned: every one of them must stay
    # visible to branching.
    solver = SatSolver()
    nvars = 150
    for _ in range(640):
        solver.add_clause(_random_clause(rng, nvars, 3))
    for _ in range(12):
        _solve(log, solver, _random_assumptions(rng, nvars, 2))
    return log


STREAMS = {
    "incremental": (stream_incremental, 11),
    "after_sat": (stream_after_sat, 12),
    "inprocess": (stream_inprocess, 13),
    "conjunction_order": (stream_conjunction_order, 15),
    "fuzz_goals": (stream_fuzz_goals, 16),
    "rescale": (stream_rescale, 17),
}


def trajectories() -> dict[str, list[dict]]:
    return {name: stream(seed) for name, (stream, seed) in STREAMS.items()}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def replayed() -> dict[str, list[dict]]:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[dict]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_matches_recorded_trajectory(name, replayed, recorded):
    expected = recorded[name]
    got = replayed[name]
    assert len(got) == len(expected)
    for step, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"{name}: first difference at step {step}"


def test_fixture_covers_every_mechanism(recorded):
    solves = [entry for log in recorded.values() for entry in log if "result" in entry]
    assert {entry["result"] for entry in solves} == {"sat", "unsat", "unknown"}
    fields = [field.name for field in dataclasses.fields(Stats)]
    peak = {
        name: max(entry["stats"][index] for entry in solves)
        for index, name in enumerate(fields)
    }
    for counter in ("restarts", "evicted"):
        assert peak[counter] > 0, counter
    # The maintenance pass evicted past the reduce_learned call before it.
    log = recorded["inprocess"]
    evicted = fields.index("evicted")
    assert any(
        after["stats"][evicted] > before["stats"][evicted] + reduce["returned"]
        for before, reduce, after in zip(log, log[1:], log[2:])
        if "result" in before and reduce.get("op") == "reduce_learned"
    )
    # More conflicts than it takes var_inc to pass 1e100 at the core's
    # decay: activity rescaling must have run, both in the one-shot solve
    # and in the session that solves under assumptions.
    rescale = math.log(1e100) / math.log(1 / VAR_DECAY)
    for entry in (recorded["rescale"][0], recorded["rescale"][-1]):
        assert dict(zip(fields, entry["stats"]))["conflicts"] > rescale


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(trajectories(), separators=(",", ":")) + "\n")
    else:
        json.dump(trajectories(), sys.stdout)
