"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index).  The regenerated rows are printed to
stdout (run with ``-s`` to see them live) and the *shape* assertions —
who wins, by what rough factor, where the proportions fall — are enforced
with asserts, per the reproduction contract.
"""

import json
import os
import platform
import subprocess

import pytest

from repro.util import available_cpus

#: Records accumulated by the ``bench_json`` fixture, flushed to
#: ``BENCH_<name>.json`` files in the repo root at session end so CI and
#: later sessions can diff regenerated numbers without scraping stdout.
_BENCH_RECORDS: dict[str, dict] = {}


@pytest.fixture(scope="session")
def bench_json():
    """Session-scoped sink: ``bench_json(name, payload)`` merges ``payload``
    into the record emitted as ``BENCH_<name>.json``."""

    def record(name: str, payload: dict) -> None:
        _BENCH_RECORDS.setdefault(name, {}).update(payload)

    return record


def _git_sha(root: str) -> str:
    """The checked-out commit, or ``"none"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def pytest_sessionfinish(session, exitstatus):
    """Write every record, stamped with the machine and the commit."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stamp = {
        "cores": available_cpus(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }
    for name, payload in _BENCH_RECORDS.items():
        path = os.path.join(root, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump({**payload, **stamp}, handle, indent=2, sort_keys=True)
            handle.write("\n")


ARITH_SEQ_SUM = """
define i32 @arithm_seq_sum(i32 %a0, i32 %d, i32 %n) {
entry:
  br label %for.cond
for.cond:
  %s.0 = phi i32 [ %a0, %entry ], [ %add1, %for.inc ]
  %a.0 = phi i32 [ %a0, %entry ], [ %add, %for.inc ]
  %i.0 = phi i32 [ 1, %entry ], [ %inc, %for.inc ]
  %cmp = icmp ult i32 %i.0, %n
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %add = add i32 %a.0, %d
  %add1 = add i32 %s.0, %add
  br label %for.inc
for.inc:
  %inc = add i32 %i.0, 1
  br label %for.cond
for.end:
  ret i32 %s.0
}
"""

WAW_FIGURE_8 = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""

NARROWING_FIGURE_10 = """
@a = external global i96, align 4
@b = external global i64, align 8
define void @foo() {
entry:
  %srcval = load i96, i96* @a, align 4
  %tmp96 = lshr i96 %srcval, 64
  %tmp64 = trunc i96 %tmp96 to i64
  store i64 %tmp64, i64* @b, align 8
  ret void
}
"""


@pytest.fixture(scope="session")
def arith_seq_sum_source():
    return ARITH_SEQ_SUM


@pytest.fixture(scope="session")
def waw_source():
    return WAW_FIGURE_8


@pytest.fixture(scope="session")
def narrowing_source():
    return NARROWING_FIGURE_10
