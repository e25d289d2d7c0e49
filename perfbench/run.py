"""The repository benchmark: one command, every metric, every verdict checked.

    python3 perfbench/run.py --workload fig6_mix --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The workload (see ``workloads.py``) is
set up, then validated again and again, each iteration in a fresh
interpreter, until ``--seconds`` have passed (at least
``MIN_ITERATIONS`` times).  Every verdict of every iteration is checked
against the function's known answer.  How each metric is taken over the
iterations is in ``metrics.py``.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced iterations (at least
``MIN_TRACED`` of each).  It prints the per-layer metrics and a per-layer
table, and writes a Chrome trace-event file.  The tracing overhead is the
best traced wall time minus the best untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A stamped copy of
the whole result goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import metrics  # noqa: E402
import workloads  # noqa: E402

#: fewest iterations a run measures, however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: fewest traced (and untraced) iterations in a ``--trace 1`` run.
MIN_TRACED = 2
#: watchdog for one iteration or warm-up; the process tree is killed.
ITERATION_TIMEOUT_S = 90.0
#: no iteration starts after this much of the run has passed...
RUN_BUDGET_S = 100.0
#: ...and every iteration is killed by this point, so a run ends in time.
RUN_DEADLINE_S = 165.0


def _git_sha(root: str) -> str | None:
    """HEAD's commit, read from ``.git`` inside ``root`` only (a checkout
    without one, such as an exported tree, has none)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _source_digest(root: str) -> str:
    """SHA-256 over the program's sources: names the code measured even
    where there is no git metadata."""
    digest = hashlib.sha256()
    sources = sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"), recursive=True))
    for path in sources:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def stamp(seed: int) -> dict:
    from repro.util import available_cpus

    return {
        "available_cpus": available_cpus(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
        "src_sha256": _source_digest(ROOT),
        "seed": seed,
    }


#: prctl option making this process the reaper of orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so that processes an iteration
    leaves behind, such as multiprocessing's resource tracker, can be
    waited for instead of lingering as zombies nobody reaps."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_group(pgid: int) -> None:
    """Kill every process left in the session a child was started in and
    wait (bounded) until none remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        _reap_orphans()
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args: list[str], out_path: str, timeout: float) -> tuple[dict | None, str]:
    """Run ``iteration.py`` in a fresh interpreter under the watchdog.

    Returns the iteration's result, or None and what went wrong.
    """
    command = [sys.executable, os.path.join(HERE, "iteration.py"), *args, "--out", out_path]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(process.pid)
        process.communicate()
        return None, f"watchdog: killed after {timeout:.0f}s"
    finally:
        _stop_group(process.pid)
    if process.returncode != 0:
        return None, f"exit code {process.returncode}:\n{output[-4000:]}"
    with open(out_path) as handle:
        return json.load(handle), output


class Run:
    """One benchmark run: set-up, iterations, and their results."""

    def __init__(self, args) -> None:
        self.args = args
        self.started = time.monotonic()
        os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "work"))
        self.errors: list[str] = []
        self.warm_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def child(self, name: str, *flags: str) -> dict | None:
        remaining = self.started + RUN_DEADLINE_S - time.monotonic()
        timeout = max(1.0, min(ITERATION_TIMEOUT_S, remaining))
        argv = [
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", self.work,
            "--iteration", name,
            *flags,
        ]
        if self.args.tiny:
            argv.append("--tiny")
        result, log = run_child(argv, os.path.join(self.work, f"{name}.json"), timeout)
        if result is None:
            self.errors.append(f"{name}: {log}")
        return result

    def measure(self) -> None:
        args = self.args
        if args.workload == "campaign_warm":
            warm = self.child("warm", "--warm")
            if warm is None:
                return
            self.warm_s.append(warm["warm_s"] * warm["warm_ratio"])
        measuring = time.monotonic()
        enough = MIN_TRACED if args.trace else MIN_ITERATIONS
        # A traced run alternates untraced and traced iterations: a step
        # is one such pair there, one iteration otherwise.
        steps: list[float] = []
        step_started = None
        for index in itertools.count():
            traced = bool(args.trace) and index % 2 == 1
            if not traced:
                now = time.monotonic()
                if step_started is not None:
                    steps.append(now - step_started)
                done = len(self.traced if args.trace else self.untraced)
                # Stop once another step would overrun the measuring time.
                expected = median(steps) if steps else 0.0
                if done >= enough and now - measuring + expected > args.seconds:
                    return
                if now - self.started > RUN_BUDGET_S:
                    return
                step_started = now
            result = self.child(f"it{index}", *(["--trace"] if traced else []))
            if result is None:
                return
            (self.traced if traced else self.untraced).append(result)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _verdict_report(iterations: list[dict]) -> tuple[int, int, list[str]]:
    """(functions attempted, functions failed, one line per problem)."""
    attempted = failed = 0
    lines = []
    for index, iteration in enumerate(iterations):
        attempted += len(iteration["outcomes"])
        verdicts = iteration["verdicts"]
        failed += len(verdicts["mismatches"])
        for name, problem in sorted(verdicts["mismatches"].items()):
            lines.append(f"iteration {index}: {name}: {problem}")
        if verdicts["rows"]:
            lines.append(f"iteration {index}: {verdicts['rows']}")
    return attempted, failed, lines


def _layer_table(traced: dict) -> list[str]:
    trace = traced["trace"]
    wall = traced["wall_s"]
    lines = [f"{'layer':<18} {'count':>8} {'self_s':>10} {'share of wall':>14}"]
    for layer, row in trace["layers"].items():
        lines.append(
            f"{layer:<18} {row['count']:>8} {row['self_s']:>10.4f}"
            f" {100 * row['self_s'] / wall:>13.1f}%"
        )
    lines.append(
        f"(self times summed over {trace['processes']} process(es);"
        f" worker time overlaps the supervisor's campaign.wait)"
    )
    return lines


def report(run: Run, stamped: dict) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines before it."""
    args = run.args
    iterations = run.traced if args.trace else run.untraced
    attempted, failed, problems = _verdict_report(run.untraced + run.traced)
    failed += len(run.errors)
    attempted = max(1, attempted + len(run.errors))
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
        f" iterations={len(iterations)} (each in a fresh interpreter)",
        "stamp: " + json.dumps(stamped, sort_keys=True),
    ]
    if args.trace:
        table = list(metrics.PER_LAYER)
        values = metrics.medians([metrics.per_layer(it) for it in run.traced])
        traced_wall = median(metrics.timings(it)["wall_s"] for it in run.traced)
        untraced_wall = median(metrics.timings(it)["wall_s"] for it in run.untraced)
        values["trace.overhead_s"] = traced_wall - untraced_wall
        lines.extend(_layer_table(run.traced[-1]))
        lines.append(
            f"tracing overhead: {values['trace.overhead_s']:.3f} reference s"
            f" (median wall {traced_wall:.3f} over {len(run.traced)} traced vs"
            f" {untraced_wall:.3f} over {len(run.untraced)} untraced iterations,"
            f" alternated)"
        )
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        chrome = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        shutil.copyfile(run.traced[-1]["trace"]["chrome"], chrome)
        lines.append(f"chrome trace: {os.path.relpath(chrome, ROOT)}")
    else:
        table = list(metrics.END_TO_END)
        values = metrics.end_to_end(run.untraced, run.warm_s)
        first = run.untraced[0]
        functions = len(metrics.function_times(first["outcomes"], first["kernel_s"], False))
        lines.append(
            f"medians over {len(run.untraced)} iterations; per-function metrics"
            f" over {functions} validated functions per iteration"
            f" ({functions * len(run.untraced)} samples)"
        )
        measured = metrics.medians(
            [metrics.timings(it, reference=False) for it in run.untraced]
        )
        lines.append(
            "in measured seconds: "
            + " ".join(f"{name}={value:.6g}" for name, value in measured.items())
        )
    for name, unit in table:
        lines.append(f"  {name:<28} {values[name]:>14.6g} {unit}")
    lines.append(
        f"verdicts: {attempted} checked against known answers,"
        f" {failed} failed ({failed / attempted:.4f} failed_share)"
    )
    lines.extend(f"  MISMATCH {line}" for line in problems)
    lines.extend(f"  ERROR {line}" for line in run.errors)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken corpora (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _become_subreaper()

    run = Run(args)
    try:
        run.measure()
        if not (run.traced if args.trace else run.untraced):
            print("perfbench: no iteration completed", file=sys.stderr)
            for error in run.errors:
                print(error, file=sys.stderr)
            return 1
        stamped = stamp(args.seed)
        result, lines = report(run, stamped)
    finally:
        run.close()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump({"stamp": stamped, "lines": lines, **result}, handle, indent=2)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
