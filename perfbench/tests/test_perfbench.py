"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run the benchmark at a tiny size (``--tiny``), so they check its
plumbing and oracles, not the program's speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The part of a ``tv.validate`` span no layer claims (its own self time)
#: may be at most this share of the span, for functions that take at
#: least ``ATTRIBUTION_FLOOR_S``.
ATTRIBUTION_TOLERANCE = 0.05
ATTRIBUTION_FLOOR_S = 0.01


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_names_use_only_allowed_characters():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )


@pytest.mark.parametrize(
    "workload, trace",
    [(name, 0) for name in workloads.WORKLOADS] + [("campaign_warm", 1)],
)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in expected]
    text = "\n".join(lines[:-1])
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M)


def test_layer_self_times_account_for_each_validate_span(tmp_path):
    out = tmp_path / "it.json"
    subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "iteration.py"),
            "--workload", "fig6_mix", "--seed", "4", "--work", str(tmp_path),
            "--out", str(out), "--trace", "--tiny",
        ],
        check=True,
        timeout=300,
    )
    trace = json.loads(out.read_text())["trace"]
    assert trace["functions"]
    for name, row in trace["functions"].items():
        # Self times partition the span exactly...
        assert abs(sum(row["layers"].values()) - row["span_s"]) < 1e-6, name
        # ...and the named layers leave little to validate_function itself.
        if row["span_s"] >= ATTRIBUTION_FLOOR_S:
            unclaimed = row["layers"]["tv.validate"] / row["span_s"]
            assert unclaimed <= ATTRIBUTION_TOLERANCE, (name, unclaimed)
    assert trace["run_self_s"] / trace["run_s"] <= ATTRIBUTION_TOLERANCE


def _module_text(seed: int) -> str:
    program = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads\n"
        "print(workloads.corpus_spec('fig6_mix', int(sys.argv[3])).build_module())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", program, BENCH, os.path.join(ROOT, "src"), str(seed)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout


def test_seeded_corpus_regenerates_byte_identically():
    first, again, other = _module_text(5), _module_text(5), _module_text(6)
    assert first == again
    # Another seed reorders the same functions.
    assert first != other
    assert sorted(first.splitlines()) == sorted(other.splitlines())


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _bench(
        "--workload", "fig6_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_stop_group_kills_and_waits_for_the_whole_tree():
    run._become_subreaper()  # as run.py does: the orphaned sleep is ours to reap
    process = subprocess.Popen(
        [sys.executable, "-c", "import subprocess, time; subprocess.Popen(['sleep', '60']); time.sleep(60)"],
        start_new_session=True,
    )
    time.sleep(0.5)
    run._stop_group(process.pid)
    process.wait(timeout=5)
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)
