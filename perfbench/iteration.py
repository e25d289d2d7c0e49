"""One measured iteration of a workload, in a fresh interpreter.

Term interning and solver memos are process-global, so every measured
iteration gets its own interpreter: ``run.py`` starts this script once per
iteration and reads the JSON it writes to ``--out``.  With ``--warm`` it
instead runs the campaign that fills the workload's on-disk query cache.

    python3 perfbench/iteration.py --workload fig6_mix --seed 1 \\
        --work perfbench/out/work/x --iteration it0 --out it0.json [--trace]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import hooks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _worker_files(directory: str, prefix: str) -> list[dict]:
    loaded = []
    for path in sorted(glob.glob(os.path.join(directory, f"{prefix}-*.json"))):
        with open(path) as handle:
            loaded.append(json.load(handle))
    return loaded


def _merged(dicts: list[dict]) -> dict:
    merged: dict = {}
    for each in dicts:
        merged.update(each)
    return merged


def _trace_summary(rec: spans.Recorder, workers: list[dict], chrome_path: str) -> dict:
    """Per-layer table, counters and attribution checks of a traced run;
    writes every process's spans to ``chrome_path``."""
    snapshots = [rec.snapshot(), *workers]
    with open(chrome_path, "w") as handle:
        json.dump(
            {"traceEvents": spans.chrome_events(snapshots), "displayTimeUnit": "ms"},
            handle,
        )
    counters: dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    own = spans.self_times(rec.spans)
    run_index = next(i for i, span in enumerate(rec.spans) if span[0] == "run")
    run_span = rec.spans[run_index]
    functions = {}
    for snapshot in snapshots:
        functions.update(spans.function_breakdown(snapshot["spans"]))
    return {
        "layers": spans.layer_table(snapshots),
        "counters": counters,
        "interned": sum(snapshot["interned"] for snapshot in snapshots),
        "processes": len(snapshots),
        "run_s": run_span[2] - run_span[1],
        "run_self_s": own[run_index],
        "functions": functions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--iteration", default="it")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sample_dir = os.path.join(args.work, args.iteration, "samples")
    os.makedirs(sample_dir)
    os.environ[calibrate.SAMPLE_DIR_ENV] = sample_dir

    if args.warm:
        started = time.perf_counter()
        outcomes = workloads.warm_cache(
            args.workload, args.seed, args.work, args.tiny, hooks.worker_validate
        )
        warm_s = time.perf_counter() - started
        rows = [[o.function, o.category, o.seconds, o.deduped] for o in outcomes]
        samples = _merged(_worker_files(sample_dir, "samples"))
        with open(args.out, "w") as handle:
            json.dump(
                {"warm_s": warm_s, "warm_ratio": metrics.reference_ratio(rows, samples)},
                handle,
            )
        return 0

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
        os.environ[spans.TRACE_ENV] = "1"
    calibrator = calibrate.Calibrator()

    before = calibrator.sample()
    started = time.perf_counter()
    corpus, cache_dir = workloads.set_up(
        args.workload, args.seed, args.work, args.iteration, args.tiny
    )
    setup_s = time.perf_counter() - started
    setup_kernel_s = (before + calibrator.sample()) / 2

    # Campaign workers calibrate through the hook; a sequential workload
    # calibrates here, around the batch loop's calls.
    samples: dict[str, list] = {}
    if args.workload != "campaign_warm":
        from repro.tv import batch

        if rec is not None:
            for name in ("sample_if_due", "sample_inside"):
                setattr(calibrator, name, rec.wrap("calibrate", getattr(calibrator, name)))
        calibrator.watch_solver()
        batch.validate_function = calibrator.wrap(batch.validate_function, samples)

    def validate():
        return workloads.validate(
            args.workload, corpus, cache_dir, args.work, args.iteration,
            hooks.worker_validate,
        )

    begin = time.perf_counter()
    if rec is not None:
        with rec.span("run"):
            outcomes = validate()
    else:
        outcomes = validate()
    wall_s = time.perf_counter() - begin

    samples.update(_merged(_worker_files(sample_dir, "samples")))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "wall_s": wall_s,
        "peak_rss_kb": rss_kb,
        "outcomes": [
            [o.function, o.category, o.seconds, o.deduped] for o in outcomes
        ],
        "kernel_s": samples,
        "verdicts": workloads.check_verdicts(
            args.workload, corpus, outcomes, args.tiny
        ),
    }
    if rec is not None:
        chrome = os.path.splitext(args.out)[0] + ".trace.json"
        workers = _worker_files(sample_dir, "spans")
        result["trace"] = _trace_summary(rec, workers, chrome)
        result["trace"]["chrome"] = chrome
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
