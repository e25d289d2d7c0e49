"""Experiment: differential fuzzing throughput and oracle mix.

Runs a fixed-seed campaign (the same one CI smokes) and records the
iteration rate and the per-oracle query counts in ``BENCH_fuzz.json``.
Throughput is *recorded*, not asserted — it depends on how many generated
queries reach the bit-blaster — but the correctness contract is asserted:
the stock stack must survive the campaign with zero oracle violations,
and every oracle must actually have run.
"""

from repro.fuzz import run_fuzz

SEED = 0
ITERATIONS = 200

#: every oracle the harness wires in must appear in the mix (the
#: enumeration oracle is opportunistic, so it only needs to fire often).
EXPECTED_ORACLES = (
    "simplify-eval",
    "model-soundness",
    "solver-vs-enumeration",
    "positive-vs-negative-form",
    "function-session-vs-fresh",
    "cache-consistency",
)


def test_bench_fuzz_campaign(bench_json):
    report = run_fuzz(seed=SEED, iterations=ITERATIONS)

    assert report.ok, "\n\n".join(v.render() for v in report.violations)
    for oracle in EXPECTED_ORACLES:
        assert report.oracle_runs.get(oracle, 0) > 0, oracle

    rate = report.iterations_per_second()
    print(f"\ndifferential fuzzing (seed {SEED}, {ITERATIONS} iterations):")
    print(f"  wall: {report.elapsed_seconds:.2f}s ({rate:.1f} it/s)")
    for name, count in sorted(report.oracle_runs.items()):
        print(f"  {name}: {count}")

    bench_json(
        "fuzz",
        {
            "seed": SEED,
            "iterations": ITERATIONS,
            "violations": len(report.violations),
            "wall_seconds": round(report.elapsed_seconds, 3),
            "iterations_per_second": round(rate, 2),
            "oracle_runs": dict(sorted(report.oracle_runs.items())),
        },
    )
