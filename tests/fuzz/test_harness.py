"""The campaign driver and its CLI entry point."""

from repro.fuzz import harness
from repro.fuzz.harness import run_fuzz
from repro.fuzz.oracles import Violation
from repro.smt import terms as t


class TestRunFuzz:
    def test_small_campaign_is_clean_and_counts_oracles(self):
        report = run_fuzz(seed=5, iterations=12)
        assert report.ok
        assert report.iterations == 12
        assert report.oracle_runs["simplify-eval"] == 24
        assert report.oracle_runs["model-soundness"] == 12
        assert report.oracle_runs["positive-vs-negative-form"] == 12
        assert report.oracle_runs["function-session-vs-fresh"] == 12
        assert report.oracle_runs["cross-target-exec"] == 2
        assert len(report.oracle_runs) == 7  # every oracle the harness has
        assert report.oracle_runs["cache-consistency"] == 1
        assert report.elapsed_seconds > 0
        assert report.iterations_per_second() > 0
        assert "[ok]" in report.summary()

    def test_campaign_is_deterministic(self):
        first = run_fuzz(seed=9, iterations=8)
        second = run_fuzz(seed=9, iterations=8)
        assert first.oracle_runs == second.oracle_runs
        assert first.ok == second.ok

    def test_violations_are_shrunk_and_stop_the_campaign(self, monkeypatch):
        planted = t.ult(
            t.add(t.bv_var("v8_0", 8), t.bv_const(7, 8)), t.bv_var("v8_1", 8)
        )

        def always_fires(term):
            return Violation(
                oracle="simplify-eval",
                detail="planted",
                witnesses=(planted,),
                predicate=lambda ws: True,
            )

        monkeypatch.setattr(harness, "check_simplify_eval", always_fires)
        report = run_fuzz(seed=0, iterations=50, max_violations=1)
        assert not report.ok
        assert report.iterations < 50  # stopped early
        violation = report.violations[0]
        # predicate accepts anything, so the shrinker reaches a leaf
        assert all(not w.args for w in violation.shrunk)
        rendered = violation.render()
        assert "oracle violated: simplify-eval" in rendered
        assert "canonical:" in rendered
        assert "from_canonical" in rendered

    def test_no_shrink_keeps_raw_witnesses(self, monkeypatch):
        planted = t.not_(t.bool_var("p0"))

        def always_fires(term):
            return Violation(
                oracle="simplify-eval",
                detail="planted",
                witnesses=(planted,),
                predicate=lambda ws: True,
            )

        monkeypatch.setattr(harness, "check_simplify_eval", always_fires)
        report = run_fuzz(
            seed=0, iterations=5, shrink_failures=False, max_violations=1
        )
        assert report.violations[0].shrunk == (planted,)


class TestCli:
    def test_fuzz_subcommand_ok(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seed", "3", "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "fuzz seed=3 iterations=5 [ok]" in out

    def test_fuzz_subcommand_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fuzz",
                "--seed",
                "4",
                "--iterations",
                "3",
                "--no-select",
                "--max-depth",
                "3",
                "--no-shrink",
            ]
        )
        assert code == 0
        assert "[ok]" in capsys.readouterr().out
