"""Tests for the command-line driver (the artifact's run-tests.py analogue)."""

import pytest

from repro.cli import main

SIMPLE = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
"""

LOOP = """
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %head ]
  %inc = add i32 %i, 1
  %c = icmp ult i32 %inc, %n
  br i1 %c, label %head, label %done
done:
  ret i32 %i
}
"""

WAW = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""


@pytest.fixture
def simple_file(tmp_path):
    path = tmp_path / "simple.ll"
    path.write_text(SIMPLE)
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.ll"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture
def waw_file(tmp_path):
    path = tmp_path / "waw.ll"
    path.write_text(WAW)
    return str(path)


class TestSingle:
    def test_validates_simple_function(self, simple_file, capsys):
        assert main(["single", simple_file]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out

    def test_bug_flag_produces_failure_exit(self, waw_file, capsys):
        assert main(["single", waw_file, "--bug", "waw"]) == 1
        out = capsys.readouterr().out
        assert "miscompiled" in out

    def test_merge_stores_flag_validates(self, waw_file):
        assert main(["single", waw_file, "--merge-stores"]) == 0

    def test_explicit_function_name(self, simple_file):
        assert main(["single", simple_file, "--function", "f"]) == 0

    def test_imprecise_liveness_flag(self, loop_file, capsys):
        assert main(["single", loop_file, "--imprecise-liveness"]) == 1
        assert "other" in capsys.readouterr().out


class TestProof:
    def test_proof_flag_records_and_rechecks(self, simple_file, capsys):
        assert main(["single", simple_file, "--proof"]) == 0
        out = capsys.readouterr().out
        assert "equivalence proof" in out
        assert "proof re-check: ok=True" in out

    def test_proof_flag_keeps_the_pipeline_options(self, loop_file, capsys):
        # --proof must validate exactly as a plain run does: imprecise
        # liveness still leaves the loop's points inadequate, and no proof
        # is printed for a function that did not validate.
        argv = ["single", loop_file, "--imprecise-liveness", "--proof"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "@sum: other (inadequate synchronization points)" in out
        assert "equivalence proof" not in out


class TestShow:
    def test_prints_machine_code_and_points(self, simple_file, capsys):
        assert main(["show", simple_file]) == 0
        out = capsys.readouterr().out
        assert ".LBB0" in out
        assert "sync point p_entry" in out

    @pytest.mark.parametrize(
        "flag", [["--proof"], ["--no-incremental"], ["--max-steps", "1"]]
    )
    def test_rejects_the_validation_flags(self, flag):
        # show never validates, so flags that only steer validation exit 2
        # (argparse) instead of being silently ignored; single takes them.
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["show", "x.ll", *flag])
        assert exit_info.value.code == 2
        assert parser.parse_args(["single", "x.ll", *flag]).file == "x.ll"


class TestCampaign:
    def test_small_campaign_runs(self, capsys):
        assert main(["campaign", "run", "--scale", "6", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "Succeeded" in out

    def test_campaign_jobs_and_cache_dir_flags(self, tmp_path, capsys):
        directory = str(tmp_path / "qc")
        # Seed 5: four of its queries reach the shared cache (at seed 11
        # every query is settled before any cache lookup).
        argv = [
            "campaign", "run", "--scale", "6", "--seed", "5",
            "--jobs", "2", "--cache-dir", directory,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "Succeeded" in out
        assert "solver: queries=" in out
        # Second run reuses the persistent cache: the hit counter is live.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache_hits=0 " not in warm

    def test_campaign_dir_run_and_status(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        argv = [
            "campaign", "run", "--scale", "6", "--seed", "11",
            "--dir", directory, "--shards", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "functions accounted (complete)" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert main(["campaign", "status", directory]) == 0
        status = capsys.readouterr().out
        assert "campaign status: complete" in status
        # A second run into the same directory is refused.
        with pytest.raises(SystemExit):
            main(argv)

    def test_campaign_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "resume", str(tmp_path / "nope")])


class TestPortfolioFlag:
    def test_worker_recv_flags_parse(self):
        # Parse-only: the worker would dial out, so just build the parser
        # path far enough to see the attributes land.
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "service", "worker", "--connect", "127.0.0.1:1",
                "--recv-timeout", "2.5", "--recv-retries", "5",
            ]
        )
        assert args.recv_timeout == 2.5
        assert args.recv_retries == 5

    def test_portfolio_takes_no_width_and_tuning_flags_are_gone(self):
        # The portfolio escalation and its tuning flags are gone; old
        # invocations must fail loudly (argparse exits 2) instead of
        # running something else.
        from repro.cli import build_parser

        parser = build_parser()
        for extra in (
            ["--portfolio"],
            ["--portfolio", "3"],
            ["--portfolio-mode", "threads"],
            ["--portfolio-probe", "64"],
            ["--session-scope", "function"],
        ):
            for argv in (
                ["single", "x.ll"],
                ["campaign", "run", "--scale", "6"],
                ["service", "coordinate", "--dir", "camp", "--scale", "6"],
            ):
                with pytest.raises(SystemExit) as exit_info:
                    parser.parse_args(argv + extra)
                assert exit_info.value.code == 2


class TestShardStrategyFlag:
    def test_strategy_flag_is_gone(self):
        # Shards are always size-balanced; the old flag exits 2 (argparse).
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["campaign", "run", "--scale", "6"],
            ["service", "coordinate", "--dir", "camp", "--scale", "6"],
        ):
            for value in ("round_robin", "size_balanced"):
                with pytest.raises(SystemExit) as exit_info:
                    parser.parse_args(argv + ["--strategy", value])
                assert exit_info.value.code == 2
