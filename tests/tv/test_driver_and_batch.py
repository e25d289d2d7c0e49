"""Tests for the TV driver (outcome classification) and the batch runner."""

import dataclasses

import pytest

from repro.isel import BugMode, IselOptions
from repro.keq import KeqOptions
from repro.llvm import parse_module
from repro.targets import get_target
from repro.tv import Category, TvOptions, TvOutcome, driver, validate_function
from repro.tv.batch import BatchResult, corpus_overrides, run_batch, run_corpus
from repro.workloads import FunctionShape, gcc_like_corpus, generate_module

SIMPLE = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  ret i32 %a\n}"

LOOP = """
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %acc2 = add i32 %acc, %i
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %acc
}
"""


class TestDriverClassification:
    def test_simple_function_succeeds(self):
        outcome = validate_function(parse_module(SIMPLE), "f")
        assert outcome.category == Category.SUCCEEDED
        assert outcome.ok

    def test_loop_function_succeeds(self):
        outcome = validate_function(parse_module(LOOP), "sum")
        assert outcome.category == Category.SUCCEEDED

    def test_code_size_recorded(self):
        outcome = validate_function(parse_module(LOOP), "sum")
        assert outcome.code_size == 9  # the LOOP function's instruction count

    def test_unsupported_function_classified(self):
        source = (
            "define i32 @f(i32 %a, i32 %b, i32 %c, i32 %d, i32 %e,"
            " i32 %g, i32 %h) {\nentry:\n  ret i32 %a\n}"
        )
        outcome = validate_function(parse_module(source), "f")
        assert outcome.category == Category.UNSUPPORTED

    def test_timeout_classification(self):
        options = TvOptions(keq=KeqOptions(max_steps=2))
        outcome = validate_function(parse_module(LOOP), "sum", options)
        assert outcome.category == Category.TIMEOUT

    def test_oom_classification(self):
        options = TvOptions(parser_memory_budget=1)
        outcome = validate_function(parse_module(LOOP), "sum", options)
        assert outcome.category == Category.OOM
        # 3 per point plus its constraints: entry 1, exit 1, two loop edges 3 each
        assert outcome.detail == "sync point spec size 20 > 1"
        assert outcome.sync_points == 4
        assert outcome.failure_class == "oom"

    def test_vcgen_error_precedes_the_budget(self, monkeypatch):
        """A machine block that lost its call cannot be related to the
        LLVM block: that is ``other`` (inadequate synchronization), and it
        is reported even when the spec would be over the budget."""
        source = (
            "define i32 @f(i32 %x) {\nentry:\n"
            "  %r = call i32 @g(i32 %x)\n  ret i32 %r\n}"
        )
        real = get_target("vx86")

        def select_dropping_calls(module, function, isel):
            machine, hints = real.select_function(module, function, isel)
            for block in machine.blocks.values():
                block.instructions = [
                    i for i in block.instructions if i.opcode != "call"
                ]
            return machine, hints

        dropping = dataclasses.replace(real, select_function=select_dropping_calls)
        monkeypatch.setattr(driver, "get_target", lambda name: dropping)
        for budget in (None, 1):
            options = TvOptions(parser_memory_budget=budget)
            outcome = validate_function(parse_module(source), "f", options)
            assert outcome.category == Category.OTHER, budget
            assert outcome.detail == "call count mismatch in block entry: 1 vs 0"
            assert outcome.failure_class == "inadequate_sync"
            assert outcome.sync_points == 0

    def test_imprecise_liveness_gives_other(self):
        options = TvOptions(imprecise_liveness=True)
        outcome = validate_function(parse_module(LOOP), "sum", options)
        assert outcome.category == Category.OTHER
        assert "inadequate" in outcome.detail

    def test_miscompilation_classification(self):
        source = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""
        options = TvOptions(isel=IselOptions(bug=BugMode.WAW_STORE_MERGE))
        outcome = validate_function(parse_module(source), "foo", options)
        assert outcome.category == Category.MISCOMPILED


class TestBatch:
    def test_batch_over_module(self):
        module = generate_module(
            [
                ("a", FunctionShape(loops=0, diamonds=0), 1),
                ("b", FunctionShape(loops=1), 2),
            ]
        )
        result = run_batch(module)
        assert len(result.outcomes) == 2
        assert result.success_rate() == 1.0

    def test_figure6_rows_structure(self):
        module = generate_module([("a", FunctionShape(loops=0, diamonds=0), 1)])
        rows = run_batch(module).figure6_rows()
        labels = [label for label, _ in rows]
        assert labels == [
            "Succeeded",
            "Failed due to timeout",
            "Failed due to out-of-memory",
            "Other",
            "Total",
        ]

    def test_unsupported_excluded_from_denominator(self):
        module = generate_module(
            [
                ("ok", FunctionShape(loops=0, diamonds=0), 1),
                ("bad", FunctionShape(unsupported=True), 2),
            ]
        )
        result = run_batch(module)
        assert len(result.supported) == 1
        assert result.figure6_rows()[-1] == ("Total", 1)

    def test_overrides_apply_per_function(self):
        module = parse_module(LOOP)
        overrides = {"sum": TvOptions(imprecise_liveness=True)}
        result = run_batch(module, overrides=overrides)
        assert result.outcomes[0].category == Category.OTHER

    def test_small_corpus_proportions(self):
        corpus = gcc_like_corpus(scale=12, seed=99)
        result = run_corpus(corpus)
        by_name = corpus.by_name()
        for outcome in result.outcomes:
            assert outcome.category == by_name[outcome.function].expect, (
                outcome.function,
                outcome.category,
                outcome.detail,
            )

    def test_summary_renders(self):
        module = generate_module([("a", FunctionShape(loops=0, diamonds=0), 1)])
        text = run_batch(module).summary()
        assert "Succeeded" in text and "success rate" in text

    def test_summary_includes_solver_line(self):
        module = generate_module([("a", FunctionShape(loops=0, diamonds=1), 1)])
        text = run_batch(module).summary()
        assert "solver: queries=" in text
        assert "hit-rate=" in text


class TestCategoryCounts:
    @staticmethod
    def _result():
        categories = (
            [Category.SUCCEEDED] * 3
            + [Category.TIMEOUT] * 2
            + [Category.OOM, Category.OTHER, Category.MISCOMPILED]
            + [Category.UNSUPPORTED] * 2
        )
        return BatchResult(
            outcomes=[
                TvOutcome(f"f{i}", category)
                for i, category in enumerate(categories)
            ]
        )

    def test_counts_match_manual_tally(self):
        result = self._result()
        counts = result.category_counts
        assert counts[Category.SUCCEEDED] == 3
        assert counts[Category.TIMEOUT] == 2
        assert counts[Category.UNSUPPORTED] == 2
        assert result.count(Category.OOM) == 1
        assert result.count("no-such-category") == 0

    def test_figure6_rows_consistent_with_counts(self):
        result = self._result()
        rows = dict(result.figure6_rows())
        assert rows["Succeeded"] == 3
        assert rows["Failed due to timeout"] == 2
        assert rows["Failed due to out-of-memory"] == 1
        assert rows["Other"] == 2  # OTHER + MISCOMPILED
        assert rows["Total"] == 8  # unsupported excluded
        assert result.success_rate() == 3 / 8


class TestCorpusOverrides:
    def test_overrides_inherit_passed_base_options(self):
        corpus = gcc_like_corpus(scale=6, seed=11)
        base = TvOptions(keq=KeqOptions(max_steps=7))
        overrides = corpus_overrides(corpus, base)
        imprecise = [s for s in corpus.functions if s.imprecise_liveness]
        assert imprecise, "corpus should designate imprecise functions"
        assert set(overrides) == {s.name for s in imprecise}
        for options in overrides.values():
            assert options.imprecise_liveness is True
            # Regression: the override used to be built from the *default*
            # options, silently dropping the campaign configuration.
            assert options.keq.max_steps == 7

    def test_run_corpus_imprecise_function_keeps_base_budget(self):
        corpus = gcc_like_corpus(scale=6, seed=11)
        imprecise = {
            s.name for s in corpus.functions if s.imprecise_liveness
        }
        # With a 2-step budget inherited by the override, the imprecise
        # function runs out of steps (TIMEOUT) before the inadequate sync
        # points can manifest; with the (buggy) default-derived override it
        # would report OTHER under the default 4000-step budget.
        result = run_corpus(corpus, TvOptions(keq=KeqOptions(max_steps=2)))
        by_name = {o.function: o for o in result.outcomes}
        for name in imprecise:
            assert by_name[name].category == Category.TIMEOUT
