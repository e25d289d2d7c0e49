"""Cross-function sync-point dedup: fingerprints, planning, and replay."""

import dataclasses

from repro.tv import Category, TvOptions
from repro.tv.batch import run_corpus
from repro.tv.dedup import alpha_rename, plan_dedup, spec_fingerprint
from repro.workloads import FunctionShape, gcc_like_corpus
from repro.workloads.corpus import CorpusSpec, FunctionSpec

SMALL = FunctionShape(straight_segments=1, ops_per_segment=3)
LOOPY = FunctionShape(
    straight_segments=2, ops_per_segment=4, diamonds=1, loops=1, memory_ops=1
)


def clone_corpus():
    """Three alpha-equivalent clones plus two structurally distinct
    functions (one of them a clone pair of its own)."""
    return CorpusSpec(
        functions=[
            FunctionSpec("alpha_one", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("beta_solo", LOOPY, seed=9, expect="succeeded"),
            FunctionSpec("alpha_two", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("alpha_three", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("gamma_solo", SMALL, seed=8, expect="succeeded"),
        ]
    )


class TestAlphaRename:
    def test_first_occurrence_order(self):
        assert (
            alpha_rename("%x = add i32 %y, %x")
            == "%r0 = add i32 %r1, %r0"
        )

    def test_consistent_across_lines(self):
        left = alpha_rename("%a = add i32 %b, 1\n%c = mul i32 %a, %b")
        right = alpha_rename("%p = add i32 %q, 1\n%r = mul i32 %p, %q")
        assert left == right

    def test_distinguishes_structure(self):
        # Same token multiset, different dataflow: not alpha-equivalent.
        assert alpha_rename("%a = add i32 %a, %b") != alpha_rename(
            "%a = add i32 %b, %b"
        )


class TestSpecFingerprint:
    def test_clones_share_fingerprint(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        prints = {
            name: spec_fingerprint(module, name, base)
            for name in ("alpha_one", "alpha_two", "alpha_three")
        }
        assert prints["alpha_one"] is not None
        assert len(set(prints.values())) == 1

    def test_different_shape_different_fingerprint(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        assert spec_fingerprint(module, "alpha_one", base) != spec_fingerprint(
            module, "beta_solo", base
        )

    def test_options_participate(self):
        """Two functions validated under different options must never share
        a class — liveness variants change the sync-point spec contract."""
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        imprecise = dataclasses.replace(base, imprecise_liveness=True)
        assert spec_fingerprint(module, "alpha_one", base) != spec_fingerprint(
            module, "alpha_one", imprecise
        )

    def test_target_participates(self):
        """The same IR validated against different target ISAs produces
        different specs — classes never alias across ``--target``."""
        corpus = clone_corpus()
        module = corpus.build_module()
        vx86 = TvOptions(target="vx86")
        vriscv = TvOptions(target="vriscv")
        assert spec_fingerprint(module, "alpha_one", vx86) != spec_fingerprint(
            module, "alpha_one", vriscv
        )

    def test_clones_still_share_within_a_target(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        vriscv = TvOptions(target="vriscv")
        assert spec_fingerprint(module, "alpha_one", vriscv) == spec_fingerprint(
            module, "alpha_two", vriscv
        )

    def test_unsupported_function_is_not_fingerprinted(self):
        corpus = CorpusSpec(
            functions=[
                FunctionSpec(
                    "weird",
                    FunctionShape(unsupported=True),
                    seed=1,
                    expect="unsupported",
                )
            ]
        )
        module = corpus.build_module()
        assert spec_fingerprint(module, "weird", TvOptions()) is None

    def test_function_with_calls_is_not_fingerprinted(self):
        """Call outcomes depend on callee bodies, which the fingerprint
        does not cover — such functions validate individually."""
        shape = dataclasses.replace(LOOPY, calls=1)
        corpus = CorpusSpec(
            functions=[FunctionSpec("caller", shape, seed=3, expect="succeeded")]
        )
        module = corpus.build_module()
        assert spec_fingerprint(module, "caller", TvOptions()) is None


CALLS_LL = """
define i32 @helper(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @shouty(i32 %x) {
entry:
  %a = sub i32 %x, 1
  ret i32 %a
}
define i32 @caller_one(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @caller_two(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @caller_three(i32 %x) {
entry:
  %r = call i32 @shouty(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @caller_ghost(i32 %x) {
entry:
  %r = call i32 @ghost(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
"""


class TestCalleeRegion:
    """Fingerprints extended over the reachable defined-callee region."""

    def _module(self):
        from repro.llvm import parse_module

        return parse_module(CALLS_LL)

    def test_same_callee_body_shares_fingerprint(self):
        """caller_one/caller_two differ only in their own (canonicalised)
        name; the shared helper body folds into one region hash.  (SSA
        value names must coincide: sync-point payloads carry bare names,
        the corpus-generator caveat in the module docstring.)"""
        module = self._module()
        base = TvOptions()
        one = spec_fingerprint(module, "caller_one", base)
        two = spec_fingerprint(module, "caller_two", base)
        assert one is not None
        assert one == two

    def test_different_callee_body_splits_fingerprint(self):
        """caller_three is textually caller_one modulo names, but its
        callee computes sub instead of add — the region hash must differ."""
        module = self._module()
        base = TvOptions()
        assert spec_fingerprint(module, "caller_one", base) != spec_fingerprint(
            module, "caller_three", base
        )

    def test_missing_callee_disables_dedup(self):
        module = self._module()
        assert spec_fingerprint(module, "caller_ghost", TvOptions()) is None

    def test_declared_external_boundary_enables_dedup(self):
        module = self._module()
        fingerprint = spec_fingerprint(
            module,
            "caller_ghost",
            TvOptions(),
            known_externals=frozenset({"ghost"}),
        )
        assert fingerprint is not None

    def test_corpus_external_calls_dedup_with_known_externals(self):
        from repro.workloads import EXTERNAL_CALLEES

        shape = dataclasses.replace(LOOPY, calls=1)
        corpus = CorpusSpec(
            functions=[
                FunctionSpec("call_a", shape, seed=3, expect="succeeded"),
                FunctionSpec("call_b", shape, seed=3, expect="succeeded"),
            ]
        )
        module = corpus.build_module()
        plan = plan_dedup(
            module,
            list(module.functions),
            TvOptions(),
            known_externals=frozenset(EXTERNAL_CALLEES),
        )
        assert plan.replay == {"call_b": "call_a"}

    def test_corpus_external_calls_conservative_by_default(self):
        shape = dataclasses.replace(LOOPY, calls=1)
        corpus = CorpusSpec(
            functions=[
                FunctionSpec("call_a", shape, seed=3, expect="succeeded"),
                FunctionSpec("call_b", shape, seed=3, expect="succeeded"),
            ]
        )
        module = corpus.build_module()
        plan = plan_dedup(module, list(module.functions), TvOptions())
        assert plan.replay == {}
        assert plan.run_names == ["call_a", "call_b"]


class TestPlanDedup:
    def test_representatives_and_replay(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        names = list(module.functions)
        plan = plan_dedup(module, names, TvOptions(), {})
        # First clone in corpus order represents the class.
        assert plan.replay == {
            "alpha_two": "alpha_one",
            "alpha_three": "alpha_one",
        }
        assert plan.run_names == ["alpha_one", "beta_solo", "gamma_solo"]
        assert plan.classes == 3
        assert plan.deduped == 2

    def test_override_splits_class(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        names = list(module.functions)
        base = TvOptions()
        overrides = {
            "alpha_two": dataclasses.replace(base, imprecise_liveness=True)
        }
        plan = plan_dedup(module, names, base, overrides)
        assert plan.replay == {"alpha_three": "alpha_one"}
        assert "alpha_two" in plan.run_names


class TestRunCorpusDedup:
    def test_replayed_outcomes_are_marked_and_identical(self):
        corpus = clone_corpus()
        base = TvOptions()
        deduped = run_corpus(corpus, base, dedup=True)
        plain = run_corpus(corpus, base, dedup=False)
        # Same functions, same order, same verdicts either way.
        assert [(o.function, o.category) for o in deduped.outcomes] == [
            (o.function, o.category) for o in plain.outcomes
        ]
        by_name = {o.function: o for o in deduped.outcomes}
        for duplicate in ("alpha_two", "alpha_three"):
            outcome = by_name[duplicate]
            assert outcome.deduped
            assert outcome.dedup_of == "alpha_one"
            assert outcome.seconds == 0.0
            assert outcome.solver_stats is None
            assert "[deduped: alpha_one]" in str(outcome)
        assert not by_name["alpha_one"].deduped
        assert deduped.dedup_classes == 3
        assert deduped.deduped_functions == 2
        assert "dedup: 3 classes, 2 outcomes replayed" in deduped.summary()
        assert by_name["alpha_one"].category == Category.SUCCEEDED

    def test_dedup_skips_solver_work(self):
        corpus = clone_corpus()
        base = TvOptions()
        deduped = run_corpus(corpus, base, dedup=True)
        plain = run_corpus(corpus, base, dedup=False)
        assert deduped.solver_stats.queries < plain.solver_stats.queries

    def test_dedup_off_has_no_markers(self):
        corpus = clone_corpus()
        result = run_corpus(corpus, TvOptions(), dedup=False)
        assert all(not o.deduped for o in result.outcomes)
        assert result.dedup_classes == 0
        assert result.deduped_functions == 0
        assert "dedup:" not in result.summary()


def oom_clone_corpus():
    """An out-of-memory function of the Figure 6 corpus, its clone under a
    second name, and another out-of-memory function."""
    oom = {
        spec.name: spec
        for spec in gcc_like_corpus(120, 2021).functions
        if spec.expect == "oom"
    }
    original = oom["fn_oom_0114"]
    return CorpusSpec(
        functions=[
            original,
            dataclasses.replace(original, name="fn_oom_clone"),
            oom["fn_oom_0115"],
        ]
    )


class TestOverBudgetDedup:
    """Over-budget specs are never built, so they are fingerprinted by
    their size and point count."""

    def test_clone_shares_the_class(self):
        corpus = oom_clone_corpus()
        module = corpus.build_module()
        plan = plan_dedup(module, list(module.functions), TvOptions.for_campaign())
        assert plan.replay == {"fn_oom_clone": "fn_oom_0114"}
        assert plan.run_names == ["fn_oom_0114", "fn_oom_0115"]
        assert plan.classes == 2

    def test_replay_carries_the_representatives_outcome(self):
        result = run_corpus(oom_clone_corpus(), TvOptions.for_campaign())
        by_name = {o.function: o for o in result.outcomes}
        clone = by_name["fn_oom_clone"]
        assert clone.deduped and clone.dedup_of == "fn_oom_0114"
        for outcome in (by_name["fn_oom_0114"], clone):
            assert outcome.category == Category.OOM
            assert outcome.detail == "sync point spec size 7851 > 4000"
            assert outcome.sync_points == 98
            assert outcome.failure_class == "oom"
        assert by_name["fn_oom_0115"].detail == "sync point spec size 6803 > 4000"
