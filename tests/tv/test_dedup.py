"""Cross-function dedup by identical bodies: fingerprints, planning, and
replay."""

import dataclasses

import pytest

from repro.llvm import parse_module
from repro.targets import get_target
from repro.tv import Category, TvOptions
from repro.tv.batch import corpus_overrides, replay_outcomes, run_batch, run_corpus
from repro.tv.dedup import body_fingerprint, plan_dedup
from repro.workloads import FunctionShape, gcc_like_corpus
from repro.workloads.corpus import CorpusSpec, FunctionSpec

SMALL = FunctionShape(straight_segments=1, ops_per_segment=3)
LOOPY = FunctionShape(
    straight_segments=2, ops_per_segment=4, diamonds=1, loops=1, memory_ops=1
)


def clone_corpus():
    """Three clones with identical bodies plus two structurally distinct
    functions."""
    return CorpusSpec(
        functions=[
            FunctionSpec("alpha_one", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("beta_solo", LOOPY, seed=9, expect="succeeded"),
            FunctionSpec("alpha_two", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("alpha_three", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("gamma_solo", SMALL, seed=8, expect="succeeded"),
        ]
    )


class TestSpecFingerprint:
    """:func:`body_fingerprint`: the function's own text and options."""

    def test_clones_share_fingerprint(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        prints = {
            name: body_fingerprint(module, name, base)
            for name in ("alpha_one", "alpha_two", "alpha_three")
        }
        assert len(set(prints.values())) == 1

    def test_different_shape_different_fingerprint(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        assert body_fingerprint(module, "alpha_one", base) != body_fingerprint(
            module, "beta_solo", base
        )

    def test_options_participate(self):
        """Two functions validated under different options must never share
        a class — liveness variants change the sync-point spec contract."""
        corpus = clone_corpus()
        module = corpus.build_module()
        base = TvOptions()
        imprecise = dataclasses.replace(base, imprecise_liveness=True)
        assert body_fingerprint(module, "alpha_one", base) != body_fingerprint(
            module, "alpha_one", imprecise
        )

    def test_target_participates(self):
        """The same IR validated against different target ISAs produces
        different specs — classes never alias across ``--target``."""
        corpus = clone_corpus()
        module = corpus.build_module()
        vx86 = TvOptions(target="vx86")
        vriscv = TvOptions(target="vriscv")
        assert body_fingerprint(module, "alpha_one", vx86) != body_fingerprint(
            module, "alpha_one", vriscv
        )

    def test_clones_still_share_within_a_target(self):
        corpus = clone_corpus()
        module = corpus.build_module()
        vriscv = TvOptions(target="vriscv")
        assert body_fingerprint(module, "alpha_one", vriscv) == body_fingerprint(
            module, "alpha_two", vriscv
        )


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
    """Callees enter a fingerprint by name: within one module a name
    denotes one body, and a call is a cut state keyed on it."""

    def _module(self):
        return parse_module(CALLS_LL)

    def test_same_callee_body_shares_fingerprint(self):
        """caller_one/caller_two differ only in their own name."""
        module = self._module()
        base = TvOptions()
        one = body_fingerprint(module, "caller_one", base)
        two = body_fingerprint(module, "caller_two", base)
        assert one == two

    def test_different_callee_body_splits_fingerprint(self):
        """caller_three is caller_one calling another callee (whose body
        computes sub instead of add)."""
        module = self._module()
        base = TvOptions()
        assert body_fingerprint(module, "caller_one", base) != body_fingerprint(
            module, "caller_three", base
        )

    def test_declared_external_boundary_enables_dedup(self):
        module = self._module()
        fingerprint = body_fingerprint(module, "caller_ghost", TvOptions())
        assert fingerprint is not None

    def test_corpus_external_calls_dedup_with_known_externals(self):
        shape = dataclasses.replace(LOOPY, calls=1)
        corpus = CorpusSpec(
            functions=[
                FunctionSpec("call_a", shape, seed=3, expect="succeeded"),
                FunctionSpec("call_b", shape, seed=3, expect="succeeded"),
            ]
        )
        module = corpus.build_module()
        plan = plan_dedup(module, list(module.functions), TvOptions())
        assert plan.replay == {"call_b": "call_a"}


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
    """An over-budget function's copy replays its OOM outcome, although
    its spec is never built."""

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


BODIES_LL = """
define i32 @base(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @base_copy(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @renamed_value(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %t = add i32 %r, 2
  ret i32 %t
}
define i32 @changed_constant(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  %s = add i32 %r, 3
  ret i32 %s
}
define i32 @changed_callee(i32 %x) {
entry:
  %r = call i32 @helper2(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
define i32 @count_a(i32 %x) {
entry:
  %c = icmp eq i32 %x, 0
  br i1 %c, label %done, label %more
more:
  %y = sub i32 %x, 1
  %r = call i32 @count_a(i32 %y)
  ret i32 %r
done:
  ret i32 0
}
define i32 @count_b(i32 %x) {
entry:
  %c = icmp eq i32 %x, 0
  br i1 %c, label %done, label %more
more:
  %y = sub i32 %x, 1
  %r = call i32 @count_b(i32 %y)
  ret i32 %r
done:
  ret i32 0
}
define i32 @calls_count_a(i32 %x) {
entry:
  %c = icmp eq i32 %x, 0
  br i1 %c, label %done, label %more
more:
  %y = sub i32 %x, 1
  %r = call i32 @count_a(i32 %y)
  ret i32 %r
done:
  ret i32 0
}
"""


class TestIdenticalBodies:
    """The rule: a class is one body under any function name."""

    def _plan(self):
        module = parse_module(BODIES_LL)
        return plan_dedup(module, list(module.functions), TvOptions())

    def test_identical_bodies_share_a_class(self):
        """Including a recursive self-call; a call to the other copy is a
        different body."""
        plan = self._plan()
        assert plan.replay == {"base_copy": "base", "count_b": "count_a"}
        assert "calls_count_a" in plan.run_names

    @pytest.mark.parametrize(
        "variant", ["renamed_value", "changed_constant", "changed_callee"]
    )
    def test_one_change_splits_the_class(self, variant):
        plan = self._plan()
        assert variant in plan.run_names
        assert variant not in plan.replay


UNSUPPORTED = FunctionShape(unsupported=True)

GHOST_LL = CALLS_LL + """
define i32 @caller_ghost_copy(i32 %x) {
entry:
  %r = call i32 @ghost(i32 %x)
  %s = add i32 %r, 2
  ret i32 %s
}
"""


def _same_outcome(replayed, own):
    assert (replayed.category, replayed.failure_class, replayed.sync_points) == (
        own.category,
        own.failure_class,
        own.sync_points,
    )


class TestReplayWithoutIsel:
    """Copies whose outcome ISel or an undefined callee decides replay
    their representative's outcome, which is the copy's own."""

    def test_unsupported_copy_replays(self):
        corpus = CorpusSpec(
            functions=[
                FunctionSpec("weird", UNSUPPORTED, seed=1, expect="unsupported"),
                FunctionSpec("weird_copy", UNSUPPORTED, seed=1, expect="unsupported"),
            ]
        )
        deduped = {o.function: o for o in run_corpus(corpus, dedup=True).outcomes}
        plain = {o.function: o for o in run_corpus(corpus, dedup=False).outcomes}
        copy = deduped["weird_copy"]
        assert copy.deduped and copy.dedup_of == "weird"
        assert copy.category == Category.UNSUPPORTED
        _same_outcome(copy, plain["weird_copy"])

    def test_undefined_callee_copy_replays(self):
        module = parse_module(GHOST_LL)
        names = list(module.functions)
        plan = plan_dedup(module, names, TvOptions())
        assert plan.replay["caller_ghost_copy"] == "caller_ghost"
        result = run_batch(module, TvOptions(), function_names=plan.run_names)
        replayed = {
            o.function: o for o in replay_outcomes(result.outcomes, plan.replay)
        }
        copy = replayed["caller_ghost_copy"]
        assert copy.deduped and copy.dedup_of == "caller_ghost"
        own = run_batch(module, TvOptions(), function_names=["caller_ghost_copy"])
        _same_outcome(copy, own.outcomes[0])


@pytest.fixture
def forbid_isel_and_syncgen(monkeypatch):
    """Make ISel (both targets) and sync-point generation raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("planning must not run ISel or syncgen")

    for path in (
        "repro.isel.lowering.select_function",
        "repro.isel.riscv.select_function",
        "repro.isel.select_function",
        "repro.vcgen.syncgen.generate_sync_points",
        "repro.vcgen.generate_sync_points",
        "repro.tv.driver.generate_sync_points",
    ):
        monkeypatch.setattr(path, forbidden)
    get_target.cache_clear()  # the registry caches the real bindings
    yield
    get_target.cache_clear()


@pytest.mark.parametrize("target", ["vx86", "vriscv"])
def test_figure6_corpus_plans_every_function(forbid_isel_and_syncgen, target):
    """No two functions of the Figure 6 corpus share a body, and planning
    calls neither ISel nor sync-point generation."""
    corpus = gcc_like_corpus(120, 2021)
    module = corpus.build_module()
    base = TvOptions.for_campaign(target=target)
    names = list(module.functions)
    plan = plan_dedup(module, names, base, corpus_overrides(corpus, base))
    assert plan.run_names == names
    assert plan.replay == {}
    assert plan.classes == len(names) == 141
