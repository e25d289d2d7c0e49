"""The parser memory budget inside sync-point generation.

A budgeted call must give exactly the unbudgeted spec when it fits, and
otherwise report exactly the unbudgeted ``spec_size()`` and point count
without building any constraint.
"""

import pytest

from repro.isel import IselError, IselOptions
from repro.targets import get_target
from repro.vcgen import SpecOverBudget, generate_sync_points
from repro.vcgen import syncgen
from repro.workloads import gcc_like_corpus, solver_bound_corpus

#: ISel options the benchmark validates each corpus with.
CORPORA = {
    "gcc_like": (lambda: gcc_like_corpus(scale=24, seed=2021), IselOptions()),
    "solver_bound": (
        lambda: solver_bound_corpus(2),
        IselOptions(mul_decompose=True),
    ),
}


@pytest.fixture(scope="module")
def modules():
    return {name: make().build_module() for name, (make, _) in CORPORA.items()}


def lowered(module, isel, target):
    """``(function, machine, hints)`` of every function the target lowers."""
    result = []
    for function in module.functions.values():
        try:
            machine, hints = get_target(target).select_function(module, function, isel)
        except IselError:
            continue
        result.append((function, machine, hints))
    return result


def generate(module, lowering, target, imprecise, **kwargs):
    function, machine, hints = lowering
    return generate_sync_points(
        module,
        function,
        machine,
        hints,
        imprecise_liveness=imprecise,
        target=target,
        **kwargs,
    )


@pytest.mark.parametrize("imprecise", [False, True], ids=["precise", "imprecise"])
@pytest.mark.parametrize("target", ["vx86", "vriscv"])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_budget_parity(modules, corpus, target, imprecise):
    module = modules[corpus]
    lowerings = lowered(module, CORPORA[corpus][1], target)
    assert lowerings
    oversized = 0
    for lowering in lowerings:
        name = lowering[0].name
        full = generate(module, lowering, target, imprecise)
        size, points = full.spec_size(), len(full)
        oversized += size > 4000
        for budget in (None, 4000, 1, size - 1, size):
            if budget is None or size <= budget:
                spec = generate(
                    module, lowering, target, imprecise, parser_memory_budget=budget
                )
                assert spec == full, (name, budget)
                continue
            with pytest.raises(SpecOverBudget) as report:
                generate(
                    module, lowering, target, imprecise, parser_memory_budget=budget
                )
            assert (report.value.size, report.value.points) == (size, points), (
                name,
                budget,
            )
            assert str(report.value) == f"sync point spec size {size} > {budget}"
    # The Figure 6 population at scale 24 holds one out-of-memory function.
    assert oversized == (1 if corpus == "gcc_like" else 0)


class _Refuse:
    """Stands in for a constraint class: any use of it fails the test."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("constraint built for an over-budget spec")

    def __getattr__(self, name):
        raise AssertionError("constraint built for an over-budget spec")


def test_over_budget_builds_no_constraint(modules, monkeypatch):
    module = modules["gcc_like"]
    lowerings = lowered(module, IselOptions(), "vx86")
    oversized = [
        lowering
        for lowering in lowerings
        if generate(module, lowering, "vx86", False).spec_size() > 4000
    ]
    assert len(oversized) == 1

    monkeypatch.setattr(syncgen, "EqConstraint", _Refuse())
    monkeypatch.setattr(syncgen, "Expr", _Refuse())
    with pytest.raises(SpecOverBudget):
        generate(module, oversized[0], "vx86", False, parser_memory_budget=4000)
    with pytest.raises(AssertionError):
        generate(module, oversized[0], "vx86", False)
