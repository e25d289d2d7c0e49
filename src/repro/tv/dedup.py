"""Cross-function synchronization-point dedup (ROADMAP item 2, scoped).

A generated campaign corpus contains many functions that are identical up
to naming: same instruction shapes, same control flow, same sync-point
specification modulo SSA value / virtual-register names.  Validating each
of them re-proves exactly the same obligations.  This module computes an
*alpha-renaming canonical fingerprint* per function so
:func:`repro.tv.batch.run_corpus` can validate one representative per
equivalence class and replay its outcome for the rest.

The fingerprint covers everything the validation outcome depends on:

- the LLVM function text,
- the selected machine function text,
- the generated sync-point specification, or, for a function over the
  parser memory budget (whose spec is never built), its size and point
  count,
- the effective :class:`~repro.tv.driver.TvOptions` (two functions with
  different budgets or liveness variants never share a class),

with SSA values and virtual registers (``%``-prefixed tokens) renamed in
first-occurrence (traversal) order and the function's own name canonicalised
away.  Equal fingerprints therefore mean the two validation problems are
alpha-equivalent — same KEQ obligations modulo variable names — not merely
that the spec *shapes* coincide (shape alone cannot distinguish ``add``
from ``sub``).

Functions with calls are fingerprinted by extending the material with the
*reachable callee region*: the alpha-renamed bodies of every module-defined
callee reachable through the call graph, appended in first-call order, with
defined callee names canonicalised positionally (``§c1§``, ``§c2§``, ...).
Calls to *undefined* callees are uninterpreted boundary cut points on both
semantics sides (a ``CallMarker`` keyed on the callee name), so they are
sound to fingerprint by name — but only when the caller declares them as
known boundaries via ``known_externals``.  An undefined callee *not* in
that set is treated as missing and disables dedup for its callers.

Functions that cannot be fingerprinted are validated individually:

- ISel/VCGen rejects the function (the outcome is cheap anyway);
- the function calls a callee that is neither defined in the module nor a
  declared external boundary (its outcome would depend on a body the
  fingerprint cannot see).

Caveat: deterministic *witness search* keys on variable names, so two
alpha-equivalent functions can in principle spend different conflict
counts before reaching the same SAT/UNSAT answer; a replayed outcome is
guaranteed identical except exactly at a solver-budget boundary.  Corpus
generators name values deterministically from the function shape, so
within one corpus the renaming is a no-op and replay is exact.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.isel import IselError
from repro.llvm import ir
from repro.targets import get_target
from repro.tv.driver import TvOptions
from repro.vcgen import SpecOverBudget, VcGenError, generate_sync_points

#: SSA values and virtual registers in the printed artifacts.
_VALUE_TOKEN = re.compile(r"%[A-Za-z0-9_.]+")


def alpha_rename(text: str) -> str:
    """Rename every ``%``-token to ``%rN`` in first-occurrence order."""
    mapping: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        token = match.group(0)
        renamed = mapping.get(token)
        if renamed is None:
            renamed = mapping[token] = f"%r{len(mapping)}"
        return renamed

    return _VALUE_TOKEN.sub(rename, text)


def _callee_region(
    module: ir.Module, root: ir.Function
) -> tuple[list[ir.Function], list[str]]:
    """Module-defined callees reachable from ``root`` (first-call order,
    cycle-safe) and the undefined callee names encountered on the way."""
    region: list[ir.Function] = []
    externals: list[str] = []
    visited = {root.name}
    missing_seen: set[str] = set()
    queue = [root]
    while queue:
        function = queue.pop(0)
        for _, _, instruction in function.instructions():
            if not isinstance(instruction, ir.Call):
                continue
            callee = instruction.callee
            if callee in visited:
                continue
            defined = module.functions.get(callee)
            if defined is not None:
                visited.add(callee)
                region.append(defined)
                queue.append(defined)
            elif callee not in missing_seen:
                missing_seen.add(callee)
                externals.append(callee)
    return region, externals


def _rename_functions(text: str, names: list[str]) -> str:
    """Positionally canonicalise function names: ``names[i]`` -> ``§ci§``.

    Token-guarded (a name never rewrites inside a longer identifier), so it
    is safe on both the ``@name`` spelling of LLVM calls and the bare-label
    spelling of machine ``call`` instructions.
    """
    if not names:
        return text
    placeholder = {name: f"§c{i}§" for i, name in enumerate(names)}
    pattern = re.compile(
        r"(?<![A-Za-z0-9_.$])("
        + "|".join(re.escape(name) for name in names)
        + r")(?![A-Za-z0-9_.$])"
    )
    return pattern.sub(lambda match: placeholder[match.group(1)], text)


def spec_fingerprint(
    module: ir.Module,
    function_name: str,
    options: TvOptions,
    known_externals: frozenset[str] | tuple[str, ...] | None = None,
) -> str | None:
    """Canonical fingerprint of one function's validation problem.

    Returns ``None`` when the function cannot be soundly deduped: ISel or
    VCGen failure, or a call to a callee that is neither defined in the
    module nor listed in ``known_externals`` (see the module docstring).
    """
    function = module.function(function_name)
    target = get_target(options.target)
    try:
        machine, hints = target.select_function(module, function, options.isel)
        points = generate_sync_points(
            module,
            function,
            machine,
            hints,
            imprecise_liveness=options.imprecise_liveness,
            target=target.name,
            parser_memory_budget=options.parser_memory_budget,
        )
    except (IselError, VcGenError):
        return None
    except SpecOverBudget as over:
        # Validation stops at the budget: its OOM outcome depends on the
        # spec's size and point count, never on a spec that is not built.
        spec_text = f"over budget: size {over.size}, {over.points} points"
    else:
        spec_text = "\n".join(repr(point) for point in points)
    region, externals = _callee_region(module, function)
    boundaries = known_externals or ()
    if any(callee not in boundaries for callee in externals):
        return None  # a callee body is missing: validate individually
    llvm_text = str(function)
    machine_text = str(machine)
    parts = [llvm_text, machine_text, spec_text, repr(options)]
    parts += [str(callee) for callee in region]
    raw = _rename_functions(
        "\n§\n".join(parts), [function_name] + [f.name for f in region]
    )
    return hashlib.sha256(alpha_rename(raw).encode()).hexdigest()


@dataclass
class DedupPlan:
    """Which functions to validate and which outcomes to replay."""

    #: functions to validate (class representatives + unfingerprintables),
    #: in original corpus order.
    run_names: list[str] = field(default_factory=list)
    #: duplicate function -> its class representative.
    replay: dict[str, str] = field(default_factory=dict)
    #: fingerprinted equivalence classes (including singletons).
    classes: int = 0

    @property
    def deduped(self) -> int:
        return len(self.replay)


def plan_dedup(
    module: ir.Module,
    names: list[str],
    base: TvOptions,
    overrides: dict[str, TvOptions] | None = None,
    known_externals: frozenset[str] | tuple[str, ...] | None = None,
) -> DedupPlan:
    """Group ``names`` into alpha-equivalence classes.

    The first member of each class (in corpus order) is its representative;
    later members are replayed from its outcome.  ``known_externals`` names
    undefined callees that are declared boundary cut points (see
    :func:`spec_fingerprint`).
    """
    overrides = overrides or {}
    plan = DedupPlan()
    representative_by_print: dict[str, str] = {}
    for name in names:
        fingerprint = spec_fingerprint(
            module, name, overrides.get(name, base), known_externals
        )
        if fingerprint is None:
            plan.run_names.append(name)
            continue
        representative = representative_by_print.get(fingerprint)
        if representative is None:
            representative_by_print[fingerprint] = name
            plan.classes += 1
            plan.run_names.append(name)
        else:
            plan.replay[name] = representative
    return plan
