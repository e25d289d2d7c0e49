"""Cross-function outcome dedup: one validation per identical body.

A corpus can contain functions whose bodies are identical and differ only
in their names.  This module fingerprints each function by its own LLVM
text plus ``repr(options)``, with the function's own name replaced by a
placeholder (so a recursive self-call matches too) and callee names left
as written, so :func:`repro.tv.batch.run_corpus` can validate one
representative per class and replay its outcome for the rest.

Soundness rests on determinism alone.  Validation
(:func:`~repro.tv.driver.validate_function`) reads only the function, the
module's globals and the options: a call is a ``CALLING`` cut state keyed
on the callee name, the machine semantics is handed only the selected
function itself, and within one module a callee name denotes one body
(or none).  Two functions with equal fingerprints therefore pose the same
validation problem, whatever ISel, sync-point generation or KEQ make of
it, so an ISel-unsupported function, an over-budget one or one that calls
an undefined callee replays as exactly as any other.  Planning runs
neither ISel nor sync-point generation.

Caveat: the one name a representative and its copy do not share is their
own, and stack objects carry it (``stack.<function>.<value>``).  The
deterministic witness search keys on variable names, so the two could in
principle spend different conflict counts before reaching the same
SAT/UNSAT answer; a replayed outcome is identical except exactly at a
solver-budget boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.llvm import ir
from repro.tv.driver import TvOptions


def body_fingerprint(
    module: ir.Module, function_name: str, options: TvOptions
) -> str:
    """Fingerprint of one function's validation problem: its LLVM text
    under a placeholder name, and the options it is validated under."""
    # ``@name(`` spells the function only in its header and in calls to it.
    text = str(module.function(function_name)).replace(
        f"@{function_name}(", "@§self§("
    )
    return hashlib.sha256(f"{text}\n§\n{options!r}".encode()).hexdigest()


@dataclass
class DedupPlan:
    """Which functions to validate and which outcomes to replay."""

    #: class representatives (the functions to validate), in corpus order.
    run_names: list[str] = field(default_factory=list)
    #: duplicate function -> its class representative.
    replay: dict[str, str] = field(default_factory=dict)

    @property
    def classes(self) -> int:
        return len(self.run_names)

    @property
    def deduped(self) -> int:
        return len(self.replay)


def plan_dedup(
    module: ir.Module,
    names: list[str],
    base: TvOptions,
    overrides: dict[str, TvOptions] | None = None,
) -> DedupPlan:
    """Group ``names`` into classes of identical bodies.

    The first member of each class (in corpus order) is its representative;
    later members are replayed from its outcome.
    """
    overrides = overrides or {}
    plan = DedupPlan()
    representative_by_print: dict[str, str] = {}
    for name in names:
        fingerprint = body_fingerprint(module, name, overrides.get(name, base))
        representative = representative_by_print.setdefault(fingerprint, name)
        if representative == name:
            plan.run_names.append(name)
        else:
            plan.replay[name] = representative
    return plan
