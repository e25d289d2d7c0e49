"""The GCC-like corpus descriptor (paper Section 5.1 substitute).

The real experiment covers 5572 C functions, 4732 of which the paper's
semantics support, with outcomes: 4331 succeeded / 206 timeout / 179 OOM /
16 other.  ``gcc_like_corpus`` generates a seeded population whose
*proportions* match those rows; the default scale is laptop-sized, and the
scale factor reproduces larger runs.

How each failure class arises (all organic, not forced verdicts):

- *timeout*: functions with many sequential diamonds — the number of
  symbolic paths between synchronization points grows exponentially and
  exhausts KEQ's step budget (the paper: Z3 solving time dominated);
- *OOM*: functions with many loops carrying many live registers — the
  synchronization-point specification exceeds the parser memory budget
  (the paper: the K parser blew up on large sync-point specifications);
- *other*: functions validated with the imprecise liveness variant (the
  paper: a liveness inaccuracy produced inadequate sync points for 16
  functions);
- *unsupported*: functions with out-of-fragment features (stands in for
  the 840 float/SIMD functions excluded from the denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llvm import ir
from repro.workloads.generator import FunctionShape, generate_function

#: Paper's Figure 6 counts.
PAPER_TOTAL = 5572
PAPER_SUPPORTED = 4732
PAPER_SUCCEEDED = 4331
PAPER_TIMEOUT = 206
PAPER_OOM = 179
PAPER_OTHER = 16


@dataclass
class FunctionSpec:
    name: str
    shape: FunctionShape
    seed: int
    expect: str  # intended outcome class (for calibration reporting)
    imprecise_liveness: bool = False


@dataclass
class CorpusSpec:
    functions: list[FunctionSpec] = field(default_factory=list)

    def build_module(self) -> ir.Module:
        module = ir.Module()
        for spec in self.functions:
            generate_function(module, spec.name, spec.shape, spec.seed)
        return module

    def by_name(self) -> dict[str, FunctionSpec]:
        return {spec.name: spec for spec in self.functions}


def _normal_shape(rng_seed: int, size_class: int) -> FunctionShape:
    """Size classes 0..3 give the right-skewed size distribution of Fig. 7."""
    if size_class == 0:  # small, the bulk of the corpus
        return FunctionShape(
            straight_segments=1, ops_per_segment=3, diamonds=0, loops=0
        )
    if size_class == 1:
        return FunctionShape(
            straight_segments=2,
            ops_per_segment=4,
            diamonds=1,
            loops=1,
            memory_ops=1,
        )
    if size_class == 2:
        return FunctionShape(
            straight_segments=3,
            ops_per_segment=6,
            diamonds=2,
            loops=1,
            loop_body_ops=4,
            calls=1,
            memory_ops=2,
            allocas=1,
            selects=1,
            casts=1,
            divisions=True,
        )
    return FunctionShape(
        straight_segments=5,
        ops_per_segment=10,
        diamonds=3,
        loops=2,
        loop_body_ops=6,
        calls=2,
        memory_ops=3,
        allocas=2,
        selects=2,
        casts=2,
        nested_loops=True,
    )


def _timeout_shape() -> FunctionShape:
    # ~13 sequential diamonds: ~2^13 paths from entry to the next cut.
    return FunctionShape(
        straight_segments=1, ops_per_segment=2, diamonds=13, loops=0
    )


def _oom_shape() -> FunctionShape:
    # Many loops crossed by a fat live set (every value feeds the return
    # value) -> the synchronization-point specification explodes.
    return FunctionShape(
        straight_segments=3,
        ops_per_segment=35,
        diamonds=0,
        loops=48,
        loop_body_ops=2,
        live_tail=True,
    )


def solver_bound_corpus(functions: int = 4, seed: int = 2021) -> CorpusSpec:
    """A corpus whose validation time is dominated by SAT solving.

    Every function carries an i8 multiply-by-constant guard diamond (see
    ``FunctionShape.mul_guards``); validated with ISel's ``mul_decompose``
    the IR and machine sides compute the product through syntactically
    different circuits, so each obligation is a real bit-level equivalence
    query.  The two extra plain diamonds multiply the synchronization
    points that re-prove the same guard circuit, which is what
    function-scoped incremental solving exploits: shift/add multiplier
    lemmas learned at one point are replayed at the next, while the
    varying guard predicates and diamond bodies keep the top-level goals
    distinct (every one is a query-cache miss).  Exactly one guard per
    function: a second guard can draw its bound from the first guard's
    divergent product and produce pathological (hours-long) queries.
    """
    spec = CorpusSpec()
    for index in range(functions):
        shape = FunctionShape(
            straight_segments=1,
            ops_per_segment=2,
            diamonds=2,
            loops=0,
            wide_muls=False,
            mul_guards=1,
        )
        spec.functions.append(
            FunctionSpec(
                name=f"fn_mul_{index:04d}",
                shape=shape,
                seed=seed + index,
                expect="succeeded",
            )
        )
    return spec


def gcc_like_corpus(scale: int = 120, seed: int = 2021) -> CorpusSpec:
    """A corpus of ``scale`` supported functions (plus ~18% unsupported)
    whose outcome proportions are calibrated to the paper's Figure 6.

    Each function's name records the row it is generated for.  One known
    difference: at ``scale=1200, seed=2021``, ``fn_oom_1154``'s spec fits
    under the parser memory budget, so it succeeds on both targets and
    the rows read 1100/52/44/4 where the names say 1099/52/45/4.  It stays
    in the corpus; ``_oom_shape`` is not tuned for it, because that shape
    also sizes the scale-120 OOM functions the benchmark pins.
    """
    spec = CorpusSpec()
    n_timeout = max(1, round(scale * PAPER_TIMEOUT / PAPER_SUPPORTED))
    n_oom = max(1, round(scale * PAPER_OOM / PAPER_SUPPORTED))
    n_other = max(1, round(scale * PAPER_OTHER / PAPER_SUPPORTED))
    n_unsupported = max(
        1, round(scale * (PAPER_TOTAL - PAPER_SUPPORTED) / PAPER_SUPPORTED)
    )
    n_ok = scale - n_timeout - n_oom - n_other
    counter = 0

    def add(shape: FunctionShape, expect: str, imprecise: bool = False):
        nonlocal counter
        spec.functions.append(
            FunctionSpec(
                name=f"fn_{expect}_{counter:04d}",
                shape=shape,
                seed=seed + counter,
                expect=expect,
                imprecise_liveness=imprecise,
            )
        )
        counter += 1

    # Successful population: size classes weighted toward small functions.
    weights = [0.45, 0.3, 0.18, 0.07]
    for index in range(n_ok):
        roll = ((seed + index) * 2654435761 % 1000) / 1000.0
        size_class = 0
        cumulative = 0.0
        for klass, weight in enumerate(weights):
            cumulative += weight
            if roll < cumulative:
                size_class = klass
                break
        add(_normal_shape(seed + index, size_class), "succeeded")
    for _ in range(n_timeout):
        add(_timeout_shape(), "timeout")
    for _ in range(n_oom):
        add(_oom_shape(), "oom")
    for _ in range(n_other):
        # A normal loopy function validated with the buggy liveness.
        add(_normal_shape(seed + counter, 1), "other", imprecise=True)
    for _ in range(n_unsupported):
        add(FunctionShape(unsupported=True), "unsupported")
    return spec
