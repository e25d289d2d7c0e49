"""Synthetic workload generation standing in for GCC from SPEC 2006.

The paper validates ISel over 4732 supported C functions of GCC.  SPEC
sources are licensed and clang is unavailable offline, so this package
generates a seeded, deterministic population of LLVM IR functions with the
same *feature mix* (arithmetic, bitwise ops, compares, branches, loops,
calls, global/stack memory through GEPs) and a right-skewed size
distribution, plus the pathological sub-populations that reproduce the
paper's failure taxonomy (timeout / OOM / inadequate-liveness).  See
DESIGN.md, Section 2 for the substitution argument.
"""

from repro.workloads.generator import (
    FunctionShape,
    generate_function,
    generate_module,
)
from repro.workloads.corpus import (
    CorpusSpec,
    FunctionSpec,
    gcc_like_corpus,
    solver_bound_corpus,
)

__all__ = [
    "CorpusSpec",
    "FunctionShape",
    "FunctionSpec",
    "gcc_like_corpus",
    "generate_function",
    "generate_module",
    "solver_bound_corpus",
]
