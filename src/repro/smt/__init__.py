"""SMT substrate: bitvector/boolean terms, simplification, SAT, bit-blasting.

This subpackage stands in for Z3 in the paper's KEQ pipeline (see DESIGN.md,
Section 2).  It provides:

- :mod:`repro.smt.terms` — a hash-consed term DAG over booleans and fixed
  width bitvectors, covering every operation the LLVM IR and Virtual x86
  semantics need.
- :mod:`repro.smt.simplify` — a rewriting simplifier/normalizer.
- :mod:`repro.smt.sat` — a CDCL SAT solver (watched literals, 1UIP clause
  learning, VSIDS branching, Luby restarts).
- :mod:`repro.smt.bitblast` — a Tseitin bit-blaster from terms to CNF.
- :mod:`repro.smt.solver` — the solver façade used by KEQ, including the
  paper's positive-form query optimization (Section 3).
"""

from repro.smt.terms import (
    BOOL,
    BV1,
    BV8,
    BV16,
    BV32,
    BV64,
    BoolSort,
    BVSort,
    Term,
    bv_sort,
)
from repro.smt import terms as t
from repro.smt.simplify import simplify, substitute
from repro.smt.solver import (
    QueryStats,
    Result,
    Solver,
    check_query,
)
from repro.smt.cache import CacheStats, QueryCache

__all__ = [
    "CacheStats",
    "QueryCache",
    "QueryStats",
    "check_query",
    "BOOL",
    "BV1",
    "BV8",
    "BV16",
    "BV32",
    "BV64",
    "BoolSort",
    "BVSort",
    "Result",
    "Solver",
    "Term",
    "bv_sort",
    "simplify",
    "substitute",
    "t",
]
