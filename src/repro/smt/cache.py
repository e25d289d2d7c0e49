"""Sound result cache for solver queries (campaign-scale memoisation).

The GCC-style batch campaign re-proves thousands of near-identical SMT
obligations: every function of a size class emits the same flag-encoding
and pointer-roundtrip queries modulo variable naming, and reruns of the
campaign re-issue *exactly* the same queries.  This module provides the
two-level cache the solver façade consults:

- an in-memory LRU keyed on the canonical printing of the *simplified*
  query term (:func:`repro.smt.printer.canonical` — full fidelity, never
  elided, structure-deterministic), shared across all queries of one
  process;
- an optional persistent on-disk store (``cache_dir``) shared across runs
  and across worker processes of the parallel batch driver.

Soundness rules
---------------

Only decided results (``SAT``/``UNSAT``) are ever cached.  ``UNKNOWN`` is
budget-dependent — caching it would wrongly fail a later, better-funded
run — so :meth:`QueryCache.store` silently drops it.

Each entry records the *cost* of the answer: the minimal conflict budget
under which the underlying CDCL search decides the query (``conflicts
used + 1``; ``0`` for answers found by budget-independent fast paths such
as simplification, the boolean-skeleton check, the witness search, or
literal propagation).  A
lookup under conflict budget ``B`` may only use an entry with ``cost <=
B``: an entry recorded under a smaller budget is always reusable, while
one recorded under a larger budget must not satisfy a lookup that —
uncached — would have returned ``UNKNOWN`` (and hence a deterministic
TIMEOUT outcome in the campaign).  This keeps cached and uncached runs
*outcome-identical*, not merely logically consistent.

Only *fresh-path* answers are stored.  Incremental sessions
(:class:`SolverSession`) consult the cache under the same key a fresh
``check_sat`` of the combined conjunction would use — the paths share one
namespace and can never contradict each other — but their decided results
are not stored back: a session's deciding check leans on clauses learned
by earlier checks, so it carries no fresh-equivalent cost.  Storing an
optimistic cost would let a later cached run decide under a
small budget where an uncached fresh run returns ``UNKNOWN``, breaking the
outcome-identity guarantee above (this was a real bug, found by the
cached-vs-uncached differential oracle; see the session-cost regression
test).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.fsio import atomic_publish
from repro.smt.printer import canonical
from repro.smt.solver import Result
from repro.smt.terms import Term

#: Cost recorded for answers that never touched the CDCL search.
FAST_PATH_COST = 0


@dataclass
class CacheStats:
    """Counters for one :class:`QueryCache` (diagnostics and benchmarks)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    #: entries found but rejected by the budget-soundness rule.
    budget_rejections: int = 0


class QueryCache:
    """Two-level (memory LRU + optional disk) cache of decided queries.

    Safe to share across the functions of one batch worker; *not* a
    cross-thread object.  Cross-process sharing happens through
    ``cache_dir``: writes are atomic (``os.replace``), torn or corrupt
    files read as misses, so concurrent workers never poison each other.
    """

    def __init__(self, max_entries: int = 8192, cache_dir: str | None = None):
        self.max_entries = max_entries
        self.cache_dir = cache_dir
        self.namespace = ""
        self.stats = CacheStats()
        self._lru: "OrderedDict[str, tuple[Result, int]]" = OrderedDict()
        #: terms are interned, so canonical printings memoise per object.
        self._key_memo: dict[Term, str] = {}

    def for_target(self, namespace: str) -> "QueryCache":
        """A view of this cache whose keys carry a target-language tag.

        Two targets lower the same LLVM function to structurally similar
        obligations; without a namespace, a vx86 answer could satisfy a
        vriscv lookup through a shared ``cache_dir`` even though the
        queries belong to different semantics.  The view shares every
        piece of mutable state with its parent (LRU, canonical-key memo,
        stats, disk store) — only the key prefix differs, so entries from
        different targets can never alias.
        """
        if namespace == self.namespace:
            return self
        view = QueryCache.__new__(QueryCache)
        view.max_entries = self.max_entries
        view.cache_dir = self.cache_dir
        view.namespace = namespace
        view.stats = self.stats
        view._lru = self._lru
        view._key_memo = self._key_memo
        return view

    # -- keys ------------------------------------------------------------------

    def key_for(self, goal: Term) -> str:
        key = self._key_memo.get(goal)
        if key is None:
            # The memo stores the raw canonical printing (shareable across
            # namespaced views); the prefix is applied per-lookup.
            key = self._key_memo[goal] = canonical(goal)
        if self.namespace:
            return f"{self.namespace}\x1f{key}"
        return key

    def _path_for(self, key: str) -> str:
        assert self.cache_dir is not None
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.cache_dir, digest[:2], digest + ".json")

    # -- lookup / store --------------------------------------------------------

    def lookup(self, goal: Term, budget: int | None) -> Result | None:
        """Cached result usable under ``budget``, or None.

        ``budget`` is the caller's conflict budget (None = unlimited); the
        entry is rejected unless its recorded cost fits inside it.
        """
        key = self.key_for(goal)
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
            result, cost = entry
            if self._usable(cost, budget):
                self.stats.hits += 1
                return result
            self.stats.budget_rejections += 1
            self.stats.misses += 1
            return None
        entry = self._disk_read(key)
        if entry is not None:
            result, cost = entry
            self._remember(key, result, cost)
            if self._usable(cost, budget):
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return result
            self.stats.budget_rejections += 1
        self.stats.misses += 1
        return None

    def store(self, goal: Term, result: Result, cost: int) -> None:
        """Record a decided result obtained at conflict cost ``cost``.

        ``UNKNOWN`` is *never* cached (see the module docstring); storing
        it is a silent no-op so callers need no special-casing.
        """
        if result is Result.UNKNOWN:
            return
        key = self.key_for(goal)
        previous = self._lru.get(key)
        if previous is None or cost < previous[1]:
            self._remember(key, result, cost)
            self.stats.stores += 1
        else:
            # An equal-or-better entry already exists; keep it, but a
            # re-store is still a use — refresh LRU recency so hot entries
            # don't get evicted just because they never improve.
            self._lru.move_to_end(key)
        if self.cache_dir is not None:
            self._disk_write(key, result, cost)

    @staticmethod
    def _usable(cost: int, budget: int | None) -> bool:
        return budget is None or cost <= budget

    def _remember(self, key: str, result: Result, cost: int) -> None:
        self._lru[key] = (result, cost)
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)

    # -- persistent layer ------------------------------------------------------

    def _disk_read(self, key: str) -> tuple[Result, int] | None:
        if self.cache_dir is None:
            return None
        try:
            with open(self._path_for(key)) as handle:
                payload = json.load(handle)
            result = Result(payload["result"])
            cost = int(payload["cost"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent, torn, or foreign file: a plain miss
        if result is Result.UNKNOWN:
            return None  # defensively ignore unsound hand-written entries
        return result, cost

    def _disk_write(self, key: str, result: Result, cost: int) -> None:
        """Publish an entry atomically and durably (see
        :func:`repro.fsio.atomic_publish`).

        Concurrent shard workers — possibly on several hosts sharing the
        ``cache_dir`` over a network mount — each publish a private temp
        file and an atomic rename, so a reader only ever sees a complete
        entry or none, never a torn one.  Two workers racing the same key
        both publish a whole file and the later rename wins, which is
        sound either way (both hold decided results for the same
        canonical query).  The file and its directory entry are fsynced
        so a published entry survives power loss; temp files are removed
        on any failure so crashes cannot litter the store with ``.tmp``
        orphans that a quota would count.
        """
        path = self._path_for(key)
        existing = self._disk_read(key)
        if existing is not None and existing[1] <= cost:
            return  # the stored entry is at least as reusable
        try:
            atomic_publish(
                path, json.dumps({"result": result.value, "cost": cost})
            )
        except OSError:
            pass  # a read-only or full cache directory degrades to no-op
