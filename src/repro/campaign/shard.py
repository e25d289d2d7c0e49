"""Deterministic corpus sharding (the campaign's partitioning layer).

A shard is the unit of checkpointing, reporting, and (in a multi-host
deployment) placement.  Groups are assigned by longest-processing-time
greedy on their weights (descending weight, first-occurrence tie-break,
lightest shard wins, lowest index on ties), a deterministic function of
the input list alone that keeps shard wall-clock roughly even when the
corpus mixes tiny straight-line functions with diamond-heavy timeout
candidates.

Sharding is *dedup-class-aware*: callers tag each item with its
identical-body group (see :mod:`repro.tv.dedup`) and every member of a
group is assigned to the same shard, so a class representative and the
duplicates replayed from its outcome never straddle a shard boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardItem:
    """One shardable unit of work."""

    name: str
    #: relative cost estimate (e.g. instruction count); 1 = uniform.
    weight: int = 1
    #: dedup-class key — items sharing a group land on the same shard.
    #: ``None`` means the item is its own singleton group.
    group: str | None = None


@dataclass
class ShardPlan:
    """The partition: per-shard name lists plus the full assignment map."""

    #: function names per shard, in input order within each shard.
    shards: list[list[str]] = field(default_factory=list)
    #: every input name -> its shard index.
    assignment: dict[str, int] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, name: str) -> int:
        return self.assignment[name]


def _grouped(items: list[ShardItem]) -> list[tuple[str, list[ShardItem], int]]:
    """Collapse items into (group key, members, total weight) triples in
    first-occurrence order."""
    order: list[str] = []
    members: dict[str, list[ShardItem]] = {}
    for item in items:
        key = item.group if item.group is not None else item.name
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(item)
    return [
        (key, members[key], sum(m.weight for m in members[key]))
        for key in order
    ]


def plan_shards(items: list[ShardItem], n_shards: int) -> ShardPlan:
    """Partition ``items`` into ``n_shards`` deterministic shards."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    seen: set[str] = set()
    for item in items:
        if item.name in seen:
            raise ValueError(f"duplicate item name {item.name!r}")
        seen.add(item.name)
    n_shards = max(1, min(n_shards, len(items) or 1))
    groups = _grouped(items)
    plan = ShardPlan(shards=[[] for _ in range(n_shards)])
    #: group index -> shard index (LPT greedy on group weights).
    placement: dict[int, int] = {}
    loads = [0] * n_shards
    by_weight = sorted(range(len(groups)), key=lambda i: (-groups[i][2], i))
    for index in by_weight:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        placement[index] = target
        loads[target] += groups[index][2]
    # Emit names in input order within each shard.
    for index, (_, members, _) in enumerate(groups):
        shard = placement[index]
        for member in members:
            plan.shards[shard].append(member.name)
            plan.assignment[member.name] = shard
    return plan
