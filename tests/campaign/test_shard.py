"""Sharding: determinism, balance, and dedup-class cohesion."""

import pytest

from repro.campaign import ShardItem, plan_shards


def items(*names, weights=None, groups=None):
    weights = weights or [1] * len(names)
    groups = groups or [None] * len(names)
    return [
        ShardItem(name=n, weight=w, group=g)
        for n, w, g in zip(names, weights, groups)
    ]


class TestSizeBalanced:
    def test_heavy_item_isolated(self):
        plan = plan_shards(
            items("big", "s1", "s2", "s3", weights=[10, 1, 1, 1]), 2
        )
        # LPT: the weight-10 item fills one shard, the three light ones
        # balance onto the other.
        big_shard = plan.shard_of("big")
        assert all(
            plan.shard_of(n) != big_shard for n in ("s1", "s2", "s3")
        )

    def test_deterministic(self):
        batch = items("a", "b", "c", "d", "e", weights=[3, 1, 4, 1, 5])
        first = plan_shards(batch, 3)
        second = plan_shards(batch, 3)
        assert first.shards == second.shards
        assert first.assignment == second.assignment


class TestGroupCohesion:
    def test_group_members_share_a_shard(self):
        plan = plan_shards(
            items(
                "rep", "x", "dup1", "y", "dup2",
                groups=["g", None, "g", None, "g"],
            ),
            2,
        )
        assert (
            plan.shard_of("rep")
            == plan.shard_of("dup1")
            == plan.shard_of("dup2")
        )

    def test_group_weight_is_summed_for_balancing(self):
        plan = plan_shards(
            items(
                "a", "b", "c", "d",
                weights=[3, 3, 3, 9],
                groups=["g", "g", "g", None],
            ),
            2,
        )
        # The group (weight 9) and the single weight-9 item each take a
        # shard of their own.
        assert plan.shard_of("a") != plan.shard_of("d")
        assert plan.shard_of("a") == plan.shard_of("b") == plan.shard_of("c")


class TestValidation:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_shards(items("a", "a"), 1)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(items("a"), 0)

    def test_clamps_shards_to_item_count(self):
        plan = plan_shards(items("a", "b"), 5)
        assert plan.n_shards == 2
        assert all(shard for shard in plan.shards)
