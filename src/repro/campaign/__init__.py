"""Durable validation campaigns (the paper's Section 5 at operational scale).

The one-shot :func:`repro.tv.batch.run_corpus` loses all progress on a
crash and cannot span more than one process pool.  This package turns the
batch into a *campaign*:

- :mod:`repro.campaign.shard` — deterministic corpus partitioning
  (size-balanced), dedup-class-aware so identical-body classes stay
  intact on one shard;
- :mod:`repro.campaign.journal` — an append-only JSONL checkpoint of
  per-function outcomes (atomic line appends, torn tails tolerated), plus
  the campaign manifest, so ``resume`` skips completed work and re-queues
  in-flight functions after a crash;
- :mod:`repro.campaign.schedule` — the failure handling policy both
  campaign drivers share: shard round-robin, re-queue with exponential
  backoff after a worker death, poison-pill quarantine at ``max_kills``,
  resume's orphan rule, and the journal event shape;
- :mod:`repro.campaign.supervisor` — plans campaigns and drives the shards
  over a pool of worker processes with per-function wall-clock budgets,
  failures classified into the paper's taxonomy (``timeout`` / ``oom`` /
  ``inadequate_sync`` / ``crash``);
- :mod:`repro.campaign.merge` — folds shard results into one
  deterministic campaign report (byte-identical regardless of shard
  completion order).

The persistent solver query cache (:mod:`repro.smt.cache`) is the shared
layer across shards: every worker of every shard reads and writes the same
``cache_dir`` through atomic renames.
"""

from repro.campaign.shard import ShardItem, ShardPlan, plan_shards
from repro.campaign.journal import (
    Journal,
    JournalState,
    load_manifest,
    load_state,
    outcome_from_json,
    outcome_to_json,
    read_events,
    write_manifest,
)
from repro.campaign.merge import CampaignReport, merge_campaign
from repro.campaign.schedule import Job
from repro.campaign.supervisor import (
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    PreparedCampaign,
    campaign_status,
    prepare_campaign,
    prepare_resume,
    resume_campaign,
    run_campaign,
)

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignReport",
    "Job",
    "Journal",
    "JournalState",
    "PreparedCampaign",
    "ShardItem",
    "ShardPlan",
    "campaign_status",
    "prepare_campaign",
    "prepare_resume",
    "load_manifest",
    "load_state",
    "merge_campaign",
    "outcome_from_json",
    "outcome_to_json",
    "plan_shards",
    "read_events",
    "resume_campaign",
    "run_campaign",
    "write_manifest",
]
