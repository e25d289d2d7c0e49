"""Supervisor behaviors not covered by the recovery suite: dedup-aware
sharding, custom corpora, and status errors."""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignError,
    campaign_status,
    load_manifest,
    resume_campaign,
    run_campaign,
)
from repro.workloads import FunctionShape
from repro.workloads.corpus import CorpusSpec, FunctionSpec

SMALL = FunctionShape(straight_segments=1, ops_per_segment=3)


def clone_corpus():
    return CorpusSpec(
        functions=[
            FunctionSpec("alpha_one", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("beta_solo", SMALL, seed=9, expect="succeeded"),
            FunctionSpec("alpha_two", SMALL, seed=7, expect="succeeded"),
            FunctionSpec("alpha_three", SMALL, seed=7, expect="succeeded"),
        ]
    )


class TestDedupAwareCampaign:
    def test_equivalence_class_stays_on_one_shard(self, tmp_path):
        directory = str(tmp_path / "camp")
        report = run_campaign(
            directory,
            CampaignConfig(shards=2, jobs=2, wall_budget=30.0),
            corpus=clone_corpus(),
        )
        manifest = load_manifest(directory)
        assert manifest["replay"] == {
            "alpha_two": "alpha_one",
            "alpha_three": "alpha_one",
        }
        shard_of = {
            name: index
            for index, shard in enumerate(manifest["shard_lists"])
            for name in shard
        }
        assert (
            shard_of["alpha_one"]
            == shard_of["alpha_two"]
            == shard_of["alpha_three"]
        )
        assert report.complete
        by_name = {o.function: o for o in report.batch.outcomes}
        assert by_name["alpha_two"].deduped
        assert by_name["alpha_two"].dedup_of == "alpha_one"
        assert not by_name["alpha_one"].deduped
        assert report.batch.deduped_functions == 2
        # Replays show up in the shard accounting, not as validated work.
        replayed = sum(s.replayed for s in report.shards)
        assert replayed == 2

    def test_dedup_off_runs_every_function(self, tmp_path):
        directory = str(tmp_path / "camp")
        report = run_campaign(
            directory,
            CampaignConfig(shards=2, jobs=2, wall_budget=30.0, dedup=False),
            corpus=clone_corpus(),
        )
        manifest = load_manifest(directory)
        assert manifest["replay"] == {}
        assert report.complete
        assert all(not o.deduped for o in report.batch.outcomes)


class TestCustomCorpus:
    def test_resume_requires_the_corpus_again(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(
            directory,
            CampaignConfig(shards=1, jobs=1, wall_budget=30.0),
            corpus=clone_corpus(),
        )
        with pytest.raises(CampaignError, match="custom corpus"):
            resume_campaign(directory)
        # With the corpus supplied, resume of a finished campaign is a
        # no-op merge.
        report = resume_campaign(directory, corpus=clone_corpus())
        assert report.complete

    def test_status_needs_no_corpus(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(
            directory,
            CampaignConfig(shards=1, jobs=1, wall_budget=30.0),
            corpus=clone_corpus(),
        )
        status = campaign_status(directory)
        assert status.complete
        assert status.replay_ready == 2


class TestStatusErrors:
    def test_status_without_manifest_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="manifest"):
            campaign_status(str(tmp_path / "void"))


class TestTargetManifestRoundTrip:
    """``--target`` must survive halt/resume through the manifest, and a
    resume under a *different* target must refuse rather than silently
    mix per-ISA results in one campaign directory."""

    def _run(self, directory, target=None):
        config = (
            CampaignConfig(shards=1, jobs=1, wall_budget=30.0, target=target)
            if target
            else CampaignConfig(shards=1, jobs=1, wall_budget=30.0)
        )
        return run_campaign(directory, config, corpus=clone_corpus())

    def test_target_persisted_in_manifest(self, tmp_path):
        directory = str(tmp_path / "camp")
        report = self._run(directory, target="vriscv")
        assert report.complete
        assert load_manifest(directory)["target"] == "vriscv"
        assert "target: vriscv" in report.summary()

    def test_default_target_is_vx86(self, tmp_path):
        directory = str(tmp_path / "camp")
        self._run(directory)
        assert load_manifest(directory)["target"] == "vx86"

    def test_resume_refuses_target_mismatch(self, tmp_path):
        directory = str(tmp_path / "camp")
        self._run(directory, target="vriscv")
        with pytest.raises(CampaignError, match="refusing to resume"):
            resume_campaign(
                directory, corpus=clone_corpus(), target="vx86"
            )

    def test_resume_accepts_matching_or_unspecified_target(self, tmp_path):
        directory = str(tmp_path / "camp")
        self._run(directory, target="vriscv")
        assert resume_campaign(
            directory, corpus=clone_corpus(), target="vriscv"
        ).complete
        assert resume_campaign(directory, corpus=clone_corpus()).complete

    def test_legacy_manifest_without_target_resumes_as_vx86(self, tmp_path):
        directory = str(tmp_path / "camp")
        self._run(directory)
        import json
        import os

        path = os.path.join(directory, "manifest.json")
        with open(path) as handle:
            manifest = json.load(handle)
        del manifest["target"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CampaignError, match="refusing to resume"):
            resume_campaign(directory, corpus=clone_corpus(), target="vriscv")
        assert resume_campaign(
            directory, corpus=clone_corpus(), target="vx86"
        ).complete
