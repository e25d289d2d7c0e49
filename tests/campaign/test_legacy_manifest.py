"""Resuming campaign directories written with solver settings that are gone.

``data/parent_halted`` holds a manifest and journal exactly as the previous
release wrote them for a halted campaign (scale 8, seed 7, two shards, two
jobs, the worker SIGKILLed on ``fn_succeeded_0003``; only ``cache_dir`` was
made relative).  The manifest stores the portfolio as a width
(``portfolio: 1``, i.e. off) next to ``session_scope``, ``portfolio_mode`` and
``portfolio_probe``, and the journal's ``done`` events carry QueryStats
fields that no longer exist.  ``expected_report.txt`` is the timing-free
report that release printed after resuming the same directory.

The portfolio escalation was a flag in between and is gone now: a manifest
whose portfolio is missing, ``false`` or the width ``1`` resumes, and
anything else is refused, because the remaining functions would not be
decided as the uninterrupted run decided them.

The manifest's ``strategy`` key (``round_robin`` or ``size_balanced``
sharding) is gone too.  Resume reads the recorded ``shard_lists``, never
the strategy, so the fixture, which still carries the key, resumes.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignError, resume_campaign
from repro.campaign.supervisor import (
    check_solver_settings,
    prepare_campaign,
    prepare_resume,
)
from repro.service.coordinator import ServiceConfig, serve_campaign

DATA = Path(__file__).resolve().parent / "data" / "parent_halted"

#: solver settings a resumed run could not reproduce
REFUSED = [
    ("portfolio", True),
    ("portfolio", 0),
    ("portfolio", 2),
    ("portfolio", 4),
    ("session_scope", "point"),
    ("session_scope", "campaign"),
]


def legacy_copy(tmp_path, **fields) -> str:
    """A writable copy of the fixture campaign, manifest fields overridden."""
    directory = tmp_path / "camp"
    shutil.copytree(
        DATA, directory, ignore=shutil.ignore_patterns("expected_report.txt")
    )
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["cache_dir"] = str(directory / "cache")
    manifest.update(fields)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return str(directory)


class TestParentFormatResume:
    def test_fixture_is_parent_format(self):
        manifest = json.loads((DATA / "manifest.json").read_text())
        assert manifest["portfolio"] == 1
        assert not isinstance(manifest["portfolio"], bool)
        assert manifest["session_scope"] == "function"
        events = [
            json.loads(line)
            for line in (DATA / "journal.jsonl").read_text().splitlines()
        ]
        stats = [
            e["outcome"]["solver_stats"] for e in events if e["event"] == "done"
        ]
        assert stats and all("portfolio_wins_by_config" in s for s in stats)
        assert all(s["session_scope"] == "function" for s in stats)

    def test_default_settings_resume_to_the_parent_report(self, tmp_path):
        report = resume_campaign(legacy_copy(tmp_path))
        assert report.complete
        expected = (DATA / "expected_report.txt").read_text()
        assert report.summary(include_timing=False) + "\n" == expected


class TestRefusedSettings:
    @pytest.mark.parametrize("field, value", REFUSED)
    def test_resume_refuses_and_names_the_field(self, tmp_path, field, value):
        directory = legacy_copy(tmp_path, **{field: value})
        journal = Path(directory) / "journal.jsonl"
        before = journal.read_text()
        with pytest.raises(CampaignError, match=f"field '{field}'"):
            resume_campaign(directory)
        assert journal.read_text() == before  # nothing requeued

    @pytest.mark.parametrize("field, value", REFUSED)
    def test_coordinator_auto_resume_refuses(self, tmp_path, field, value):
        directory = legacy_copy(tmp_path, **{field: value})
        with pytest.raises(CampaignError, match=f"field '{field}'"):
            serve_campaign(directory, service=ServiceConfig(port=0))


class TestShardStrategyKey:
    def test_new_manifest_has_no_strategy_key(self, tmp_path):
        directory = tmp_path / "camp"
        prepare_campaign(str(directory), CampaignConfig(scale=4))
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "strategy" not in manifest


class TestBooleanFlag:
    def test_new_manifest_has_no_portfolio_key(self, tmp_path):
        directory = tmp_path / "camp"
        prepare_campaign(str(directory), CampaignConfig(scale=4))
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "portfolio" not in manifest

    def test_true_is_not_read_as_width_one(self):
        # In Python ``True == 1``; a width of 1 meant "off", the flag
        # ``true`` meant on.
        for manifest in ({}, {"portfolio": False}, {"portfolio": 1}):
            check_solver_settings(manifest)
        with pytest.raises(CampaignError, match="field 'portfolio'"):
            check_solver_settings({"portfolio": True})

    @pytest.mark.parametrize("value", [None, False, 1])
    def test_portfolio_that_was_off_resumes(self, tmp_path, value):
        directory = legacy_copy(tmp_path, portfolio=value)
        if value is None:  # the key is missing
            path = Path(directory) / "manifest.json"
            manifest = json.loads(path.read_text())
            del manifest["portfolio"]
            path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        prepared, _ = prepare_resume(directory)
        assert prepared.directory == directory
