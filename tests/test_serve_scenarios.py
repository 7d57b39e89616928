"""The scripted churn replays: every preset passes at several seeds,
reports are well-formed, and the live-vs-offline oracle comparison is
exact."""

import json

import pytest

from repro.errors import ServiceError
from repro.serve import SERVE_SCENARIOS, ChurnEvent, run_replay


class TestPresets:
    @pytest.mark.parametrize("name", sorted(SERVE_SCENARIOS))
    def test_passes_at_seed_zero(self, name):
        report = run_replay(name, seed=0)
        assert report.passed, report.notes
        assert report.matches_offline

    @pytest.mark.parametrize("seed", [1, 7])
    def test_churn_basic_passes_other_seeds(self, seed):
        report = run_replay("churn-basic", seed=seed)
        assert report.passed, report.notes

    def test_reports_are_deterministic(self):
        first = run_replay("churn-basic", seed=3)
        second = run_replay("churn-basic", seed=3)
        assert first.to_dict() == second.to_dict()

    def test_burst_coalesces(self):
        report = run_replay("churn-burst", seed=0)
        assert report.passed
        # One search for the initial join, one for the 3-join burst.
        assert report.reoptimizations == 2

    def test_stale_quarantines_then_recovers(self):
        report = run_replay("churn-stale", seed=0)
        assert report.passed
        # Everyone reactivated by the end: the quarantine list is empty
        # again and all three apps are in the final allocation.
        assert report.quarantined == ()
        assert sorted(report.final_allocation) == [
            "alpha",
            "beta",
            "gamma",
        ]
        assert report.degraded_reoptimizations >= 1

    def test_cache_reused_across_rejoin(self):
        report = run_replay("churn-cache", seed=0)
        assert report.passed
        assert report.cache_hits > 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(ServiceError):
            run_replay("churn-nonexistent")


class TestDeltaMode:
    @pytest.mark.parametrize("name", sorted(SERVE_SCENARIOS))
    def test_every_preset_passes_the_oracle_in_delta_mode(self, name):
        report = run_replay(name, seed=0, mode="delta")
        assert report.passed, report.notes
        assert report.matches_offline
        assert report.mode == "delta"
        assert report.delta_reoptimizations > 0

    def test_full_mode_report_shows_no_delta_work(self):
        report = run_replay("churn-basic", seed=0)
        assert report.mode == "full"
        assert report.delta_reoptimizations == 0
        assert report.delta_fallbacks == 0

    def test_delta_and_full_agree_on_the_final_answer(self):
        full = run_replay("churn-basic", seed=0)
        delta = run_replay("churn-basic", seed=0, mode="delta")
        assert delta.final_score == full.final_score
        assert delta.final_allocation == full.final_allocation

    def test_warm_starts_dominate_after_the_cold_start(self):
        report = run_replay("churn-basic", seed=0, mode="delta")
        # Only the first event (and any degraded restart) lacks a
        # previous answer to repair.
        assert report.delta_fallbacks < report.delta_reoptimizations


class TestReportShape:
    def test_json_round_trips(self):
        report = run_replay("churn-basic", seed=0)
        data = json.loads(report.to_json())
        assert data["scenario"] == "churn-basic"
        assert data["passed"] is True
        assert data["final_score"] == data["offline_score"]
        assert data["mode"] == "full"
        assert data["delta_reoptimizations"] == 0

    def test_format_mentions_the_verdict(self):
        report = run_replay("churn-basic", seed=0)
        text = report.format()
        assert "churn-basic" in text
        assert "PASS" in text

    def test_format_mentions_the_delta_path(self):
        report = run_replay("churn-basic", seed=0, mode="delta")
        text = report.format()
        assert "mode delta" in text
        assert "delta path" in text


class TestChurnEvent:
    def test_join_requires_app(self):
        with pytest.raises(ServiceError):
            ChurnEvent(0.1, "join", "x")

    def test_unknown_action_rejected(self):
        with pytest.raises(ServiceError):
            ChurnEvent(0.1, "explode", "x")


class TestCrashRestart:
    def test_crash_restart_recovers_and_matches(self):
        report = run_replay("serve-crash-restart", seed=0)
        assert report.passed, report.notes
        assert report.recoveries == 1
        assert report.journal_records > 0
        assert report.matches_offline

    def test_crash_restart_passes_in_delta_mode(self):
        report = run_replay("serve-crash-restart", seed=0, mode="delta")
        assert report.passed, report.notes
        assert report.recoveries == 1
        assert report.matches_offline

    def test_journal_directory_is_honoured(self, tmp_path):
        import os

        report = run_replay(
            "serve-crash-restart", seed=0, journal=str(tmp_path)
        )
        assert report.passed
        names = os.listdir(tmp_path)
        assert any(n.startswith("journal-") for n in names)
        assert any(n.startswith("snapshot-") for n in names)

    def test_temporary_journals_are_removed(self, tmp_path, monkeypatch):
        import os
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for name in ("serve-crash-restart", "serve-restart"):
            assert run_replay(name, seed=0).passed
        assert os.listdir(tmp_path) == []

    def test_journaled_run_reports_the_journal(self, tmp_path):
        plain = run_replay("churn-basic", seed=0)
        journaled = run_replay(
            "churn-basic", seed=0, journal=str(tmp_path)
        )
        assert plain.journal_records == 0
        assert journaled.journal_records > 0
        # Identical behaviour: journaling is a pure observer.
        assert journaled.final_allocation == plain.final_allocation
        assert journaled.final_score == plain.final_score


class TestParallelWorkers:
    """Replays routed through the process pool (``workers=N``)."""

    def test_crash_restart_pool_lifecycle(self):
        from repro.core.parallel import pool_stats, shutdown_pools

        try:
            report = run_replay("serve-crash-restart", seed=0, workers=2)
            assert report.passed, report.notes
            assert report.matches_offline
            # The scenario's own checks cover spawn -> released-at-crash
            # -> respawned-after-recovery; the respawned pool is still
            # live here because the replay never drains the service.
            stats = pool_stats().get(2)
            assert stats is not None and stats["alive"]
        finally:
            shutdown_pools()

    def test_parallel_replay_identical_to_serial(self):
        from repro.core.parallel import shutdown_pools

        try:
            serial = run_replay("churn-basic", seed=0)
            pooled = run_replay("churn-basic", seed=0, workers=2)
            assert pooled.passed, pooled.notes
            assert pooled.final_allocation == serial.final_allocation
            assert pooled.final_score == serial.final_score
            assert pooled.offline_score == serial.offline_score
        finally:
            shutdown_pools()


class TestServeCrashSeeds:
    """``--seed`` picks a different fault sequence, never a drill in
    which no command is dropped."""

    @pytest.mark.parametrize("seed", range(40))
    def test_every_seed_drops_and_retransmits(self, seed):
        import re

        report = run_replay("serve-crash", seed=seed)
        counts = re.search(
            r"(\d+) allocation command\(s\) dropped on the wire, "
            r"(\d+) retransmit\(s\)",
            " ".join(report.notes),
        )
        assert report.passed, report.format()
        assert int(counts.group(1)) >= 1
        assert int(counts.group(2)) >= 1
