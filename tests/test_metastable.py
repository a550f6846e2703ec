"""Tests for the metastable-failure scenario family
(:mod:`repro.experiments.metastable`) and its CLI plumbing."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.harness import ExperimentHarness
from repro.experiments.metastable import (
    METASTABLE_CAMPAIGNS,
    QUICK,
    metastable,
    metastable_campaign_grid,
    run_metastable_campaign,
)
from repro.experiments.scenario import _admission_name
from repro.experiments.sweep import expand_grid, run_sweep

#: A tiny cell: 6 simulated seconds, the trigger at 1 s for 2 s.
QUICK_CELL = dict(
    seed=3,
    duration_s=6.0,
    load_rps=40.0,
    anomaly_start_s=1.0,
    anomaly_duration_s=2.0,
    score_window_s=2.0,
)


def _quick_cell(**overrides):
    return metastable(**{**QUICK_CELL, **overrides})


def _campaign_specs(campaign, quick=False, **fixed):
    return expand_grid(metastable, metastable_campaign_grid(campaign, quick=quick), **fixed)


# ---------------------------------------------------------------------------
# Cell construction
# ---------------------------------------------------------------------------

class TestCase:
    def test_unknown_admission_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown admission preset"):
            metastable(admission="nope")

    def test_nonpositive_anomaly_duration_rejected(self):
        with pytest.raises(ValueError, match="anomaly_duration_s"):
            metastable(anomaly_duration_s=0.0)

    def test_case_id_carries_the_grid_axes(self):
        spec = metastable(
            admission="shed_only", rate_limit_rps=60.0,
            dispatchers=3, dispatch_variant="p2c", dispatch_staleness_s=0.5,
        )
        assert "admission=shed_only@60rps" in spec.scenario_id
        assert "dispatchers=3:p2c@0.5" in spec.scenario_id

    def test_rate_override_derives_from_preset(self):
        resolved = metastable(admission="shed_only", rate_limit_rps=33.0).admission
        assert resolved.rate_limit_rps == 33.0
        assert "33" in resolved.name
        # Without an override the spec keeps the preset's name.
        assert metastable(admission="shed_only").admission == "shed_only"
        assert metastable().admission == "none"

    def test_spec_expansion_wires_everything(self):
        spec = _quick_cell(admission="survival_kit", dispatchers=2)
        assert spec.dispatchers == 2
        assert spec.admission is not None
        assert spec.campaign is not None
        assert spec.replicas  # replicated fleet for the dispatchers
        assert spec.duration_s == QUICK_CELL["duration_s"]
        assert spec.score_window_s == QUICK_CELL["score_window_s"]

    def test_campaign_is_one_transient_service_wide_burst(self):
        campaign = _quick_cell().campaign
        assert len(campaign.specs) == 1
        injection = campaign.specs[0]
        assert injection.start_s == QUICK_CELL["anomaly_start_s"]
        assert injection.duration_s == QUICK_CELL["anomaly_duration_s"]
        assert injection.scope.value == "service_wide"


# ---------------------------------------------------------------------------
# Campaign grids
# ---------------------------------------------------------------------------

class TestCampaigns:
    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown metastable campaign"):
            metastable_campaign_grid("nope")

    def test_retry_storm_compares_the_three_presets(self):
        specs = _campaign_specs("retry_storm", seed=1)
        assert [_admission_name(spec.admission) for spec in specs] == [
            "none", "naive_retries", "survival_kit",
        ]
        assert all(spec.seed == 1 for spec in specs)

    def test_shed_vs_violate_sweeps_the_rate_limit(self):
        specs = _campaign_specs("shed_vs_violate")
        assert all(spec.admission.name.startswith("shed_only@") for spec in specs)
        rates = [spec.admission.rate_limit_rps for spec in specs]
        assert rates == sorted(rates)
        assert len(set(rates)) == len(rates)

    def test_staleness_grid_crosses_dispatchers_and_staleness(self):
        specs = _campaign_specs("staleness_grid")
        cells = {(spec.dispatchers, spec.dispatch_staleness_s) for spec in specs}
        assert (1, 0.0) in cells  # the omniscient control point
        assert len(cells) == len(specs)
        # Staleness is the only axis: every cell, the control included,
        # routes by the JIQ rule with its own dispatcher count and staleness.
        for spec in specs:
            harness = ExperimentHarness.from_spec(spec)
            service = harness.cluster.services()[0]
            policy = harness.cluster.router.policy_for(service)
            assert policy.name == "join_the_idle_queue"
            assert (policy.dispatchers, policy.staleness_s) == (
                spec.dispatchers,
                spec.dispatch_staleness_s,
            )

    def test_quick_mode_shrinks_durations_and_grids(self):
        full = _campaign_specs("shed_vs_violate")
        quick = _campaign_specs("shed_vs_violate", quick=True, **QUICK)
        assert len(quick) < len(full)
        assert quick[0].duration_s < full[0].duration_s

    def test_overrides_reach_every_case(self):
        specs = _campaign_specs("retry_storm", load_rps=33.0)
        assert all(spec.load_rps == 33.0 for spec in specs)

    def test_admission_grid_is_preset_major(self):
        specs = expand_grid(
            metastable, {"admission": ("none", "survival_kit"), "seed": (0, 1)}, load_rps=25.0
        )
        assert [(_admission_name(s.admission), s.seed) for s in specs] == [
            ("none", 0), ("none", 1), ("survival_kit", 0), ("survival_kit", 1),
        ]
        with pytest.raises(ValueError, match="unknown admission preset"):
            expand_grid(metastable, {"admission": ("nope",)})


# ---------------------------------------------------------------------------
# Scored execution
# ---------------------------------------------------------------------------

class TestExecution:
    def test_outcome_row_shape_and_determinism(self):
        spec = _quick_cell(admission="survival_kit")
        first, second = run_sweep([spec, spec])
        row = first.as_dict()
        assert row["scenario_id"] == spec.scenario_id
        assert row["windows_scored"] >= 1
        assert 0.0 <= row["precision"] <= 1.0
        assert 0.0 <= row["recall"] <= 1.0
        assert row["amplification"] >= 1.0
        assert row["admission_stats"]["policy"] == "survival_kit"
        assert row == second.as_dict()

    def test_post_trigger_violation_bounded_by_total(self):
        (outcome,) = run_sweep([_quick_cell(admission="naive_retries")])
        assert 0.0 <= outcome.post_trigger_violation_s
        assert outcome.post_trigger_violation_s <= outcome.slo_violation_seconds

    def test_naive_retries_amplify(self):
        (outcome,) = run_sweep([_quick_cell(admission="naive_retries")])
        assert outcome.amplification > 1.0
        assert outcome.admission_stats["retries"] > 0

    def test_no_admission_case_reports_no_stats(self):
        (outcome,) = run_sweep([_quick_cell(admission="none")])
        assert outcome.admission_stats is None
        assert outcome.amplification == 1.0

    def test_windows_align_with_the_score_window(self):
        (outcome,) = run_sweep([_quick_cell()])
        assert outcome.windows
        for window in outcome.windows:
            assert window.end_s - window.start_s == pytest.approx(QUICK_CELL["score_window_s"])

    def test_parallel_sweep_matches_serial(self):
        specs = expand_grid(
            metastable, {"admission": ("none", "naive_retries")}, **QUICK_CELL
        )
        serial = [o.as_dict() for o in run_sweep(specs, workers=1)]
        parallel = [o.as_dict() for o in run_sweep(specs, workers=2)]
        assert serial == parallel

    def test_campaign_scoreboard_carries_verdict(self):
        board = run_metastable_campaign(
            "retry_storm", seed=3, quick=True,
            duration_s=6.0, load_rps=40.0,
            anomaly_start_s=1.0, anomaly_duration_s=2.0, score_window_s=2.0,
        )
        assert board["campaign"] == "retry_storm"
        assert len(board["cases"]) == 3
        assert [row["admission"] for row in board["cases"]] == [
            "none", "naive_retries", "survival_kit",
        ]
        verdict = board["verdict"]
        assert verdict["axis"] == "admission"
        assert set(verdict["violation_seconds"]) == {
            "none", "naive_retries", "survival_kit",
        }
        assert "kit_damps_storm" in verdict

    def test_all_campaigns_are_expandable(self):
        for campaign in METASTABLE_CAMPAIGNS:
            assert _campaign_specs(campaign, quick=True)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_metastable_campaign_mode(self, capsys):
        code = main([
            "run", "metastable_campaign", "--set", "campaign=retry_storm",
            "--set", "quick=True", "--set", "duration_s=6", "--set", "load_rps=40",
            "--set", "seed=3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "retry_storm"
        assert len(payload["cases"]) == 3

    def test_run_metastable_single_case_with_run_record(self, tmp_path, capsys):
        record_dir = tmp_path / "record"
        code = main([
            "run", "metastable", "--set", "admission=naive_retries",
            "--set", "duration_s=6", "--set", "load_rps=40",
            "--set", "anomaly_start_s=2.5", "--set", "anomaly_duration_s=5",
            "--obs-dir", str(record_dir),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admission"] == "naive_retries"
        assert payload["observability"]["by_kind"].get("retry", 0) > 0
        assert (record_dir / "journal.jsonl").exists()
        assert (record_dir / "metrics.json").exists()

    def test_run_metastable_unknown_campaign_exits_cleanly(self, capsys):
        assert main(["run", "metastable_campaign", "--set", "campaign=nope"]) == 2
        assert "unknown metastable campaign" in capsys.readouterr().err

    def test_sweep_admission_grid(self, capsys):
        code = main([
            "sweep", "metastable", "--grid", "admission=none,shed_only",
            "--set", "seed=3", "--set", "load_rps=40", "--set", "duration_s=6",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["admission"] for row in rows] == ["none", "shed_only"]
        assert all("slo_violation_seconds" in row for row in rows)
        assert all("precision" in row for row in rows)

    def test_sweep_admission_unknown_preset_exits_cleanly(self, capsys):
        assert main(["sweep", "metastable", "--grid", "admission=nope"]) == 2
        assert "unknown admission preset" in capsys.readouterr().err
