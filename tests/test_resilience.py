"""Tests for the resilience cell builder and its scored sweep."""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.cli import main
from repro.experiments.resilience import (
    CAMPAIGN_KINDS,
    build_resilience_campaign,
    resilience,
)
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder, run_scenario
from repro.experiments.sweep import expand_grid, run_sweep, score_spec

#: Deliberately tiny settings so each cell simulates in well under a second
#: of wall time; determinism, shapes, and scoring do not need scale.
FAST = dict(
    application="hotel_reservation",
    load_rps=15.0,
    duration_s=14.0,
    score_window_s=4.0,
    campaign_windows=2,
)


def _campaign_key(campaign):
    return [(s.anomaly_type, s.target_service, s.start_s, s.intensity) for s in campaign.specs]


class TestCase:
    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError):
            resilience(campaign="nope")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            resilience(scope="galaxy")

    def test_case_id_mentions_all_axes(self):
        spec = resilience(controller="aimd", campaign="random", seed=3, duration_s=20.0)
        assert "aimd" in spec.scenario_id
        assert "seed=3" in spec.scenario_id
        assert "load=60" in spec.scenario_id
        # A cell's identity is its spec's scenario_id; the campaign kind
        # is a grid coordinate that `sweep` rows carry.

    def test_case_id_distinguishes_loads(self):
        a = resilience(load_rps=40.0)
        b = resilience(load_rps=80.0)
        assert a.scenario_id != b.scenario_id

    def test_campaigns_deterministic_per_seed(self):
        for kind in CAMPAIGN_KINDS:
            a = build_resilience_campaign("social_network", kind, 5, 10.0, duration_s=30.0)
            b = build_resilience_campaign("social_network", kind, 5, 10.0, duration_s=30.0)
            assert _campaign_key(a) == _campaign_key(b)
            assert _campaign_key(resilience(campaign=kind, seed=5, duration_s=30.0).campaign) == (
                _campaign_key(a)
            )

    def test_campaign_scope_applied(self):
        campaign = resilience(campaign="multi_anomaly", scope="service_wide").campaign
        assert campaign.specs
        assert all(spec.scope.value == "service_wide" for spec in campaign.specs)

    def test_multi_tenant_campaign_targets_victim_namespace(self):
        spec = resilience(campaign="random", multi_tenant=True, duration_s=30.0)
        campaign = spec.tenants[0].campaign
        assert campaign.specs
        assert all(s.target_service.startswith("victim/") for s in campaign.specs)

    def test_scenario_spec_multi_tenant_shape(self):
        spec = resilience(campaign="random", multi_tenant=True, duration_s=20.0)
        assert [tenant.name for tenant in spec.tenants] == ["victim", "neighbor"]
        assert spec.tenants[0].campaign is not None
        assert spec.tenants[1].campaign is None
        assert spec.cluster_nodes == (2, 0)

    def test_duration_derives_from_campaign_schedule(self):
        spec = resilience(campaign="single_sweep", score_window_s=4.0)
        assert spec.duration_s == spec.campaign.end_time() + 4.0


class TestGrid:
    def test_grid_cross_product_order(self):
        specs = expand_grid(
            resilience,
            {
                "campaign": ("single_sweep", "random"),
                "controller": ("none", "aimd"),
                "seed": (0, 1),
            },
            application="hotel_reservation",
            duration_s=20.0,
        )
        assert len(specs) == 8
        # First axis outermost: campaign, then controller, then seed.
        assert len({_campaign_key(s.campaign)[0] for s in specs[:4]}) == 1
        assert [s.controller for s in specs[:2]] == ["none", "none"]
        assert [s.seed for s in specs[:2]] == [0, 1]

    def test_grid_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown controller"):
            expand_grid(resilience, {"controller": ("warp-drive",)})

    def test_grid_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="accepted: application"):
            expand_grid(resilience, {"window_s": (4.0,)})

    def test_grid_overrides_apply_to_every_case(self):
        specs = expand_grid(
            resilience,
            {"controller": ("none", "aimd")},
            campaign="random",
            duration_s=9.0,
            scope="tenant",
            multi_tenant=True,
        )
        assert all(spec.duration_s == 9.0 for spec in specs)
        assert all(
            s.scope.value == "tenant" for spec in specs for s in spec.tenants[0].campaign.specs
        )

    def test_grid_axes_win_over_fixed_values(self):
        specs = expand_grid(resilience, {"seed": (4,)}, seed=1, duration_s=9.0)
        assert specs[0].seed == 4


class TestRun:
    def test_single_tenant_outcome_shape(self):
        (outcome,) = run_sweep([resilience(campaign="multi_anomaly", **FAST)])
        assert outcome.windows, "expected at least one scored window"
        assert 0.0 <= outcome.precision <= 1.0
        assert 0.0 <= outcome.recall <= 1.0
        assert outcome.summary["completed"] > 0
        assert outcome.slo_violation_seconds >= 0.0
        row = outcome.as_dict()
        assert row["windows_scored"] == len(outcome.windows)
        json.dumps(row)  # JSON-serializable end to end

    def test_window_bounds_follow_analysis_grid(self):
        spec = resilience(campaign="multi_anomaly", **FAST)
        (outcome,) = run_sweep([spec])
        for window in outcome.windows:
            assert window.end_s - window.start_s == pytest.approx(spec.score_window_s)
            assert window.end_s <= 14.0 + 1e-9

    def test_multi_tenant_scores_victim(self):
        spec = resilience(
            campaign="random",
            multi_tenant=True,
            scope="tenant",
            application="hotel_reservation",
            load_rps=10.0,
            neighbor_load_rps=40.0,
            duration_s=14.0,
            score_window_s=4.0,
        )
        (outcome,) = run_sweep([spec])
        assert outcome.tenant_summaries["victim"]["completed"] > 0
        assert outcome.tenant_summaries["neighbor"]["completed"] > 0
        # Ground truth only ever names the victim's services.
        for window in outcome.windows:
            assert all(service.startswith("victim/") for service in window.truth)

    def test_preset_runner_applies_overrides(self, capsys):
        assert main([
            "run", "resilience", "--set", "duration_s=14", "--set", "load_rps=15",
            "--set", "score_window_s=4", "--set", "campaign_windows=2",
            "--set", "application=hotel_reservation",
        ]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["duration_s"] == 14.0
        assert row["controller"] == "none"  # the builder's default
        assert row["windows_scored"] > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "resilience_nope"])

    def test_unscored_spec_has_no_windows(self):
        spec = resilience(campaign="multi_anomaly", **FAST).with_overrides(score_window_s=None)
        (outcome,) = run_sweep([spec])
        assert outcome.windows == []
        assert "precision" not in outcome.as_dict()
        assert outcome.slo_violation_seconds >= 0.0


class TestScoringIsObservationOnly:
    def test_scorer_does_not_change_the_run(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            controller="firm",
            seed=2,
            duration_s=12.0,
            load_rps=20.0,
            campaign_builder=partial(
                random_campaign_builder, duration_s=12.0, rate_per_s=0.5, resource_only=True
            ),
        )
        plain = run_scenario(spec)
        outcome, scored, _ = score_spec(spec.with_overrides(score_window_s=3.0))
        assert outcome.windows, "the scorer must actually have run"
        assert scored.summary() == plain.summary()
        assert scored.per_tenant_summary() == plain.per_tenant_summary()
        assert scored.telemetry_digest.as_dict() == plain.telemetry_digest.as_dict()


class TestSweepDeterminism:
    def test_serial_equals_parallel_bit_identical(self):
        specs = expand_grid(
            resilience,
            {"campaign": ("single_sweep", "random")},
            controller="none",
            seed=0,
            **FAST,
        )
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        serial_rows = [json.dumps(outcome.as_dict(), sort_keys=True) for outcome in serial]
        parallel_rows = [json.dumps(outcome.as_dict(), sort_keys=True) for outcome in parallel]
        assert serial_rows == parallel_rows

    def test_progress_called_in_input_order(self):
        specs = expand_grid(resilience, {"seed": (0, 1)}, campaign="random", **FAST)
        seen = []
        run_sweep(specs, workers=1, progress=lambda done, total, outcome: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]
