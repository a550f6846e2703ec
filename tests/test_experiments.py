"""Smoke tests for the experiment modules (scaled-down versions of each figure).

The full-scale regenerations live under ``benchmarks/``; these tests run
miniature versions so that CI catches interface breakage quickly.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig3_cp_distributions import run_fig3_for_application
from repro.experiments.fig5_scale_tradeoff import _run_point
from repro.experiments.fig9_localization import auc, roc_curve, run_fig9c
from repro.experiments.fig10_end_to_end import run_fig10
from repro.experiments.fig11_rl_training import train_variant
from repro.experiments.harness import ExperimentHarness
from repro.experiments.table1_cp_changes import run_table1_case
from repro.experiments.table6_operation_latency import run_table6, table6_rows
from repro.experiments.summary import HeadlineNumbers


class TestHarness:
    def test_build_and_run_without_controller(self):
        harness = ExperimentHarness.build("hotel_reservation", seed=1)
        harness.attach_workload(load_rps=30.0)
        result = harness.run(duration_s=20.0)
        assert result.slo.completed > 0
        assert result.latency.p99 > 0
        assert result.controller == "none"

    def test_run_with_warmup_excludes_early_traces(self):
        harness = ExperimentHarness.build("hotel_reservation", seed=1)
        harness.attach_workload(load_rps=30.0)
        result = harness.run(duration_s=20.0, warmup_s=10.0)
        full = ExperimentHarness.build("hotel_reservation", seed=1)
        full.attach_workload(load_rps=30.0)
        full_result = full.run(duration_s=20.0)
        assert result.slo.completed < full_result.slo.completed

    def test_requested_cpu_sampled(self):
        harness = ExperimentHarness.build("hotel_reservation", seed=1)
        harness.attach_workload(load_rps=20.0)
        result = harness.run(duration_s=15.0)
        assert result.mean_requested_cpu > 0
        assert 0.0 <= result.mean_cluster_cpu_utilization <= 1.0


class TestFigureModules:
    def test_table6_matches_paper(self):
        results = run_table6(samples=500)
        rows = table6_rows(results)
        assert len(rows) == 7
        assert all(measurement.mean_error < 0.2 for measurement in results.values())

    def test_table1_single_case(self):
        row = run_table1_case("T", duration_s=25.0, load_rps=30.0, intensity=0.9)
        assert row.total_latency_ms > 0
        assert row.per_service_latency_ms["T"] >= 0

    def test_fig3_single_application(self):
        dist = run_fig3_for_application("hotel_reservation", duration_s=30.0, load_rps=40.0)
        assert dist.min_cp.count > 0
        assert dist.median_ratio >= 1.0

    def test_fig5_single_point(self):
        point = _run_point(
            "social_network", "cpu", 40.0, "scale_out",
            duration_s=20.0, intensity=0.7, seed=1,
        )
        assert point.latency.count > 0

    def test_fig9c_timeline_shape(self):
        timeline = run_fig9c(windows=4, window_s=5.0)
        assert len(timeline) >= 4

    def test_roc_helpers(self):
        fpr, tpr = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(fpr, tpr) == pytest.approx(1.0)
        fpr_bad, tpr_bad = roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc(fpr_bad, tpr_bad) == pytest.approx(0.0)

    def test_roc_empty_scores(self):
        fpr, tpr = roc_curve([], [])
        assert auc(fpr, tpr) >= 0.0

    def test_fig10_minimal(self):
        result = run_fig10(
            application="hotel_reservation",
            duration_s=25.0,
            load_rps=30.0,
            include_multi_rl=False,
            controllers=("k8s", "firm_single"),
        )
        assert set(result.results) == {"k8s", "firm_single"}
        assert all(res.slo.completed > 0 for res in result.results.values())
        cdfs = result.latency_cdfs(points=10)
        assert set(cdfs) == {"k8s", "firm_single"}

    def test_fig11_single_episode_training(self):
        curve = train_variant(
            "one_for_all", episodes=1, application="hotel_reservation",
            load_rps=25.0, episode_duration_s=15.0,
        )
        assert len(curve.episodes) == 1
        assert curve.episodes[0].mitigation_time_s >= 0.0

    def test_headline_comparison_rows(self):
        headline = HeadlineNumbers(
            slo_violation_factor_vs_k8s=10.0,
            slo_violation_factor_vs_aimd=5.0,
            p99_factor_vs_k8s=8.0,
            requested_cpu_reduction_vs_k8s=0.4,
            localization_accuracy=0.9,
            mitigation_speedup_vs_aimd=3.0,
            mitigation_speedup_vs_k8s=6.0,
        )
        rows = headline.comparison_rows()
        assert len(rows) == 7
        assert all({"metric", "paper", "measured"} <= set(row) for row in rows)
