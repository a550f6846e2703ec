"""Tests for the repro.perf subsystem (harness, compare mode, CLI)."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    MACRO_BENCHMARKS,
    BenchmarkResult,
    PerfReport,
    compare_reports,
    load_report,
    run_perf,
    save_report,
)
from repro.perf.scenarios import calibration_score


def _result(name: str, normalized: float) -> BenchmarkResult:
    return BenchmarkResult(
        name=name,
        description="synthetic",
        quick=True,
        sim_duration_s=1.0,
        scenarios=1,
        wall_s=1.0,
        events=1000,
        requests=100,
        events_per_s=1000.0,
        requests_per_s=100.0,
        normalized_events=normalized,
    )


def _report(**normalized) -> PerfReport:
    return PerfReport(
        benchmarks={name: _result(name, value) for name, value in normalized.items()},
        calibration=1_000_000.0,
        peak_rss_mb=10.0,
    )


class TestMacroBenchmarkCatalog:
    def test_expected_benchmarks_registered(self):
        assert {
            "fig10_single_tenant",
            "multitenant_aggressor_victim",
            "routing_ewma_sweep",
        } <= set(MACRO_BENCHMARKS)

    def test_quick_durations_are_shorter(self):
        for benchmark in MACRO_BENCHMARKS.values():
            assert 0 < benchmark.quick_duration_s < benchmark.full_duration_s

    def test_specs_use_requested_duration(self):
        for benchmark in MACRO_BENCHMARKS.values():
            for spec in benchmark.specs(quick=True):
                assert spec.duration_s == benchmark.quick_duration_s

    def test_calibration_score_positive(self):
        assert calibration_score(iterations=200_000) > 0


class TestRunPerf:
    def test_single_benchmark_quick_run(self):
        report = run_perf(quick=True, benchmarks=["fig10_single_tenant"])
        result = report.benchmarks["fig10_single_tenant"]
        assert result.events > 0
        assert result.requests > 0
        assert result.events_per_s > 0
        assert result.normalized_events > 0
        assert report.calibration > 0
        assert report.peak_rss_mb > 0
        payload = report.as_dict()
        assert payload["schema"] == "repro.perf/1"
        assert "fig10_single_tenant" in payload["benchmarks"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown perf benchmark"):
            run_perf(benchmarks=["nope"])

    def test_profile_mode_attaches_hotspots(self):
        report = run_perf(
            quick=True, benchmarks=["fig10_single_tenant"], profile=True
        )
        assert report.profile_top
        assert "cumulative" in report.profile_top


class TestCompare:
    def test_identical_reports_do_not_regress(self):
        current = _report(a=1.0, b=2.0)
        baseline = _report(a=1.0, b=2.0).as_dict()
        comparisons = compare_reports(current, baseline)
        # Two benchmarks plus the report-level peak-RSS gate.
        assert len(comparisons) == 3
        assert not any(comparison.regressed for comparison in comparisons)

    def test_regression_beyond_threshold_flagged(self):
        current = _report(a=0.7)
        baseline = _report(a=1.0).as_dict()
        (comparison, _rss) = compare_reports(current, baseline, threshold=0.2)
        assert comparison.regressed
        assert comparison.ratio == pytest.approx(0.7)

    def test_slowdown_within_threshold_passes(self):
        current = _report(a=0.85)
        baseline = _report(a=1.0).as_dict()
        (comparison, _rss) = compare_reports(current, baseline, threshold=0.2)
        assert not comparison.regressed

    def test_new_benchmark_without_baseline_skipped(self):
        current = _report(a=1.0, brand_new=1.0)
        baseline = _report(a=1.0).as_dict()
        comparisons = compare_reports(current, baseline)
        assert [c.name for c in comparisons] == ["a", "peak_rss_mb"]

    def test_peak_rss_growth_beyond_threshold_flagged(self):
        current = _report(a=1.0)
        current.peak_rss_mb = 14.0  # baseline reports 10.0
        baseline = _report(a=1.0).as_dict()
        rss = next(c for c in compare_reports(current, baseline) if c.name == "peak_rss_mb")
        assert rss.regressed
        assert rss.ratio == pytest.approx(1.4)

    def test_peak_rss_growth_within_threshold_passes(self):
        current = _report(a=1.0)
        current.peak_rss_mb = 12.0
        baseline = _report(a=1.0).as_dict()
        rss = next(c for c in compare_reports(current, baseline) if c.name == "peak_rss_mb")
        assert not rss.regressed

    def test_peak_rss_gate_lower_is_never_regression(self):
        current = _report(a=1.0)
        current.peak_rss_mb = 1.0
        baseline = _report(a=1.0).as_dict()
        rss = next(c for c in compare_reports(current, baseline) if c.name == "peak_rss_mb")
        assert not rss.regressed

    def test_peak_rss_gate_skippable(self):
        current = _report(a=1.0)
        baseline = _report(a=1.0).as_dict()
        comparisons = compare_reports(current, baseline, rss_threshold=None)
        assert [c.name for c in comparisons] == ["a"]

    def test_peak_rss_gate_skipped_without_baseline_rss(self):
        current = _report(a=1.0)
        baseline = _report(a=1.0).as_dict()
        baseline["peak_rss_mb"] = 0.0
        comparisons = compare_reports(current, baseline)
        assert [c.name for c in comparisons] == ["a"]

    def test_save_and_load_roundtrip(self, tmp_path):
        report = _report(a=1.5)
        path = tmp_path / "perf.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded["benchmarks"]["a"]["normalized_events"] == 1.5


class TestPerfCLI:
    def test_perf_subcommand_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "perf.json"
        code = main(
            [
                "perf",
                "--quick",
                "--benchmarks",
                "fig10_single_tenant",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "fig10_single_tenant" in payload["benchmarks"]

    def test_perf_compare_gates_on_regression(self, tmp_path):
        from repro.cli import main

        # A baseline claiming impossibly high normalized throughput must
        # make the compare mode fail with a non-zero exit code.
        impossible = _report(fig10_single_tenant=1e9)
        baseline_path = tmp_path / "baseline.json"
        save_report(impossible, baseline_path)
        code = main(
            [
                "perf",
                "--quick",
                "--benchmarks",
                "fig10_single_tenant",
                "--compare",
                "--baseline",
                str(baseline_path),
            ]
        )
        assert code == 1

    def test_perf_update_baseline_writes_file(self, tmp_path):
        from repro.cli import main

        baseline_path = tmp_path / "baseline.json"
        code = main(
            [
                "perf",
                "--quick",
                "--benchmarks",
                "fig10_single_tenant",
                "--repeats",
                "3",
                "--update-baseline",
                "--baseline",
                str(baseline_path),
            ]
        )
        assert code == 0
        loaded = load_report(baseline_path)
        assert "fig10_single_tenant" in loaded["benchmarks"]
        # A fresh run against its own just-written baseline passes the gate.
        # Both runs take the median of 3, as baselines and gates should:
        # single runs on a noisy host can differ by more than the gate.
        code = main(
            [
                "perf",
                "--quick",
                "--benchmarks",
                "fig10_single_tenant",
                "--repeats",
                "3",
                "--compare",
                "--baseline",
                str(baseline_path),
            ]
        )
        assert code == 0
