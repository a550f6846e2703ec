"""Unit tests for latency statistics and SLO accounting."""

from __future__ import annotations

import pytest

from repro.metrics.latency import LatencyStats, cdf_points, percentile
from repro.metrics.slo import MitigationTracker, SLOTracker
from repro.tracing.trace import Trace


class TestLatencyHelpers:
    def test_percentile_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_cdf_points_empty(self):
        assert cdf_points([]) == []

    def test_cdf_points_monotone(self):
        points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0], points=10)
        values = [value for value, _ in points]
        probabilities = [probability for _, probability in points]
        assert values == sorted(values)
        assert probabilities == sorted(probabilities)
        assert probabilities[0] == 0.0 and probabilities[-1] == 1.0

    def test_stats_from_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_stats_basic(self):
        stats = LatencyStats.from_samples([10.0] * 99 + [100.0])
        assert stats.count == 100
        assert stats.median == pytest.approx(10.0)
        assert stats.p99 > 10.0
        assert stats.maximum == 100.0

    def test_as_dict_keys(self):
        stats = LatencyStats.from_samples([1.0, 2.0])
        assert set(stats.as_dict()) == {"count", "mean", "median", "p95", "p99", "max", "std"}


def _trace(request_type="main", latency_ms=100.0, dropped=False):
    trace = Trace("r", request_type)
    trace.arrival_time = 0.0
    if dropped:
        trace.mark_dropped()
    else:
        trace.mark_complete(latency_ms / 1000.0)
    return trace


class TestSLOTracker:
    def test_within_slo_not_violation(self):
        tracker = SLOTracker({"main": 200.0})
        tracker.observe(_trace(latency_ms=100.0))
        assert tracker.completed == 1
        assert tracker.violations == 0

    def test_violation_counted(self):
        tracker = SLOTracker({"main": 50.0})
        tracker.observe(_trace(latency_ms=100.0))
        assert tracker.violations == 1
        assert tracker.violation_rate == 1.0

    def test_dropped_counted_separately(self):
        tracker = SLOTracker({"main": 50.0})
        tracker.observe(_trace(dropped=True))
        assert tracker.dropped == 1
        assert tracker.completed == 0
        assert tracker.violations_including_drops == 1

    def test_unknown_request_type_never_violates(self):
        tracker = SLOTracker({})
        tracker.observe(_trace(latency_ms=10_000.0))
        assert tracker.violations == 0

    def test_violation_rate_zero_when_empty(self):
        assert SLOTracker({}).violation_rate == 0.0

    def test_summary_fields(self):
        tracker = SLOTracker({"main": 50.0})
        tracker.observe(_trace(latency_ms=100.0))
        summary = tracker.summary()
        assert summary["violations"] == 1.0
        assert summary["completed"] == 1.0

    def test_total_requests(self):
        tracker = SLOTracker({"main": 50.0})
        tracker.observe(_trace())
        tracker.observe(_trace(dropped=True))
        assert tracker.total_requests == 2


class TestMitigationTracker:
    def test_single_episode_duration(self):
        tracker = MitigationTracker()
        tracker.update(0.0, False)
        tracker.update(5.0, True)
        tracker.update(12.0, False)
        assert tracker.mitigation_times_s() == [pytest.approx(7.0)]

    def test_multiple_episodes(self):
        tracker = MitigationTracker()
        for time, violating in [(0, True), (3, False), (10, True), (11, False)]:
            tracker.update(float(time), violating)
        assert tracker.mitigation_times_s() == [pytest.approx(3.0), pytest.approx(1.0)]
        assert tracker.mean_mitigation_time_s() == pytest.approx(2.0)

    def test_close_ends_open_episode(self):
        tracker = MitigationTracker()
        tracker.update(0.0, True)
        tracker.close(8.0)
        assert tracker.mitigation_times_s() == [pytest.approx(8.0)]

    def test_no_episodes_mean_zero(self):
        assert MitigationTracker().mean_mitigation_time_s() == 0.0

    def test_repeated_violation_updates_do_not_split_episode(self):
        tracker = MitigationTracker()
        tracker.update(0.0, True)
        tracker.update(1.0, True)
        tracker.update(2.0, True)
        tracker.update(5.0, False)
        assert len(tracker.episodes) == 1
        assert tracker.mitigation_times_s() == [pytest.approx(5.0)]
