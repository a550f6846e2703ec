"""Tests for the run-record observability layer (:mod:`repro.obs`).

Covers the tentpole contracts end to end: registry/journal semantics,
exporter golden output, the inspector's causal-timeline reconstruction, the run-record
writer, non-perturbation (observability off produces byte-identical
results and on never changes simulation dynamics), and the ≤5%
events/sec overhead pin.
"""

from __future__ import annotations

import json
import math
from functools import partial
from types import SimpleNamespace

import pytest

from repro.obs import (
    EventJournal,
    HistogramMetric,
    MetricsRegistry,
    build_timeline,
    chrome_trace_json,
    inspect_run_record,
    load_journal,
    prometheus_exposition,
    read_journal_jsonl,
    write_journal_jsonl,
    write_run_record,
)
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder


def observed_spec(duration_s: float = 20.0, observability: bool = True) -> ScenarioSpec:
    """A controlled anomaly-campaign scenario that exercises every
    instrumented path (control rounds, scale actions, routing picks,
    anomaly inject/clear, SLO windows); the overhead pin times it with
    observability off and on."""
    return ScenarioSpec(
        application="social_network",
        seed=0,
        duration_s=duration_s,
        load_rps=60.0,
        controller="aimd",
        observability=observability,
        campaign_builder=partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=0.5,
            resource_only=True,
            start_s=0.5,
        ),
    )


def run_spec(spec: ScenarioSpec):
    harness = ExperimentHarness.from_spec(spec)
    result = harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    return harness, result


# ------------------------------------------------------- histogram metric
class TestHistogramMetric:
    def test_quantiles_track_exact_values(self):
        # ``quantile`` takes a fraction; the log-histogram sketch behind it
        # takes a percent, so a missed conversion lands far off every value.
        metric = HistogramMetric()
        values = [math.sin(i * 0.7) * 50.0 + 60.0 for i in range(5000)]
        for value in values:
            metric.observe(value)
        ordered = sorted(values)
        for q in (0.01, 0.5, 0.9, 0.99):
            exact = ordered[int(q * (len(ordered) - 1))]
            assert metric.quantile(q) == pytest.approx(exact, rel=0.05)
        assert metric.count == len(values)
        assert metric.total == pytest.approx(sum(values))


# ------------------------------------------------------------------ registry
class TestMetricsRegistry:
    def test_series_are_interned(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", tenant="t0")
        b = registry.counter("requests_total", tenant="t0")
        assert a is b
        a.inc(); a.inc(2.5)
        assert registry.counter("requests_total", tenant="t0").value == 3.5

    def test_type_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        registry.histogram("lat_ms")
        with pytest.raises(ValueError):
            registry.counter("lat_ms")


# ------------------------------------------------------------------- journal
class TestEventJournal:
    def test_ring_evicts_oldest_first(self):
        journal = EventJournal(capacity=4)
        for i in range(10):
            journal.record(float(i), "tick", "test", i=i)
        assert len(journal) == 4
        assert journal.recorded == 10
        assert journal.evicted == 6
        assert [r["data"]["i"] for r in journal.as_dicts()] == [6, 7, 8, 9]

    def test_jsonl_round_trip(self, tmp_path):
        journal = EventJournal()
        journal.record(1.5, "anomaly_inject", "injector", target="nginx")
        path = str(tmp_path / "journal.jsonl")
        write_journal_jsonl(journal.as_dicts(), path)
        assert read_journal_jsonl(path) == journal.as_dicts()


# --------------------------------------------------------------- integration
@pytest.fixture(scope="module")
def observed_run():
    """One observability-enabled campaign run shared across tests."""
    return run_spec(observed_spec())


class TestHarnessIntegration:
    def test_off_by_default_and_non_perturbing(self, observed_run):
        _, on_result = observed_run
        _, off_result = run_spec(observed_spec(observability=False))
        assert off_result.journal is None
        assert off_result.metrics is None
        # Identical dynamics: observability never changes the simulation.
        assert json.dumps(off_result.summary(), sort_keys=True) == json.dumps(
            on_result.summary(), sort_keys=True
        )

    def test_journal_covers_instrumented_paths(self, observed_run):
        _, result = observed_run
        kinds = {record["kind"] for record in result.journal}
        assert {"anomaly_inject", "anomaly_clear", "scale_action", "routing_pick"} <= kinds

    def test_metrics_cover_instrumented_paths(self, observed_run):
        _, result = observed_run
        snapshot = result.metrics.snapshot()
        counter_names = {row["name"] for row in snapshot["counters"]}
        assert "requests_total" in counter_names
        assert "routing_picks_total" in counter_names
        assert "anomaly_injects_total" in counter_names
        assert "scale_actions_total" in counter_names
        histogram_names = {row["name"] for row in snapshot["histograms"]}
        assert "request_latency_ms" in histogram_names
        latency = next(
            row for row in snapshot["histograms"]
            if row["name"] == "request_latency_ms"
        )
        assert latency["count"] > 0
        assert latency["quantiles"]["0.5"] > 0

    def test_repeat_runs_are_deterministic(self, observed_run):
        _, first = observed_run
        _, second = run_spec(observed_spec())
        assert first.journal == second.journal
        assert prometheus_exposition(first.metrics.snapshot()) == (
            prometheus_exposition(second.metrics.snapshot())
        )


# ----------------------------------------------------------------- exporters
class TestExporters:
    def test_chrome_trace_is_valid_and_complete(self, observed_run):
        harness, result = observed_run
        payload = json.loads(chrome_trace_json(harness, result.journal))
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "i"}
        required = {"ph", "name", "pid", "tid"}
        assert all(required <= set(event) for event in events)
        spans = [event for event in events if event["ph"] == "X"]
        assert spans and all(event["dur"] >= 0 for event in spans)
        instants = [event for event in events if event["ph"] == "i"]
        assert len(instants) == len(result.journal)
        names = {
            event["args"]["name"] for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert "run events" in names

    def test_chrome_trace_export_is_deterministic(self, observed_run):
        harness, result = observed_run
        assert chrome_trace_json(harness, result.journal) == chrome_trace_json(
            harness, result.journal
        )

    def test_prometheus_exposition_golden(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", tenant="t0", outcome="completed").inc(41)
        registry.counter("requests_total", tenant="t0", outcome="dropped").inc()
        registry.gauge("replicas", service="nginx").set(3)
        hist = registry.histogram("latency_ms", tenant="t0")
        for value in (1.0, 2.0, 4.0, 8.0):
            hist.observe(value)
        text = prometheus_exposition(registry.snapshot())
        lines = text.splitlines()
        assert lines[0] == "# TYPE requests_total counter"
        assert 'requests_total{outcome="completed",tenant="t0"} 41' in lines
        assert 'requests_total{outcome="dropped",tenant="t0"} 1' in lines
        assert "# TYPE replicas gauge" in lines
        assert 'replicas{service="nginx"} 3' in lines
        assert "# TYPE latency_ms summary" in lines
        assert 'latency_ms_count{tenant="t0"} 4' in lines
        assert 'latency_ms_sum{tenant="t0"} 15' in lines
        quantile_lines = [l for l in lines if '"0.5"' in l or 'quantile="0.5"' in l]
        assert quantile_lines, text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", label='a"b\\c\nd').inc()
        text = prometheus_exposition(registry.snapshot())
        assert r'c{label="a\"b\\c\nd"} 1' in text


# ----------------------------------------------------------------- inspector
def synthetic_journal():
    journal = EventJournal()
    journal.record(
        10.0, "anomaly_inject", "injector",
        type="cpu_stress", target="nginx", scope="service_wide",
        intensity=0.8, nodes=["node-0"], start_s=10.0, end_s=30.0,
    )
    journal.record(11.0, "control_round", "FIRMController",
                   slo_violated=True, candidates=["nginx"],
                   actions_applied=0, mean_reward=0.0)
    journal.record(12.0, "scale_action", "orchestrator",
                   action="scale_out", service="nginx", before=1, after=2)
    journal.record(14.0, "slo_window", "tenant", open=False)
    journal.record(30.0, "anomaly_clear", "injector",
                   type="cpu_stress", target="nginx", scope="service_wide",
                   reason="window_end")
    return journal.as_dicts()


class TestInspector:
    def test_timeline_reconstruction(self):
        episodes = build_timeline(synthetic_journal())
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.target == "nginx"
        assert episode.anomaly_type == "cpu_stress"
        assert episode.injected_at == 10.0
        assert episode.detected_at == 11.0
        assert episode.mitigated_at == 12.0
        assert episode.recovered_at == 14.0
        assert episode.cleared_at == 30.0
        assert episode.time_to_detect_s == pytest.approx(1.0)
        assert episode.time_to_mitigate_s == pytest.approx(2.0)
        assert episode.mitigation == "scale_out nginx"

    def test_undetected_anomaly_recovers_at_clear(self):
        journal = EventJournal()
        journal.record(5.0, "anomaly_inject", "injector",
                       type="io_stress", target="mongo", scope="node",
                       nodes=["node-1"], start_s=5.0, end_s=9.0)
        journal.record(9.0, "anomaly_clear", "injector",
                       type="io_stress", target="mongo", scope="node",
                       reason="window_end")
        (episode,) = build_timeline(journal.as_dicts())
        assert episode.detected_at is None
        assert episode.time_to_detect_s is None
        assert episode.recovered_at == 9.0

    def test_load_journal_rejects_missing_paths(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_journal(str(tmp_path / "nope"))


# ---------------------------------------------------------------- run record
class TestRunRecord:
    def test_write_and_inspect_round_trip(self, observed_run, tmp_path):
        harness, result = observed_run
        paths = write_run_record(str(tmp_path), result, harness=harness)
        assert set(paths) == {
            "journal", "metrics", "prometheus", "summary", "trace",
        }
        assert load_journal(str(tmp_path)) == result.journal
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["application"] == "social_network"
        assert summary["journal_records"] == len(result.journal)
        report = inspect_run_record(str(tmp_path))
        assert "causal timeline" in report
        assert "time-to-detect" in report
        assert "journal:" in report

    def test_requires_an_observed_result(self, tmp_path):
        _, result = run_spec(observed_spec(duration_s=2.0, observability=False))
        with pytest.raises(ValueError):
            write_run_record(str(tmp_path), result)

    def test_unobserved_error_names_the_cli_flag(self, tmp_path):
        unobserved = SimpleNamespace(journal=None, metrics=None)
        with pytest.raises(ValueError, match=r"\(or --obs-dir\)"):
            write_run_record(str(tmp_path), unobserved)
        assert not any(tmp_path.iterdir())


# ------------------------------------------------------------- overhead gate
class TestObservabilityOverhead:
    def test_overhead_is_within_five_percent(self):
        """Pin the ≤5% events/sec overhead budget of the obs layer.

        Single runs are ±10% noisy on shared CI hosts, so the modes are
        measured as five *interleaved* off/on pairs (temporal adjacency
        cancels host-speed drift between the two blocks a sequential
        best-of-N would suffer) and the gate takes the most favorable
        pair: a genuine regression past the budget slows *every* pair,
        while one transiently slow run cannot fail the test.  Each run
        simulates 40 s, long enough that scheduler jitter is a small part
        of its wall time, and the pairs alternate which mode runs first
        so neither mode always inherits the other's warm caches.
        """
        import gc
        import time

        def rate(spec):
            harness = ExperimentHarness.from_spec(spec)
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            harness.run(
                duration_s=spec.duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
            wall = max(time.perf_counter() - start, 1e-9)
            gc.enable()
            return harness.engine.processed_events / wall

        off_spec = observed_spec(duration_s=40.0, observability=False)
        on_spec = observed_spec(duration_s=40.0, observability=True)
        rate(off_spec), rate(on_spec)  # warm both paths untimed
        overheads = []
        for pair in range(5):
            if pair % 2 == 0:
                off = rate(off_spec)
                on = rate(on_spec)
            else:
                on = rate(on_spec)
                off = rate(off_spec)
            overheads.append((off - on) / off * 100.0)
        best = min(overheads)
        assert best <= 5.0, (
            f"observability overhead exceeds the 5% budget on every "
            f"measured pair: {[f'{o:.2f}%' for o in overheads]}"
        )
