"""Unit tests for telemetry collection."""

from __future__ import annotations

import pytest

from repro.cluster.instance import SpanWork
from repro.cluster.resources import Resource
from repro.cluster.telemetry import TelemetryCollector


@pytest.fixture
def telemetry_setup(cluster, engine, cpu_profile):
    instances = cluster.deploy_service(cpu_profile, replicas=2)
    collector = TelemetryCollector(cluster, engine, period_s=1.0)
    return collector, instances, engine


class TestSampling:
    def test_sample_all_covers_every_container(self, telemetry_setup):
        collector, instances, _ = telemetry_setup
        batch = collector.sample_all()
        assert len(batch) == 2

    def test_sample_records_service_name(self, telemetry_setup):
        collector, instances, _ = telemetry_setup
        sample = collector.sample_container(instances[0].container)
        assert sample.service_name == "cpu-service"
        assert sample.node is not None

    def test_latest_returns_most_recent(self, telemetry_setup):
        collector, instances, engine = telemetry_setup
        collector.sample_container(instances[0].container)
        engine.run_until(5.0)
        second = collector.sample_container(instances[0].container)
        assert collector.latest(instances[0].container.id) is second

    def test_latest_unknown_container_is_none(self, telemetry_setup):
        collector, _, _ = telemetry_setup
        assert collector.latest("nope") is None

    def test_periodic_sampling_after_start(self, telemetry_setup):
        collector, instances, engine = telemetry_setup
        collector.start()
        engine.run_until(5.0)
        window = collector.window(instances[0].container.id, duration_s=10.0)
        assert len(window) == 5

    def test_start_is_idempotent(self, telemetry_setup):
        collector, instances, engine = telemetry_setup
        collector.start()
        collector.start()
        engine.run_until(3.0)
        window = collector.window(instances[0].container.id, duration_s=10.0)
        assert len(window) == 3

    def test_history_bounded(self, telemetry_setup):
        collector, instances, engine = telemetry_setup
        collector.start()
        engine.run_until(30.0)
        window = collector.window(instances[0].container.id, duration_s=100.0)
        assert len(window) <= 10

    def test_window_filters_by_time(self, telemetry_setup):
        collector, instances, engine = telemetry_setup
        collector.start()
        engine.run_until(8.0)
        recent = collector.window(instances[0].container.id, duration_s=3.0)
        assert all(sample.time >= 5.0 for sample in recent)

    def test_sample_row_flattening(self, telemetry_setup):
        collector, instances, _ = telemetry_setup
        sample = collector.sample_container(instances[0].container)
        row = sample.as_row()
        assert "usage_cpu" in row
        assert "utilization_memory_bandwidth" in row
        assert "limit_llc" in row
        assert row["time"] == sample.time

    def test_service_utilization_averages_replicas(self, telemetry_setup):
        collector, instances, _ = telemetry_setup
        instances[0].submit(SpanWork(lambda *a: None))
        collector.sample_all()
        utilization = collector.service_utilization("cpu-service")
        assert utilization[Resource.CPU] >= 0.0

    def test_service_utilization_unknown_service_zero(self, telemetry_setup):
        collector, _, _ = telemetry_setup
        collector.sample_all()
        assert collector.service_utilization("nope").total() == 0.0

    def test_container_ids_sorted(self, telemetry_setup):
        collector, _, _ = telemetry_setup
        collector.sample_all()
        ids = collector.container_ids()
        assert ids == sorted(ids)
        assert len(ids) == 2

    def test_queue_length_captured(self, telemetry_setup):
        collector, instances, _ = telemetry_setup
        instance = instances[0]
        instance.container.set_limit(Resource.CPU, 1.0)
        for index in range(5):
            instance.submit(SpanWork(lambda *a: None))
        sample = collector.sample_container(instance.container)
        assert sample.queue_length > 0
