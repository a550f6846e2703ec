"""Unit tests for the microservice instance (queueing, service times)."""

from __future__ import annotations

import pytest

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile, SpanWork
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import Resource, ResourceLimits, ResourceVector


def _make_instance(engine, rng, cpu_limit=4.0, base_ms=5.0, threads=8, cv=0.25):
    node = Node(NodeSpec(name="n0"))
    profile = ServiceProfile(
        name="svc",
        base_service_time_ms=base_ms,
        service_time_cv=cv,
        resource_weights={Resource.CPU: 1.0},
        demand_per_request=ResourceVector.from_kwargs(cpu=0.5),
        threads=threads,
    )
    container = Container("svc", limits=ResourceLimits.from_kwargs(
        cpu=cpu_limit, memory_bandwidth=10.0, llc=4.0, disk_io=200.0, network=1.0
    ))
    node.add_container(container)
    return MicroserviceInstance(profile, container, engine, rng)


class TestSubmission:
    def test_submit_completes_after_service_time(self, engine, rng):
        instance = _make_instance(engine, rng)
        completions = []
        instance.submit(SpanWork(lambda eq, st, ft: completions.append((eq, st, ft))))
        engine.run_until(1.0)
        assert len(completions) == 1
        enqueue, start, finish = completions[0]
        assert enqueue == 0.0
        assert finish > start >= enqueue

    def test_completed_spans_counter(self, engine, rng):
        instance = _make_instance(engine, rng)
        for index in range(5):
            instance.submit(SpanWork(lambda *a: None))
        engine.run_until(1.0)
        assert instance.completed_spans == 5

    def test_completion_listener_receives_latency(self, engine, rng):
        instance = _make_instance(engine, rng)
        spans = []
        seen = []
        instance.completion_listeners.append(lambda inst, ms: seen.append((inst, ms)))
        instance.submit(SpanWork(lambda eq, st, ft: spans.append((ft - eq) * 1000.0)))
        engine.run_until(1.0)
        assert seen == [(instance, spans[0])]
        assert spans[0] > 0

    def test_completion_listener_fires_once_per_span(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=1.0)
        seen = []
        instance.completion_listeners.append(lambda inst, ms: seen.append(ms))
        for index in range(3):
            instance.submit(SpanWork(lambda *a: None))
        engine.run_until(1.0)
        assert len(seen) == instance.completed_spans == 3
        # One core: each span waits for the previous one, so latencies grow.
        assert seen == sorted(seen)

    def test_raising_cpu_limit_starts_queued_spans(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=1.0)
        for index in range(4):
            instance.submit(SpanWork(lambda *a: None))
        assert (instance.in_service, instance.queue_length) == (1, 3)
        instance.container.set_limit(Resource.CPU, 3.0)
        assert instance.concurrency() == 3
        assert (instance.in_service, instance.queue_length) == (3, 1)
        # Demand counted 1 + min(3, 3) active before the write and still does.
        assert instance.resource_demand()[Resource.CPU] == 4 * 0.5

    def test_raising_threads_starts_queued_spans(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=4.0, threads=1)
        for index in range(3):
            instance.submit(SpanWork(lambda *a: None))
        assert (instance.in_service, instance.queue_length) == (1, 2)
        instance.container.threads = 4
        assert (instance.in_service, instance.queue_length) == (3, 0)
        engine.run_until(1.0)
        assert instance.completed_spans == 3

    def test_queue_overflow_drops(self, engine, rng):
        instance = _make_instance(engine, rng)
        instance.max_queue_length = 3
        accepted = [instance.submit(SpanWork(lambda *a: None)) for i in range(10)]
        assert not all(accepted)
        assert instance.dropped_spans > 0

    def test_explicit_base_time_is_used(self, engine, rng):
        instance = _make_instance(engine, rng)
        finish_times = []
        instance.submit(SpanWork(lambda eq, st, ft: finish_times.append(ft)), base_time_ms=100.0)
        engine.run_until(1.0)
        assert finish_times[0] == pytest.approx(0.1, rel=0.05)


class TestConcurrencyAndQueueing:
    def test_concurrency_from_cpu_limit(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=2.0)
        assert instance.concurrency() == 2

    def test_concurrency_at_least_one(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=0.25)
        assert instance.concurrency() == 1

    def test_queueing_inflates_latency(self, engine, rng):
        """With concurrency 1, the Nth request waits for the previous N-1."""
        instance = _make_instance(engine, rng, cpu_limit=1.0, cv=0.01)
        finishes = []
        for index in range(4):
            instance.submit(SpanWork(lambda eq, st, ft: finishes.append(ft - eq)))
        engine.run_until(5.0)
        assert len(finishes) == 4
        assert finishes[-1] > finishes[0] * 2.5

    def test_parallel_when_concurrency_allows(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=8.0, cv=0.01)
        finishes = []
        for index in range(4):
            instance.submit(SpanWork(lambda eq, st, ft: finishes.append(ft - eq)))
        engine.run_until(5.0)
        # All four ran concurrently, so sojourn times are close to each other.
        assert max(finishes) < min(finishes) * 1.5

    def test_in_flight_counts_queue_and_service(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=1.0)
        for index in range(3):
            instance.submit(SpanWork(lambda *a: None))
        assert instance.in_flight == 3
        assert instance.queue_length == 2


class TestServiceTimes:
    def test_service_time_positive(self, engine, rng):
        instance = _make_instance(engine, rng)
        draws = [instance._draw_service_time_ms() for _ in range(100)]
        assert all(draw > 0 for draw in draws)

    def test_service_time_mean_close_to_profile(self, engine, rng):
        instance = _make_instance(engine, rng, base_ms=10.0, cv=0.2)
        draws = [instance._draw_service_time_ms() for _ in range(2000)]
        assert sum(draws) / len(draws) == pytest.approx(10.0, rel=0.1)

    def test_slowdown_stretches_service_time(self, engine, rng):
        instance = _make_instance(engine, rng, cv=0.01)
        node = instance.container.node
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.95 * node.capacity[Resource.CPU]))
        finishes = []
        instance.submit(SpanWork(lambda eq, st, ft: finishes.append(ft - eq)), base_time_ms=10.0)
        engine.run_until(10.0)
        assert finishes[0] > 0.05  # 10 ms base stretched by > 5x

    def test_resource_demand_zero_when_idle(self, engine, rng):
        instance = _make_instance(engine, rng)
        assert instance.resource_demand().total() == 0.0

    def test_profile_dominant_resource(self):
        profile = ServiceProfile(
            name="x",
            resource_weights={Resource.CPU: 0.3, Resource.LLC: 0.9},
        )
        assert profile.dominant_resource() is Resource.LLC
