"""Unit tests for spans, traces, the store, and the tracing coordinator."""

from __future__ import annotations

import pytest

from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.span import Span, SpanKind
from repro.tracing.store import TraceStore
from repro.tracing.trace import Trace


def _span(request="r1", service="svc", instance=None, parent=None, t0=0.0, t1=0.0, t2=1.0, kind=SpanKind.SEQUENTIAL):
    return Span(
        request_id=request,
        service=service,
        instance=instance or f"{service}#0",
        parent_id=parent,
        kind=kind,
        enqueue_time=t0,
        start_time=t1,
        end_time=t2,
    )


class TestSpan:
    def test_durations(self):
        span = _span(t0=1.0, t1=1.5, t2=3.0)
        assert span.queue_time == pytest.approx(0.5)
        assert span.service_time == pytest.approx(1.5)
        assert span.sojourn_time == pytest.approx(2.0)
        assert span.sojourn_time_ms == pytest.approx(2000.0)

    def test_negative_durations_clamped(self):
        span = _span(t0=5.0, t1=4.0, t2=3.0)
        assert span.queue_time == 0.0
        assert span.sojourn_time == 0.0

    def test_overlaps_true_for_concurrent(self):
        a = _span(t0=0.0, t2=2.0)
        b = _span(t0=1.0, t2=3.0)
        assert a.overlaps(b) and b.overlaps(a)

    def test_overlaps_false_for_disjoint(self):
        a = _span(t0=0.0, t2=1.0)
        b = _span(t0=2.0, t2=3.0)
        assert not a.overlaps(b)

    def test_happens_before(self):
        a = _span(t0=0.0, t2=1.0)
        b = _span(t0=2.0, t2=3.0)
        assert a.happens_before(b)
        assert not b.happens_before(a)

    def test_unique_span_ids(self):
        assert _span().span_id != _span().span_id


class TestTrace:
    def _build_trace(self):
        trace = Trace("r1", "main")
        trace.arrival_time = 0.0
        root = _span(service="fe", t0=0.0, t2=5.0, kind=SpanKind.ROOT)
        child_a = _span(service="a", parent=root.span_id, t0=0.5, t2=2.0, kind=SpanKind.PARALLEL)
        child_b = _span(service="b", parent=root.span_id, t0=0.5, t2=4.0, kind=SpanKind.PARALLEL)
        background = _span(service="bg", parent=root.span_id, t0=0.5, t2=9.0, kind=SpanKind.BACKGROUND)
        for span in (root, child_a, child_b, background):
            trace.add_span(span)
        trace.mark_complete(5.0)
        return trace, root, child_a, child_b, background

    def test_root_identified(self):
        trace, root, *_ = self._build_trace()
        assert trace.root is root

    def test_children_sorted_by_time(self):
        trace, root, child_a, child_b, background = self._build_trace()
        children = trace.children_of(root)
        assert len(children) == 3

    def test_foreground_children_exclude_background(self):
        trace, root, child_a, child_b, background = self._build_trace()
        foreground = trace.foreground_children_of(root)
        assert background not in foreground
        assert len(foreground) == 2

    def test_end_to_end_latency(self):
        trace, *_ = self._build_trace()
        assert trace.end_to_end_latency_ms == pytest.approx(5000.0)

    def test_latency_of_service_sums_spans(self):
        trace, *_ = self._build_trace()
        assert trace.latency_of_service("a") == pytest.approx(1500.0)

    def test_services_and_instances(self):
        trace, *_ = self._build_trace()
        assert trace.services() == ["fe", "a", "b", "bg"]
        assert trace.instances() == ["fe#0", "a#0", "b#0", "bg#0"]

    def test_wrong_request_id_rejected(self):
        trace = Trace("r1", "main")
        with pytest.raises(ValueError):
            trace.add_span(_span(request="other"))

    def test_incomplete_trace_not_complete(self):
        trace = Trace("r1", "main")
        trace.arrival_time = 0.0
        assert not trace.is_complete

    def test_dropped_trace_not_complete(self):
        trace, *_ = self._build_trace()
        trace.mark_dropped()
        assert not trace.is_complete

    def test_to_graph_structure(self):
        trace, root, child_a, *_ = self._build_trace()
        graph = trace.to_graph()
        assert graph.has_edge(root.span_id, child_a.span_id)
        assert graph.nodes[root.span_id]["service"] == "fe"

    def test_len_counts_spans(self):
        trace, *_ = self._build_trace()
        assert len(trace) == 4


class TestTraceStore:
    def test_add_and_get(self):
        store = TraceStore()
        trace = Trace("r1", "main")
        store.add(trace)
        assert store.get("r1") is trace

    def test_add_idempotent(self):
        store = TraceStore()
        trace = Trace("r1", "main")
        store.add(trace)
        store.add(trace)
        assert len(store) == 1

    def test_completed_traces_filters_incomplete(self):
        store = TraceStore()
        complete = Trace("r1", "main")
        complete.arrival_time = 0.0
        complete.mark_complete(1.0)
        incomplete = Trace("r2", "main")
        store.add(complete)
        store.add(incomplete)
        assert store.completed_traces() == [complete]

    def test_completed_traces_filters_by_type_and_time(self):
        store = TraceStore()
        early = Trace("r1", "a")
        early.arrival_time = 0.0
        early.mark_complete(1.0)
        late = Trace("r2", "b")
        late.arrival_time = 10.0
        late.mark_complete(11.0)
        store.add(early)
        store.add(late)
        assert store.completed_traces(request_type="b") == [late]
        assert store.completed_traces(since=5.0) == [late]

    def test_dropped_count(self):
        store = TraceStore()
        trace = Trace("r1", "main")
        trace.arrival_time = 0.0
        trace.mark_dropped()
        store.add(trace)
        assert store.dropped_count() == 1

    def test_latencies_ms(self):
        store = TraceStore()
        trace = Trace("r1", "main")
        trace.arrival_time = 0.0
        trace.mark_complete(0.25)
        store.add(trace)
        assert store.latencies_ms() == [pytest.approx(250.0)]

    def test_request_types_listing(self):
        store = TraceStore()
        store.add(Trace("r1", "b"))
        store.add(Trace("r2", "a"))
        assert store.request_types() == ["a", "b"]


class TestCoordinator:
    def test_begin_and_complete_trace(self, engine):
        coordinator = TracingCoordinator(engine)
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.1)
        assert trace.is_complete

    def test_arrival_rate_over_window(self, engine):
        coordinator = TracingCoordinator(engine)
        for index in range(10):
            coordinator.begin_trace(f"r{index}", "main", arrival_time=index * 0.1)
        engine.run_until(1.0)
        assert coordinator.arrival_rate(window_s=1.0) == pytest.approx(10.0, rel=0.01)

    def test_request_composition(self, engine):
        coordinator = TracingCoordinator(engine)
        coordinator.begin_trace("r1", "a", 0.0)
        coordinator.begin_trace("r2", "a", 0.0)
        coordinator.begin_trace("r3", "b", 0.0)
        engine.run_until(1.0)
        composition = coordinator.request_composition(window_s=2.0)
        assert composition["a"] == pytest.approx(2 / 3)

    def test_latency_percentile_empty_is_zero(self, engine):
        coordinator = TracingCoordinator(engine)
        assert coordinator.latency_percentile_ms(99.0, window_s=10.0) == 0.0

    def test_slo_violation_detection(self, engine):
        coordinator = TracingCoordinator(engine)
        coordinator.register_slo("main", slo_latency_ms=100.0)
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.5)  # 500 ms > 100 ms SLO
        engine.run_until(1.0)
        assert coordinator.has_slo_violation(window_s=5.0)
        assert coordinator.slo_violation_ratio(window_s=5.0) == pytest.approx(1.0)
        assert len(coordinator.slo_violations(window_s=5.0)) == 1

    def test_no_violation_when_within_slo(self, engine):
        coordinator = TracingCoordinator(engine)
        coordinator.register_slo("main", slo_latency_ms=1000.0)
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.1)
        engine.run_until(1.0)
        assert not coordinator.has_slo_violation(window_s=5.0)

    def test_per_service_latencies(self, engine):
        coordinator = TracingCoordinator(engine)
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        span = _span(request="r1", service="svc", t0=0.0, t2=0.05)
        coordinator.record_span(trace, span)
        coordinator.complete_trace(trace, 0.05)
        engine.run_until(1.0)
        per_service = coordinator.per_service_latencies_ms(window_s=5.0)
        assert per_service["svc"] == [pytest.approx(50.0)]

    def test_recent_traces_window(self, engine):
        coordinator = TracingCoordinator(engine)
        old = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(old, 0.1)
        engine.run_until(100.0)
        fresh = coordinator.begin_trace("r2", "main", arrival_time=99.0)
        coordinator.complete_trace(fresh, 99.1)
        recent = coordinator.recent_traces(window_s=10.0)
        assert fresh in recent and old not in recent
