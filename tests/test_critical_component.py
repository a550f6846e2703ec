"""Unit tests for critical component localization (Algorithm 2).

The features are the ones FIRM classifies: the windowed per-instance
sketches (:class:`~repro.tracing.instance_sketch.InstanceSketches`), read
for the instances on the window's critical paths by the
:class:`~repro.core.extractor.Extractor`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extractor import Extractor
from repro.core.svm import IncrementalSVM
from repro.sim.engine import SimulationEngine
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.instance_sketch import MIN_SAMPLES, InstanceFeatures, InstanceSketches
from repro.tracing.span import Span, SpanKind
from repro.tracing.trace import Trace

#: Every synthetic trace completes before ``NOW``, inside ``WINDOW_S``.
NOW = 1.0
WINDOW_S = 5.0


def _make_traces(n=40, culprit="b", seed=0):
    """Build traces where ``culprit`` has high, variable latency driving the total.

    Services: fe (root) -> a (stable) -> b (variable).  The culprit's latency
    dominates end-to-end variance and has a heavy tail, so its relative
    importance and congestion intensity are both high.
    """
    rng = np.random.default_rng(seed)
    traces = []
    for index in range(n):
        trace = Trace(f"r{index}", "main")
        trace.arrival_time = 0.0
        a_latency = 0.010 + rng.normal(0.0, 0.0005)
        if culprit == "b":
            b_latency = 0.010 + float(rng.exponential(0.030))
        else:
            b_latency = 0.010 + rng.normal(0.0, 0.0005)
        root = Span(
            request_id=f"r{index}", service="fe", instance="fe#0", kind=SpanKind.ROOT,
            enqueue_time=0.0, start_time=0.0, end_time=0.002 + a_latency + b_latency,
        )
        trace.add_span(root)
        span_a = Span(
            request_id=f"r{index}", service="a", instance="a#0", kind=SpanKind.SEQUENTIAL,
            parent_id=root.span_id, enqueue_time=0.001, start_time=0.001,
            end_time=0.001 + a_latency,
        )
        span_b = Span(
            request_id=f"r{index}", service="b", instance="b#0", kind=SpanKind.SEQUENTIAL,
            parent_id=root.span_id, enqueue_time=span_a.end_time, start_time=span_a.end_time,
            end_time=span_a.end_time + b_latency,
        )
        trace.add_span(span_a)
        trace.add_span(span_b)
        trace.mark_complete(root.end_time)
        traces.append(trace)
    return traces


def _fold(traces):
    """The traces' per-instance sketches, folded as the coordinator does."""
    sketches = InstanceSketches()
    for trace in traces:
        sketches.fold(trace, trace.completion_time, trace.end_to_end_latency_ms)
    return sketches


def _features(traces, **kwargs):
    return {f.instance: f for f in _fold(traces).features(NOW, WINDOW_S, **kwargs)}


def _extractor(traces, svm=None):
    """An Extractor built before ``traces`` settle through its coordinator."""
    engine = SimulationEngine()
    coordinator = TracingCoordinator(engine)
    extractor = Extractor(coordinator, svm=svm, window_s=WINDOW_S)
    for trace in traces:
        replayed = coordinator.begin_trace(trace.request_id, trace.request_type, trace.arrival_time)
        for span in trace.spans:
            coordinator.record_span(replayed, span)
        coordinator.complete_trace(replayed, trace.completion_time)
    engine.run_until(NOW)
    return extractor


@pytest.fixture
def traces():
    return _make_traces()


class TestFeatures:
    def test_features_computed_for_cp_instances(self, traces):
        paths, features = _extractor(traces).window_features()
        assert len(paths) == len(traces)
        assert {feature.instance for feature in features} == {"fe#0", "a#0", "b#0"}

    def test_culprit_has_higher_relative_importance(self, traces):
        features = _features(traces)
        assert features["b#0"].relative_importance > features["a#0"].relative_importance

    def test_culprit_has_higher_congestion_intensity(self, traces):
        features = _features(traces)
        assert features["b#0"].congestion_intensity > features["a#0"].congestion_intensity

    def test_min_samples_filter(self):
        assert MIN_SAMPLES == 5
        assert _features(_make_traces(n=MIN_SAMPLES - 1)) == {}
        assert set(_features(_make_traces(n=MIN_SAMPLES))) == {"fe#0", "a#0", "b#0"}

    def test_feature_vector_order(self):
        feature = InstanceFeatures(
            instance="x#0", service="x", relative_importance=0.5,
            congestion_intensity=2.0, sample_count=10,
        )
        np.testing.assert_allclose(feature.as_vector(), [0.5, 2.0])

    def test_pearson_degenerate_is_zero(self):
        features = _features(_make_traces(n=1), min_samples=1)
        assert [f.relative_importance for f in features.values()] == [0.0, 0.0, 0.0]

    def test_congestion_intensity_empty_is_zero(self, traces):
        # Every fold has aged out of the window: no sojourns, so no ratio.
        later = _fold(traces).features(NOW + 100.0, WINDOW_S, min_samples=0)
        assert [f.congestion_intensity for f in later] == [0.0, 0.0, 0.0]

    def test_empty_paths_no_features(self):
        assert InstanceSketches().features(NOW, WINDOW_S) == []
        assert _extractor([]).window_features() == ([], [])


class TestLocalization:
    def test_culprit_flagged_by_cold_start(self, traces):
        candidates = set(_extractor(traces).analyse(force=True).candidate_instances)
        assert "b#0" in candidates
        assert "a#0" not in candidates

    def test_rank_orders_culprit_first(self, traces):
        extractor = _extractor(traces)
        _, features = extractor.window_features()
        scores = extractor.svm.decision_function(np.vstack([f.as_vector() for f in features]))
        assert features[int(np.argmax(scores))].instance == "b#0"

    def test_rank_empty_traces(self):
        result = _extractor([]).analyse(force=True)
        assert result.critical_paths == []
        assert result.candidates == []

    def test_training_from_ground_truth_improves_svm(self, traces):
        svm = IncrementalSVM(input_dim=2)
        loss = _extractor(traces, svm=svm).train_svm(["b"])
        assert svm.is_trained
        assert loss >= 0.0

    def test_trained_svm_still_flags_culprit(self, traces):
        extractor = _extractor(traces)
        for _ in range(20):
            extractor.train_svm(["b"])
        candidates = {f.service for f in extractor.analyse(force=True).candidates}
        assert "b" in candidates

    def test_training_with_no_traces_is_noop(self):
        extractor = _extractor([])
        assert extractor.train_svm(["b"]) == 0.0
        assert not extractor.svm.is_trained
