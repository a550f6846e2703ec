"""Critical paths carried over between control rounds equal fresh extractions.

:meth:`Extractor.window_features` keeps the previous call's paths, keyed by
``Trace``, and extracts only the traces new to the window.  That is sound
only because a completed trace's critical path never changes; these tests
check the carry-over against a fresh extraction on a real FIRM run and on
a trace that gains background spans after it completed.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from repro.core.critical_path import CriticalPathExtractor
from repro.core.extractor import Extractor
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, TenantSpec, random_campaign_builder
from repro.sim.engine import SimulationEngine
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.span import Span, SpanKind

DURATION_S = 20.0


def _fresh(extractor):
    """What ``window_features`` returns when nothing is carried over."""
    traces = extractor.coordinator.recent_traces(extractor.window_s)
    if not traces:
        return [], []
    paths = CriticalPathExtractor().extract_all(traces)
    instances = sorted({span.instance for path in paths for span in path.spans})
    features = extractor.sketches.features(
        extractor.coordinator.engine.now, extractor.window_s, instances=instances
    )
    return paths, features


def _same_paths(got, want):
    assert [path.request_id for path in got] == [path.request_id for path in want]
    for carried, fresh in zip(got, want):
        assert [id(span) for span in carried.spans] == [id(span) for span in fresh.spans]


@pytest.fixture(scope="module")
def firm_run():
    """A 20 s two-tenant FIRM run with every extractor call checked against a fresh one.

    Both tenants run the ``firm`` controller; the social-network tenant
    also gets resource interference, so its rounds see SLO violations.
    Besides FIRM's own calls, each tenant's extractor is read on every
    control round, so every round compares.
    """
    spec = ScenarioSpec(
        seed=1,
        duration_s=DURATION_S,
        cluster_nodes=(2, 0),
        tenants=[
            TenantSpec(
                name="victim", application="social_network", load_rps=40.0,
                controller="firm",
                campaign_builder=partial(
                    random_campaign_builder, duration_s=DURATION_S, rate_per_s=0.5,
                    min_intensity=0.7, resource_only=True, start_s=1.0,
                ),
            ),
            TenantSpec(
                name="neighbour", application="hotel_reservation", load_rps=20.0,
                controller="firm",
            ),
        ],
    )
    harness = ExperimentHarness.from_spec(spec)
    record = {"calls": [], "extracted": Counter(), "sizes": {}}
    for tenant in harness.tenants:
        extractor = tenant.controller.extractor
        extract = extractor.path_extractor.extract
        window_features = extractor.window_features

        def counted(trace, extract=extract):
            record["extracted"][trace] += 1
            record["sizes"][trace] = len(trace)
            return extract(trace)

        def checked(extractor=extractor, window_features=window_features):
            got = window_features()
            traces = extractor.coordinator.recent_traces(extractor.window_s)
            record["calls"].append((got, _fresh(extractor)))
            assert len(extractor._window_paths) <= len(traces)
            return got

        extractor.path_extractor.extract = counted
        extractor.window_features = checked
        interval = tenant.controller.config.control_interval_s
        harness.engine.schedule_recurring(
            interval, lambda engine, read=checked: read(), name="check-carry-over",
            until=DURATION_S,
        )
    harness.run(duration_s=DURATION_S)
    return record


class TestCarryOverOnFirmRun:
    def test_every_round_matches_a_fresh_extraction(self, firm_run):
        assert len(firm_run["calls"]) >= 2 * int(DURATION_S / 2.0) - 2
        for (paths, features), (fresh_paths, fresh_features) in firm_run["calls"]:
            _same_paths(paths, fresh_paths)
            assert features == fresh_features

    def test_rounds_saw_traces(self, firm_run):
        assert sum(1 for (paths, _), _ in firm_run["calls"] if paths) >= len(firm_run["calls"]) // 2

    def test_each_trace_is_extracted_once(self, firm_run):
        extracted = firm_run["extracted"]
        assert extracted
        assert max(extracted.values()) == 1
        windows = sum(len(paths) for (paths, _), _ in firm_run["calls"])
        assert len(extracted) < windows

    def test_traces_gained_spans_after_their_path_was_kept(self, firm_run):
        # Background work outlives the response, so the assumption the
        # carry-over rests on is exercised, not vacuous.
        assert any(len(trace) > size for trace, size in firm_run["sizes"].items())


class TestPathFixedAfterCompletion:
    def _completed(self):
        engine = SimulationEngine()
        coordinator = TracingCoordinator(engine)
        extractor = Extractor(coordinator, window_s=5.0)
        trace = coordinator.begin_trace("r1", "main", 0.0)

        def span(service, kind, parent, t0, t1, **fields):
            return Span(
                request_id="r1", service=service, instance=f"{service}#0", kind=kind,
                parent_id=None if parent is None else parent.span_id,
                enqueue_time=t0, start_time=t0, end_time=t1, **fields,
            )

        root = span("fe", SpanKind.ROOT, None, 0.0, 0.5)
        a = span("a", SpanKind.PARALLEL, root, 0.1, 0.3)
        b = span("b", SpanKind.PARALLEL, root, 0.1, 0.4)
        for closed in (a, b, root):
            coordinator.record_span(trace, closed)
        coordinator.complete_trace(trace, 0.5)
        engine.run_until(1.0)
        return engine, coordinator, extractor, trace, root, span

    def test_background_span_after_completion(self):
        engine, coordinator, extractor, trace, root, span = self._completed()
        (before,), _ = extractor.window_features()
        background = span("bg", SpanKind.BACKGROUND, root, 0.2, 1.2)
        beneath = span("bg.child", SpanKind.SEQUENTIAL, background, 0.3, 1.1)
        for closed in (beneath, background):
            coordinator.record_span(trace, closed)
        engine.run_until(1.5)
        (after,), _ = extractor.window_features()
        assert after is before
        _same_paths([after], [CriticalPathExtractor().extract(trace)])
        assert after.services == ["fe", "b"]

    def test_dropped_background_span_after_completion(self):
        engine, coordinator, extractor, trace, root, span = self._completed()
        (before,), _ = extractor.window_features()
        # What the runtime records when a background call finds its callee's
        # queue full: a zero-length dropped span, then a drop that a settled
        # trace ignores.
        dropped = span("bg", SpanKind.BACKGROUND, root, 1.2, 1.2, dropped=True)
        coordinator.record_span(trace, dropped)
        coordinator.drop_trace(trace)
        engine.run_until(1.5)
        assert trace.is_complete and not trace.dropped
        (after,), _ = extractor.window_features()
        assert after is before
        _same_paths([after], [CriticalPathExtractor().extract(trace)])

    def test_trace_leaves_the_kept_map_with_the_window(self):
        engine, coordinator, extractor, trace, *_ = self._completed()
        extractor.window_features()
        assert list(extractor._window_paths) == [trace]
        engine.run_until(6.0)
        assert extractor.window_features() == ([], [])
        assert extractor._window_paths == {}
