"""Property-based tests for critical-path extraction over random span trees."""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.core.critical_path import CriticalPathExtractor
from repro.tracing.span import Span, SpanKind
from repro.tracing.trace import Trace

#: Every time in a generated tree is a multiple of this, so enqueue and end
#: times tie often and exactly.
UNIT = 0.25

#: Nesting levels below the root.
MAX_DEPTH = 3


def _span(service: str, kind: SpanKind, parent: "Span | None", start: float) -> Span:
    return Span(
        request_id="r", service=service, instance=f"{service}#0", kind=kind,
        parent_id=None if parent is None else parent.span_id,
        enqueue_time=start, start_time=start,
    )


@st.composite
def random_trace(draw):
    """Generate a random, well-formed execution history graph.

    Each span runs its foreground children in stages after an optional
    queueing delay: a stage of one child is SEQUENTIAL, a stage of two or
    three is PARALLEL (siblings start together or one unit apart), and the
    next stage starts when the previous one ends or one unit later, so the
    two kinds mix under one parent.  A span may also fire a BACKGROUND child
    that outlives it and has foreground descendants of its own.  Trees nest
    up to :data:`MAX_DEPTH` levels below the root.  Times are multiples of
    :data:`UNIT`, so siblings often tie on ``enqueue_time`` or ``end_time``.
    Durations are strictly positive.  Spans are added to the trace in a
    random order, so neither insertion order nor span-id order matches the
    enqueue order.
    """
    spans: List[Span] = []

    def subtree(service, kind, parent, start, depth):
        span = _span(service, kind, parent, start)
        spans.append(span)
        cursor = start + UNIT * draw(st.integers(0, 1))
        if depth < MAX_DEPTH:
            for stage in range(draw(st.integers(0, MAX_DEPTH - depth))):
                width = draw(st.integers(1, 3 if depth == 0 else 2))
                stage_kind = SpanKind.SEQUENTIAL if width == 1 else SpanKind.PARALLEL
                ends = [
                    subtree(
                        f"{service}.{stage}{index}", stage_kind, span,
                        cursor + UNIT * draw(st.integers(0, 1)), depth + 1,
                    )
                    for index in range(width)
                ]
                cursor = max(ends) + UNIT * draw(st.integers(0, 1))
            if draw(st.booleans()):
                subtree(
                    f"{service}.bg", SpanKind.BACKGROUND, span,
                    start + UNIT * draw(st.integers(0, 2)), depth + 1,
                )
        span.end_time = cursor + UNIT * draw(st.integers(1, 3))
        return span.end_time

    total_end = subtree("frontend", SpanKind.ROOT, None, 0.0, 0)
    trace = Trace("r", "main")
    trace.arrival_time = 0.0
    for index in draw(st.permutations(range(len(spans)))):
        trace.add_span(spans[index])
    trace.mark_complete(total_end)
    return trace


def _trace_of(*spans: Span) -> Trace:
    """A completed trace of ``spans`` (the root first), added in reverse."""
    trace = Trace("r", "main")
    trace.arrival_time = 0.0
    for span in reversed(spans):
        trace.add_span(span)
    trace.mark_complete(spans[0].end_time)
    return trace


def _tied_end_trace() -> Trace:
    """Parallel siblings that end together: the first by enqueue time wins."""
    root = _span("frontend", SpanKind.ROOT, None, 0.0)
    late = _span("late", SpanKind.PARALLEL, root, 0.5)
    early = _span("early", SpanKind.PARALLEL, root, 0.25)
    late.end_time = early.end_time = 2.0
    root.end_time = 2.5
    return _trace_of(root, late, early)


def _tied_enqueue_trace() -> Trace:
    """Siblings tied on both enqueue and end time: the lower span id wins."""
    root = _span("frontend", SpanKind.ROOT, None, 0.0)
    first = _span("first", SpanKind.PARALLEL, root, 0.25)
    second = _span("second", SpanKind.PARALLEL, root, 0.25)
    leaf = _span("second.leaf", SpanKind.SEQUENTIAL, second, 0.5)
    first.end_time = second.end_time = 1.5
    leaf.end_time = 1.0
    root.end_time = 2.0
    return _trace_of(root, first, second, leaf)


def _back_to_back_trace() -> Trace:
    """A stage that starts exactly when the one before ends, after a tied pair."""
    root = _span("frontend", SpanKind.ROOT, None, 0.0)
    a = _span("a", SpanKind.PARALLEL, root, 0.25)
    b = _span("b", SpanKind.PARALLEL, root, 0.25)
    a.end_time = b.end_time = 1.0
    c = _span("c", SpanKind.SEQUENTIAL, root, 1.0)
    background = _span("bg", SpanKind.BACKGROUND, root, 0.25)
    beneath = _span("bg.child", SpanKind.SEQUENTIAL, background, 0.5)
    c.end_time = 1.5
    beneath.end_time = 4.0
    background.end_time = 4.5
    root.end_time = 1.75
    return _trace_of(root, a, b, c, background, beneath)


def _oracle_foreground_children(trace: Trace, span: Span) -> List[Span]:
    """Foreground children as the recursive walk read them: every child, sorted, filtered."""
    return [child for child in trace.children_of(span) if child.kind is not SpanKind.BACKGROUND]


def _longest_path(trace: Trace, current: Span) -> List[Span]:
    """The recursive walk the extractor used before it appended into one list."""
    path: List[Span] = [current]
    children = _oracle_foreground_children(trace, current)
    if not children:
        return path

    chain: List[Span] = []
    cursor = max(children, key=lambda span: span.end_time)
    chain.append(cursor)
    while True:
        predecessors = [
            child for child in children if child.happens_before(cursor)
        ]
        if not predecessors:
            break
        cursor = max(predecessors, key=lambda span: span.end_time)
        chain.append(cursor)

    for span in reversed(chain):
        path.extend(_longest_path(trace, span))
    return path


def _foreground_reachable(trace: Trace) -> set:
    """Ids of the spans reachable from the root through foreground children."""
    reached, frontier = set(), [trace.root]
    while frontier:
        span = frontier.pop()
        reached.add(span.span_id)
        frontier.extend(_oracle_foreground_children(trace, span))
    return reached


class TestMatchesRecursiveWalk:
    @given(random_trace())
    @example(_tied_end_trace())
    @example(_tied_enqueue_trace())
    @example(_back_to_back_trace())
    @settings(max_examples=300, deadline=None)
    def test_same_spans_in_same_order(self, trace):
        got = CriticalPathExtractor().extract(trace).spans
        want = _longest_path(trace, trace.root)
        assert [id(span) for span in got] == [id(span) for span in want]

    def test_tie_examples_pick_the_first_in_enqueue_order(self):
        assert CriticalPathExtractor().extract(_tied_end_trace()).services == [
            "frontend", "early",
        ]
        assert CriticalPathExtractor().extract(_tied_enqueue_trace()).services == [
            "frontend", "first",
        ]
        assert CriticalPathExtractor().extract(_back_to_back_trace()).services == [
            "frontend", "a", "c",
        ]

    @given(random_trace())
    @settings(max_examples=80, deadline=None)
    def test_foreground_children_match_the_sorted_filter(self, trace):
        for span in trace.spans:
            assert list(trace.foreground_children_of(span)) == _oracle_foreground_children(
                trace, span
            )


class TestCriticalPathInvariants:
    @given(random_trace())
    @settings(max_examples=80)
    def test_root_is_first_on_path(self, trace):
        path = CriticalPathExtractor().extract(trace)
        assert path.spans[0] is trace.root

    @given(random_trace())
    @settings(max_examples=80)
    def test_background_never_on_path(self, trace):
        path = CriticalPathExtractor().extract(trace)
        reachable = _foreground_reachable(trace)
        assert all(span.span_id in reachable for span in path.spans)
        assert all(span.kind is not SpanKind.BACKGROUND for span in path.spans)

    @given(random_trace())
    @settings(max_examples=80)
    def test_path_spans_belong_to_trace(self, trace):
        path = CriticalPathExtractor().extract(trace)
        trace_span_ids = {span.span_id for span in trace.spans}
        assert all(span.span_id in trace_span_ids for span in path.spans)

    @given(random_trace())
    @settings(max_examples=80)
    def test_no_duplicate_spans_on_path(self, trace):
        path = CriticalPathExtractor().extract(trace)
        ids = [span.span_id for span in path.spans]
        assert len(ids) == len(set(ids))

    @given(random_trace())
    @settings(max_examples=80)
    def test_end_to_end_equals_root_sojourn(self, trace):
        path = CriticalPathExtractor().extract(trace)
        assert abs(path.end_to_end_latency_ms - trace.root.sojourn_time_ms) < 1e-9

    @given(random_trace())
    @settings(max_examples=80)
    def test_path_includes_last_finishing_foreground_child(self, trace):
        path = CriticalPathExtractor().extract(trace)
        foreground = trace.foreground_children_of(trace.root)
        if foreground:
            last = max(foreground, key=lambda span: span.end_time)
            assert last.service in path.services

    @given(random_trace())
    @settings(max_examples=80)
    def test_signature_stable_across_extractions(self, trace):
        extractor = CriticalPathExtractor()
        assert extractor.extract(trace).signature() == extractor.extract(trace).signature()
