"""Trace: the execution history graph of one distributed request.

A trace combines the spans collected from every microservice instance that
participated in serving one user request into a tree (the execution history
graph of Definition 2.2).  The critical-path extractor operates on this
structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.tracing.span import Span, SpanKind


def _enqueue_order(span: Span) -> tuple:
    """Sort key of sibling spans: enqueue time, then span id."""
    return (span.enqueue_time, span.span_id)


class Trace:
    """Execution history graph of one request.

    Parameters
    ----------
    request_id:
        Identifier of the distributed request.
    request_type:
        Name of the request type (e.g. ``post-compose``); carried so the
        coordinator can group traces per request type for SLO accounting.
    """

    __slots__ = (
        "request_id",
        "request_type",
        "tenant",
        "_spans",
        "_children",
        "arrival_time",
        "completion_time",
        "dropped",
    )

    def __init__(self, request_id: str, request_type: str, tenant: Optional[str] = None) -> None:
        self.request_id = request_id
        self.request_type = request_type
        #: Tenant that issued the request (None when untenanted).
        self.tenant = tenant
        self._spans: Dict[int, Span] = {}
        self._children: Dict[Optional[int], List[int]] = {}
        self.arrival_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.dropped = False

    # --------------------------------------------------------------- building
    def add_span(self, span: Span) -> Span:
        """Add a span to the trace and register it under its parent."""
        if span.request_id != self.request_id:
            raise ValueError(
                f"span belongs to request {span.request_id!r}, trace is {self.request_id!r}"
            )
        self._spans[span.span_id] = span
        siblings = self._children.get(span.parent_id)
        if siblings is None:
            self._children[span.parent_id] = [span.span_id]
        else:
            siblings.append(span.span_id)
        return span

    def mark_complete(self, completion_time: float) -> None:
        """Record end-to-end completion (the Service Response to the client)."""
        self.completion_time = completion_time

    def mark_dropped(self) -> None:
        """Record that this request was dropped (queue saturation)."""
        self.dropped = True

    # ---------------------------------------------------------------- queries
    @property
    def spans(self) -> List[Span]:
        """All spans, ordered by enqueue time then id."""
        return sorted(self._spans.values(), key=_enqueue_order)

    def span(self, span_id: int) -> Span:
        return self._spans[span_id]

    @property
    def root(self) -> Optional[Span]:
        """The root span (the frontend's span), or None for an empty trace."""
        roots = self._children.get(None, [])
        if not roots:
            return None
        return self._spans[roots[0]]

    def children_of(self, span: Span) -> List[Span]:
        """Child spans of ``span``, ordered by enqueue time."""
        child_ids = self._children.get(span.span_id, [])
        children = [self._spans[cid] for cid in child_ids]
        return sorted(children, key=_enqueue_order)

    def foreground_children_of(self, span: Span) -> Sequence[Span]:
        """Children excluding background workflows (not part of any CP).

        Ordered by enqueue time, like :meth:`children_of`.  The critical-path
        walk calls this once per span it visits, so a leaf gets a shared
        empty tuple and only a list of two or more is sorted.
        """
        child_ids = self._children.get(span.span_id)
        if child_ids is None:
            return ()
        spans = self._spans
        children = [
            child
            for child in map(spans.__getitem__, child_ids)
            if child.kind is not SpanKind.BACKGROUND
        ]
        if len(children) > 1:
            children.sort(key=_enqueue_order)
        return children

    @property
    def end_to_end_latency(self) -> float:
        """End-to-end latency in seconds (None-safe: 0 when incomplete)."""
        if self.arrival_time is None:
            return 0.0
        end = self.completion_time
        if end is None:
            end = max((span.end_time for span in self._spans.values()), default=self.arrival_time)
        return max(0.0, end - self.arrival_time)

    @property
    def end_to_end_latency_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.end_to_end_latency * 1000.0

    @property
    def is_complete(self) -> bool:
        """Whether the response has been recorded."""
        return self.completion_time is not None

    def services(self) -> List[str]:
        """Unique service names appearing in the trace."""
        seen: List[str] = []
        for span in self.spans:
            if span.service not in seen:
                seen.append(span.service)
        return seen

    def instances(self) -> List[str]:
        """Unique instance names appearing in the trace."""
        seen: List[str] = []
        for span in self.spans:
            if span.instance not in seen:
                seen.append(span.instance)
        return seen

    def latency_of_service(self, service: str) -> float:
        """Total sojourn time (ms) spent in a given service for this request."""
        return sum(span.sojourn_time_ms for span in self._spans.values() if span.service == service)

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(request={self.request_id!r}, type={self.request_type!r}, "
            f"spans={len(self._spans)}, latency={self.end_to_end_latency_ms:.1f}ms)"
        )
