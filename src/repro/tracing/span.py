"""Span model.

A span is the most basic unit of work done by one microservice instance
while serving one distributed request (paper §3.1).  It records when the
request arrived at the instance, when processing actually started (after
queueing), and when the response was sent back to the caller, together with
the parent/child relationship and the workflow pattern of the invocation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_span_ids = itertools.count(1)


class SpanKind(str, enum.Enum):
    """Workflow pattern of the invocation that produced this span."""

    ROOT = "root"
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    BACKGROUND = "background"


@dataclass(slots=True)
class Span:
    """One unit of work done by a microservice instance for a request.

    One span is allocated per RPC in every trace, so the dataclass is
    slotted: spans are the second most common object in a run after
    engine events.

    Attributes
    ----------
    span_id:
        Unique identifier within the trace store.
    request_id:
        Identifier of the distributed request this span belongs to.
    service:
        Microservice name (not the replica); used by the Extractor.
    instance:
        Replica name (``service#index``), the unit localization points at.
    parent_id:
        Span id of the caller, or ``None`` for the root span.
    kind:
        Whether the invocation was the root, sequential, parallel, or
        background with respect to its siblings.
    enqueue_time / start_time / end_time:
        Arrival at the instance, start of processing, response sent
        (simulation seconds).  ``sojourn`` = end - enqueue includes queueing.
    """

    request_id: str
    service: str
    instance: str
    kind: SpanKind = SpanKind.SEQUENTIAL
    parent_id: Optional[int] = None
    span_id: int = field(default_factory=_span_ids.__next__)
    enqueue_time: float = 0.0
    start_time: float = 0.0
    end_time: float = 0.0
    dropped: bool = False
    #: Tenant whose request produced this span (None when untenanted).
    tenant: Optional[str] = None

    # ------------------------------------------------------------- durations
    @property
    def sojourn_time(self) -> float:
        """Total time spent at the instance, including queueing (seconds)."""
        return max(0.0, self.end_time - self.enqueue_time)

    @property
    def queue_time(self) -> float:
        """Time spent waiting in the instance queue (seconds)."""
        return max(0.0, self.start_time - self.enqueue_time)

    @property
    def service_time(self) -> float:
        """Time spent actually processing (seconds)."""
        return max(0.0, self.end_time - self.start_time)

    @property
    def sojourn_time_ms(self) -> float:
        """Sojourn time in milliseconds (the unit used in the paper's tables)."""
        return self.sojourn_time * 1000.0

    def overlaps(self, other: "Span") -> bool:
        """True when the two spans' [enqueue, end] windows overlap.

        The paper uses this to classify sibling spans as parallel: two
        child spans of the same parent are parallel when their execution
        windows overlap.
        """
        return (
            self.enqueue_time < other.end_time and other.enqueue_time < self.end_time
        )

    def happens_before(self, other: "Span") -> bool:
        """True when this span finishes before ``other`` starts (sequential)."""
        return self.end_time <= other.enqueue_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(id={self.span_id}, service={self.service!r}, kind={self.kind.value}, "
            f"sojourn={self.sojourn_time_ms:.2f}ms)"
        )
