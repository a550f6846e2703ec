"""Critical path extraction (Algorithm 1 of the paper).

The critical path (CP) of a request's execution history graph is the path
of maximal duration from the client request to the service response.  The
extractor walks the span tree from the root, following at each level the
child whose completion determines when the parent can return ("last
returned child"), while also descending into any sibling whose execution
happens-before that child (a sequential predecessor also lies on the CP).
Background spans never participate.

A completed trace's critical path is fixed, which lets the Extractor carry
a path over from one control round to the next rather than re-extracting
it (:meth:`repro.core.extractor.Extractor.window_features`, keyed by the
``Trace`` object, kept for one window).  Every foreground span closes, and
is recorded, before its parent does, and the trace completes when the root
closes; what a trace can still gain afterwards is a background span or a
span beneath one (including a dropped one), and the walk never enters a
background span.  Spans are not changed once recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.tracing.span import Span
from repro.tracing.trace import Trace


@dataclass
class CriticalPath:
    """One extracted critical path.

    Attributes
    ----------
    request_id:
        The request whose execution history graph was analysed.
    spans:
        Spans on the CP, ordered from the root (frontend) outward.
    """

    request_id: str
    spans: List[Span] = field(default_factory=list)

    @property
    def services(self) -> List[str]:
        """Service names along the CP (root first, no duplicates)."""
        seen: List[str] = []
        for span in self.spans:
            if span.service not in seen:
                seen.append(span.service)
        return seen

    @property
    def instances(self) -> List[str]:
        """Instance names along the CP (root first, no duplicates)."""
        seen: List[str] = []
        for span in self.spans:
            if span.instance not in seen:
                seen.append(span.instance)
        return seen

    @property
    def total_latency_ms(self) -> float:
        """Sum of sojourn times along the CP (ms).

        The root span's sojourn already covers its children's foreground
        time, so end-to-end latency is bounded by the root span; the sum is
        reported for per-service attribution (Table 1's "Individual
        Latency" columns).
        """
        return sum(span.sojourn_time_ms for span in self.spans)

    @property
    def end_to_end_latency_ms(self) -> float:
        """Root-span sojourn time (ms) — the request's end-to-end latency."""
        if not self.spans:
            return 0.0
        return self.spans[0].sojourn_time_ms

    def latency_of(self, service: str) -> float:
        """Total CP sojourn time (ms) attributed to one service."""
        return sum(span.sojourn_time_ms for span in self.spans if span.service == service)

    def signature(self) -> tuple:
        """Hashable service-sequence signature (used to group identical CPs)."""
        return tuple(self.services)

    def __len__(self) -> int:
        return len(self.spans)

    def __contains__(self, service: str) -> bool:
        return service in self.services


class CriticalPathExtractor:
    """Extracts critical paths from execution history graphs (Algorithm 1)."""

    def extract(self, trace: Trace) -> CriticalPath:
        """Extract the critical path of one trace.

        Returns an empty path for traces without a root span (dropped
        requests whose frontend span never completed).
        """
        root = trace.root
        path = CriticalPath(request_id=trace.request_id)
        if root is None:
            return path
        self._walk(trace, root, path.spans)
        return path

    def extract_all(self, traces: Sequence[Trace]) -> List[CriticalPath]:
        """Extract critical paths for a batch of traces (incomplete ones skipped)."""
        paths = []
        for trace in traces:
            if trace.root is None:
                continue
            paths.append(self.extract(trace))
        return paths

    # ------------------------------------------------------------- internals
    def _walk(self, trace: Trace, current: Span, path: List[Span]) -> None:
        """Append the critical path from ``current`` to ``path`` (paper Algorithm 1).

        Starting from the last-returned foreground child (the child whose
        completion releases the parent), the walk chains backwards through
        the predecessors that gate it: among the children that happen
        before the cursor, the one finishing latest is the stage's critical
        child.  Parallel siblings that finish earlier than the stage's
        critical child are, by definition, off the critical path.  Each
        critical child is then expanded, earliest first.  Ties on
        ``end_time`` go to the first child in ``(enqueue_time, span_id)``
        order.  A leaf costs one lookup, and a span with one foreground
        child hands the walk straight to it.
        """
        path.append(current)
        children = trace.foreground_children_of(current)
        if not children:
            return
        if len(children) == 1:
            self._walk(trace, children[0], path)
            return

        cursor = children[0]
        for child in children:
            if child.end_time > cursor.end_time:
                cursor = child
        chain = [cursor]
        while True:
            bound = cursor.enqueue_time
            latest = None
            for child in children:
                if child.end_time <= bound and (
                    latest is None or child.end_time > latest.end_time
                ):
                    latest = child
            if latest is None:
                break
            cursor = latest
            chain.append(cursor)

        for span in reversed(chain):
            self._walk(trace, span, path)

    # ------------------------------------------------------------ utilities
    def group_by_signature(
        self, paths: Sequence[CriticalPath]
    ) -> Dict[tuple, List[CriticalPath]]:
        """Group CPs by their service-sequence signature.

        Fig. 3 of the paper compares the latency distributions of the
        minimum- and maximum-latency CPs of each application; grouping by
        signature is the first step.
        """
        groups: Dict[tuple, List[CriticalPath]] = {}
        for path in paths:
            groups.setdefault(path.signature(), []).append(path)
        return groups

    def min_max_signature_latencies(
        self, paths: Sequence[CriticalPath]
    ) -> Dict[str, List[float]]:
        """End-to-end latency samples of the fastest and slowest CP groups.

        Groups with fewer than 5 observations are ignored to avoid single
        outlier paths dominating.  Returns ``{"min_cp": [...], "max_cp": [...]}``.
        """
        groups = self.group_by_signature(paths)
        eligible = {
            signature: [p.end_to_end_latency_ms for p in group]
            for signature, group in groups.items()
            if len(group) >= 5
        }
        if not eligible:
            eligible = {
                signature: [p.end_to_end_latency_ms for p in group]
                for signature, group in groups.items()
            }
        if not eligible:
            return {"min_cp": [], "max_cp": []}

        def median(samples: List[float]) -> float:
            ordered = sorted(samples)
            middle = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[middle]
            return 0.5 * (ordered[middle - 1] + ordered[middle])

        min_signature = min(eligible, key=lambda s: median(eligible[s]))
        max_signature = max(eligible, key=lambda s: median(eligible[s]))
        return {"min_cp": eligible[min_signature], "max_cp": eligible[max_signature]}
