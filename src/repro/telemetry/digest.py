"""Run-level telemetry digests and their merge.

A :class:`TelemetryDigest` is what one tracing coordinator can publish
about a finished run without shipping raw samples: per request type a
latency :class:`~repro.telemetry.histogram.LogHistogram` plus
completed/dropped counters.  A multi-tenant run folds its tenants'
digests into one; the histogram merge is bin-wise integer addition, and
the fold order is fixed to tenant order so the float ``total`` fields
are summed in one canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.telemetry.histogram import LogHistogram


@dataclass
class TelemetryDigest:
    """Constant-size, picklable summary of one run's request telemetry."""

    #: Per-request-type end-to-end latency histograms (ms).
    latency: Dict[str, LogHistogram] = field(default_factory=dict)
    #: Completed / dropped request counts.
    completed: int = 0
    dropped: int = 0

    def observe_completion(self, request_type: str, latency_ms: float) -> None:
        histogram = self.latency.get(request_type)
        if histogram is None:
            histogram = self.latency[request_type] = LogHistogram()
        histogram.add(latency_ms)
        self.completed += 1

    def observe_drop(self) -> None:
        self.dropped += 1

    def merge(self, other: "TelemetryDigest") -> None:
        """Fold another digest into this one (bin-wise addition)."""
        for request_type, histogram in other.latency.items():
            mine = self.latency.get(request_type)
            if mine is None:
                self.latency[request_type] = histogram.copy()
            else:
                mine.merge(histogram)
        self.completed += other.completed
        self.dropped += other.dropped

    def copy(self) -> "TelemetryDigest":
        clone = TelemetryDigest(completed=self.completed, dropped=self.dropped)
        clone.latency = {name: hist.copy() for name, hist in self.latency.items()}
        return clone

    def as_dict(self) -> Dict[str, object]:
        """Headline JSON-friendly view (used by reports, not fingerprints)."""
        return {
            "completed": self.completed,
            "dropped": self.dropped,
            "request_types": {
                name: {
                    "count": hist.count,
                    "p50_ms": round(hist.quantile(50.0), 3),
                    "p99_ms": round(hist.quantile(99.0), 3),
                }
                for name, hist in sorted(self.latency.items())
            },
        }


def merge_telemetry_digests(
    digests: Sequence[Optional[TelemetryDigest]],
) -> Optional[TelemetryDigest]:
    """Non-destructive fold of digests in the order given (None-safe).

    Callers fix the order — the harness folds in tenant order — so the
    float ``total`` fields are summed canonically; the integer state is
    order-independent.
    """
    merged: Optional[TelemetryDigest] = None
    for digest in digests:
        if digest is None:
            continue
        if merged is None:
            merged = digest.copy()
        else:
            merged.merge(digest)
    return merged
