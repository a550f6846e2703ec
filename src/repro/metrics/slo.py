"""SLO violation accounting and mitigation-time measurement.

Two trackers support the paper's headline metrics:

* :class:`SLOTracker` counts completed/violating/dropped requests over an
  experiment, giving the SLO-violation counts in Fig. 10.
* :class:`MitigationTracker` measures the time from SLO-violation onset to
  recovery (tail latency back under the SLO), giving the mitigation times
  in Fig. 11(b).

Multi-tenant runs keep one :class:`SLOTracker` per tenant (each tenant has
its own SLO targets); :func:`merge_slo_trackers` folds them into the
cluster-level view reported by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.tracing.trace import Trace


@dataclass
class SLOTracker:
    """Counts SLO outcomes per request type.

    Attributes
    ----------
    slo_latency_ms:
        SLO threshold per request type.
    """

    slo_latency_ms: Dict[str, float]
    completed: int = 0
    violations: int = 0
    dropped: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    def observe(self, trace: Trace) -> None:
        """Account one settled trace (completed or dropped)."""
        if trace.dropped:
            self.dropped += 1
            return
        self.completed += 1
        latency = trace.end_to_end_latency_ms
        self.latencies_ms.append(latency)
        slo = self.slo_latency_ms.get(trace.request_type)
        if slo is not None and latency > slo:
            self.violations += 1

    @property
    def violation_rate(self) -> float:
        """Fraction of completed requests that violated their SLO."""
        if self.completed == 0:
            return 0.0
        return self.violations / self.completed

    @property
    def violations_including_drops(self) -> int:
        """Violations plus dropped requests.

        A dropped request is a worse outcome than a slow one, so comparisons
        between controllers should count it as (at least) a violation;
        otherwise a controller that sheds load looks better than one that
        answers slowly.
        """
        return self.violations + self.dropped

    @property
    def total_requests(self) -> int:
        """Completed plus dropped requests."""
        return self.completed + self.dropped

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        return {
            "completed": float(self.completed),
            "violations": float(self.violations),
            "dropped": float(self.dropped),
            "violation_rate": self.violation_rate,
        }


def merge_slo_trackers(trackers: Sequence[SLOTracker]) -> SLOTracker:
    """Fold per-tenant trackers into one cluster-level tracker.

    Counts are summed and latency samples concatenated in tracker order.
    The merged ``slo_latency_ms`` keeps each request type's *tightest*
    target across tenants — purely informational, since every observation
    has already been classified against its own tenant's targets.
    """
    merged_slos: Dict[str, float] = {}
    for tracker in trackers:
        for request_type, slo in tracker.slo_latency_ms.items():
            current = merged_slos.get(request_type)
            merged_slos[request_type] = slo if current is None else min(current, slo)
    merged = SLOTracker(merged_slos)
    for tracker in trackers:
        merged.completed += tracker.completed
        merged.violations += tracker.violations
        merged.dropped += tracker.dropped
        merged.latencies_ms.extend(tracker.latencies_ms)
    return merged


@dataclass
class _ViolationEpisode:
    start_s: float
    end_s: Optional[float] = None

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s


class MitigationTracker:
    """Measures how long SLO-violation episodes last.

    Call :meth:`update` periodically with the current "is the SLO being
    violated" boolean; the tracker records episodes and exposes their
    durations (the mitigation times of Fig. 11(b)).
    """

    def __init__(self) -> None:
        self._episodes: List[_ViolationEpisode] = []
        self._open: Optional[_ViolationEpisode] = None

    def update(self, time_s: float, violating: bool) -> None:
        """Advance the tracker to ``time_s`` with the current violation state."""
        if violating and self._open is None:
            self._open = _ViolationEpisode(start_s=time_s)
        elif not violating and self._open is not None:
            self._open.end_s = time_s
            self._episodes.append(self._open)
            self._open = None

    def close(self, time_s: float) -> None:
        """Close any open episode at the end of the experiment."""
        if self._open is not None:
            self._open.end_s = time_s
            self._episodes.append(self._open)
            self._open = None

    @property
    def episodes(self) -> List[_ViolationEpisode]:
        return list(self._episodes)

    def mitigation_times_s(self) -> List[float]:
        """Durations of all closed violation episodes (seconds)."""
        return [episode.duration_s for episode in self._episodes if episode.duration_s is not None]

    def as_dict(self) -> dict:
        """Deterministic JSON form (episode count + durations).

        Without this, generic dataclass serialization fell back to
        ``str(tracker)`` — a repr containing the object's memory address,
        which broke byte-identical re-runs of otherwise fully seeded
        experiments.
        """
        return {
            "episodes": len(self._episodes),
            "mean_mitigation_time_s": self.mean_mitigation_time_s(),
            "mitigation_times_s": self.mitigation_times_s(),
        }

    def mean_mitigation_time_s(self) -> float:
        """Mean episode duration (0 when no episodes closed)."""
        times = self.mitigation_times_s()
        if not times:
            return 0.0
        return float(sum(times) / len(times))
