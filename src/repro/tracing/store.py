"""In-memory trace store (the graph-database substitute).

The paper stores execution history graphs in Neo4j; here a bounded
in-memory store indexes traces by request id, request type, and completion
time so the Extractor can query "recent traces of type X" efficiently.

In-flight traces are always retained; *finished* traces (completed or
dropped) pass through a SeededRNG-driven
:class:`~repro.telemetry.reservoir.ReservoirSampler`, so the store keeps a
uniform random sample of the whole run's traces in a small fixed budget.
Windowed aggregates (latency quantiles, drop rates) come from the
coordinator's sketches; the reservoir exists for structural queries —
critical paths, execution-graph inspection — that need whole traces.

Dropped-request accounting is incremental: a sorted index of
dropped-trace arrival times answers ``dropped_count(since)`` by bisection
instead of scanning every stored trace per call.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Dict, List, Optional, Set

from repro.sim.rng import SeededRNG
from repro.telemetry.reservoir import ReservoirSampler
from repro.tracing.trace import Trace

#: Finished traces kept by the reservoir.  Sized so the reservoir — the
#: one telemetry structure whose footprint is per-trace, not O(1) — stays
#: a small constant multiple of the sketches themselves while leaving
#: localization windows ~100 traces to extract critical paths from (an
#: 8 s window at 40 rps offers ~320; a uniform sample of a 4-window
#: campaign retains ~a third of them).
DEFAULT_RESERVOIR_CAPACITY = 512

#: Stale ids tolerated in a per-type index before it is worth compacting.
_COMPACT_MIN_STALE = 32


class TraceStore:
    """Time-indexed store of in-flight traces plus a reservoir of finished ones.

    Parameters
    ----------
    sampler:
        The reservoir deciding which finished traces are retained.  Its
        randomness must come from a named SeededRNG substream so retention
        is deterministic per seed; the default keeps
        :data:`DEFAULT_RESERVOIR_CAPACITY` traces drawn from seed 0's
        ``"trace-reservoir"`` substream.
    """

    def __init__(self, sampler: Optional[ReservoirSampler] = None) -> None:
        if sampler is None:
            sampler = ReservoirSampler(
                DEFAULT_RESERVOIR_CAPACITY, SeededRNG(0).cursor("trace-reservoir")
            )
        self.sampler = sampler
        self._traces: Dict[str, Trace] = {}
        self._by_type: Dict[str, List[str]] = defaultdict(list)
        self._stale_by_type: Dict[str, int] = defaultdict(int)
        #: Request ids of stored traces known to be dropped, plus their
        #: arrival times sorted for bisected windowed counts.
        self._dropped_ids: Set[str] = set()
        self._dropped_arrivals: List[float] = []

    # --------------------------------------------------------------- mutation
    def add(self, trace: Trace) -> None:
        """Insert a trace (idempotent for the same request id)."""
        if trace.request_id in self._traces:
            return
        self._traces[trace.request_id] = trace
        self._by_type[trace.request_type].append(trace.request_id)
        if trace.dropped:
            self._record_drop(trace)

    def note_finished(self, trace: Trace) -> None:
        """Tell the store a trace finished (completed or dropped).

        The coordinator calls this exactly once per trace.  It keeps the
        dropped-count index current and offers the finished trace to the
        sampler — discarding whichever trace the reservoir no longer holds.
        """
        if trace.dropped:
            self._record_drop(trace)
        displaced = self.sampler.offer(trace.request_id)
        if displaced is not None:
            self._discard(displaced)

    def _record_drop(self, trace: Trace) -> None:
        if trace.request_id in self._dropped_ids:
            return
        self._dropped_ids.add(trace.request_id)
        insort(self._dropped_arrivals, trace.arrival_time or 0.0)

    def _forget_drop(self, trace: Trace) -> None:
        if trace.request_id not in self._dropped_ids:
            return
        self._dropped_ids.discard(trace.request_id)
        arrival = trace.arrival_time or 0.0
        index = bisect_left(self._dropped_arrivals, arrival)
        del self._dropped_arrivals[index]

    def _discard(self, request_id: str) -> None:
        """Drop one trace from the store, leaving its index id stale."""
        trace = self._traces.pop(request_id, None)
        if trace is None:
            return
        self._forget_drop(trace)
        self._mark_stale(trace.request_type)

    def _mark_stale(self, request_type: str) -> None:
        self._stale_by_type[request_type] += 1
        stale = self._stale_by_type[request_type]
        ids = self._by_type[request_type]
        if stale >= _COMPACT_MIN_STALE and stale * 2 > len(ids):
            live = self._traces
            self._by_type[request_type] = [rid for rid in ids if rid in live]
            self._stale_by_type[request_type] = 0

    # ---------------------------------------------------------------- queries
    def get(self, request_id: str) -> Optional[Trace]:
        """Fetch a trace by request id (None when absent or discarded)."""
        return self._traces.get(request_id)

    def __len__(self) -> int:
        return len(self._traces)

    def all_traces(self) -> List[Trace]:
        """Every stored trace, oldest first."""
        return list(self._traces.values())

    def completed_traces(
        self,
        request_type: Optional[str] = None,
        since: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Trace]:
        """Completed traces, optionally filtered by type and arrival time."""
        if request_type is None:
            candidates = list(self._traces.values())
        else:
            traces = self._traces
            candidates = [
                traces[rid]
                for rid in self._by_type.get(request_type, ())
                if rid in traces
            ]
        selected = [
            trace
            for trace in candidates
            if trace.is_complete
            and (since is None or (trace.arrival_time or 0.0) >= since)
        ]
        if limit is not None:
            selected = selected[-limit:]
        return selected

    def dropped_count(self, since: Optional[float] = None) -> int:
        """Number of stored dropped requests (optionally arrivals >= since).

        Answered from the incrementally maintained drop index — O(1), or
        O(log drops) with a ``since`` bound — rather than a full scan.
        """
        if since is None:
            return len(self._dropped_ids)
        return len(self._dropped_arrivals) - bisect_left(self._dropped_arrivals, since)

    def request_types(self) -> List[str]:
        """Request types observed so far."""
        return sorted(self._by_type)

    def latencies_ms(
        self, request_type: Optional[str] = None, since: Optional[float] = None
    ) -> List[float]:
        """End-to-end latencies (ms) of completed traces matching the filter."""
        return [
            trace.end_to_end_latency_ms
            for trace in self.completed_traces(request_type=request_type, since=since)
        ]

    # ---------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Retained trace footprint (traces, spans, and indexes)."""
        from repro.telemetry.memory import deep_sizeof

        return deep_sizeof(
            (
                self._traces,
                self._by_type,
                self._dropped_ids,
                self._dropped_arrivals,
                self.sampler,
            )
        )
