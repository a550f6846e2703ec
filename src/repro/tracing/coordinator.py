"""Tracing Coordinator.

The coordinator (module 1 in the paper's Fig. 6 architecture) is the single
collection point for spans and telemetry: application runtimes report spans
as they complete, the telemetry collector reports per-container samples,
and the Extractor / RL agent query the coordinator for recent traces,
latency distributions, SLO-violation status, and workload statistics.

Statistics are constant-memory: windowed latency quantiles come from
per-request-type ring-buffer log-histograms keyed on completion time,
arrival rates and request composition from ring-buffer counters keyed on
arrival time, all fed incrementally as traces finish.  The trace store
keeps a deterministic reservoir sample of finished traces for structural
queries (critical paths), and a run-level latency digest is folded across
tenants into the run result.

The per-instance localization sketches (sojourn histograms and co-moments
behind the Extractor's relative importance and congestion intensity) are
not the coordinator's: they exist only on a tenant whose FIRM Extractor or
localization scorer asked for them through :meth:`instance_sketches`, so a
tenant that never localizes never walks a completed trace's spans.

**Each trace settles once, here.**  The first :meth:`complete_trace` or
:meth:`drop_trace` call on a trace settles it as completed or dropped; a
later call on a settled trace returns at once, with no mark, sketch,
digest, store offer or hook.  A request dropped mid-flight (a downstream
queue was full) whose entry span still closes therefore stays dropped,
and a background call rejected after the response was sent records its
dropped span but leaves the request completed.  The digest's
``completed``/``dropped`` counters are the run's request outcomes, counted
at settle.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.telemetry import TelemetryCollector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG
from repro.telemetry.digest import TelemetryDigest
from repro.telemetry.reservoir import ReservoirSampler
from repro.telemetry.window import WindowedCounter, WindowedHistogram
from repro.tracing.instance_sketch import InstanceSketches
from repro.tracing.span import Span
from repro.tracing.store import DEFAULT_RESERVOIR_CAPACITY, TraceStore
from repro.tracing.trace import Trace

#: Ring geometry for windowed latency / arrival sketches: 0.5 s buckets ×
#: 256 slots = 128 s of history, covering every windowed query in the tree.
_LATENCY_BUCKET_S = 0.5
_LATENCY_BUCKETS = 256

class TracingCoordinator:
    """Collects traces + telemetry and answers the Extractor's queries.

    Parameters
    ----------
    engine:
        Shared simulation engine (provides the clock for windowed queries).
    telemetry:
        Optional telemetry collector to expose alongside traces.
    tenant:
        Optional tenant identity.  In a multi-tenant harness each tenant
        gets its own coordinator over the shared engine, so the coordinator
        only ever sees (and tags) its tenant's traces — SLO accounting,
        arrival-rate estimation, and the Extractor's queries are therefore
        per-tenant by construction while telemetry stays shared.
    rng:
        Seeded RNG providing the ``"trace-reservoir"`` substream for
        deterministic reservoir retention (seed 0 when omitted).
        Substreams are independent, so drawing from it perturbs no other
        stream.
    reservoir_capacity:
        Finished traces kept by the reservoir.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        telemetry: Optional[TelemetryCollector] = None,
        tenant: Optional[str] = None,
        rng: Optional[SeededRNG] = None,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    ) -> None:
        self.engine = engine
        self.telemetry = telemetry
        self.tenant = tenant
        cursor = (rng if rng is not None else SeededRNG(0)).cursor("trace-reservoir")
        self.store = TraceStore(ReservoirSampler(reservoir_capacity, cursor))
        self._latency_sketch: Dict[str, WindowedHistogram] = {}
        self._latency_all = WindowedHistogram(
            bucket_s=_LATENCY_BUCKET_S, buckets=_LATENCY_BUCKETS
        )
        self._arrival_sketch: Dict[str, WindowedCounter] = {}
        #: Per-instance localization sketches; built on a reader's first
        #: :meth:`instance_sketches` call, never for a tenant without one.
        self._instance_sketches: Optional[InstanceSketches] = None
        self._digest = TelemetryDigest()
        #: SLO latency per request type (ms); registered by the runtime.
        self.slo_latency_ms: Dict[str, float] = {}
        #: Service names each request type's call plan actually touches
        #: (when registered), letting controllers resolve per-instance SLOs
        #: from the requests routed through the instance's service.
        self.slo_request_services: Dict[str, Tuple[str, ...]] = {}
        #: Hooks invoked with each trace as it settles (completes or drops).
        #: Streaming observers (e.g. the harness's SLO accounting) use these
        #: instead of scanning the bounded store after the fact, so traces
        #: evicted from the store are still accounted.  Dispatch iterates a
        #: tuple snapshot rebuilt on add/remove, so the per-trace hot path
        #: never copies the hook list.
        self._completion_hooks: List[Callable[[Trace], None]] = []
        self._completion_hooks_snapshot: Tuple[Callable[[Trace], None], ...] = ()

    # --------------------------------------------------------------- ingest
    def register_slo(
        self,
        request_type: str,
        slo_latency_ms: float,
        services: Optional[Sequence[str]] = None,
    ) -> None:
        """Register the latency SLO for one request type.

        ``services`` optionally names the services the request type's call
        plan traverses (see :meth:`services_for_request_type`).
        """
        self.slo_latency_ms[request_type] = float(slo_latency_ms)
        if services is not None:
            self.slo_request_services[request_type] = tuple(services)

    def services_for_request_type(self, request_type: str) -> Tuple[str, ...]:
        """Services the request type routes through (empty if unregistered)."""
        return self.slo_request_services.get(request_type, ())

    def begin_trace(self, request_id: str, request_type: str, arrival_time: float) -> Trace:
        """Create a trace (tagged with this coordinator's tenant, if any)."""
        trace = Trace(request_id, request_type, tenant=self.tenant)
        trace.arrival_time = arrival_time
        self.store.add(trace)
        counter = self._arrival_sketch.get(request_type)
        if counter is None:
            counter = self._arrival_sketch[request_type] = WindowedCounter(
                bucket_s=_LATENCY_BUCKET_S, buckets=_LATENCY_BUCKETS
            )
        counter.add(arrival_time)
        return trace

    def record_span(self, trace: Trace, span: Span) -> None:
        """Attach a completed span to its trace."""
        trace.add_span(span)

    def complete_trace(self, trace: Trace, completion_time: float) -> None:
        """Settle the request as completed: its response reached the client.

        A no-op on a trace already settled (completed or dropped).
        """
        if trace.dropped or trace.completion_time is not None:
            return
        trace.mark_complete(completion_time)
        self._sketch_completion(trace, completion_time)
        self.store.note_finished(trace)
        self._fire_completion(trace)

    def drop_trace(self, trace: Trace) -> None:
        """Settle the request as dropped.

        A no-op on a trace already settled (completed or dropped).
        """
        if trace.dropped or trace.completion_time is not None:
            return
        trace.mark_dropped()
        self._digest.observe_drop()
        self.store.note_finished(trace)
        self._fire_completion(trace)

    def _sketch_completion(self, trace: Trace, completion_time: float) -> None:
        """Fold one completed trace into the windowed sketches and digest."""
        latency_ms = trace.end_to_end_latency_ms
        request_type = trace.request_type
        histogram = self._latency_sketch.get(request_type)
        if histogram is None:
            histogram = self._latency_sketch[request_type] = WindowedHistogram(
                bucket_s=_LATENCY_BUCKET_S, buckets=_LATENCY_BUCKETS
            )
        histogram.add(completion_time, latency_ms)
        self._latency_all.add(completion_time, latency_ms)
        self._digest.observe_completion(request_type, latency_ms)
        if self._instance_sketches is not None:
            self._instance_sketches.fold(trace, completion_time, latency_ms)

    # ------------------------------------------------------ completion hooks
    def add_completion_hook(self, hook: Callable[[Trace], None]) -> None:
        """Register ``hook`` to be called with every trace as it settles.

        The hook fires once per trace, when it completes or is dropped,
        whichever comes first; ``trace.dropped`` tells the two apart.
        """
        self._completion_hooks.append(hook)
        self._completion_hooks_snapshot = tuple(self._completion_hooks)

    def remove_completion_hook(self, hook: Callable[[Trace], None]) -> None:
        """Unregister a previously added completion hook (no-op if absent)."""
        if hook in self._completion_hooks:
            self._completion_hooks.remove(hook)
        self._completion_hooks_snapshot = tuple(self._completion_hooks)

    def _fire_completion(self, trace: Trace) -> None:
        for hook in self._completion_hooks_snapshot:
            hook(trace)

    # ----------------------------------------------------------------- stats
    def recent_traces(
        self,
        window_s: float,
        request_type: Optional[str] = None,
    ) -> List[Trace]:
        """Completed traces that arrived in the last ``window_s`` seconds.

        This is the reservoir-retained subset — a uniform sample of the
        run's finished traces restricted to the window — so structural
        consumers (critical paths) see representative traces while scalar
        statistics come from the sketches.
        """
        since = self.engine.now - window_s
        return self.store.completed_traces(request_type=request_type, since=since)

    def latency_percentile_ms(
        self, percentile: float, window_s: float, request_type: Optional[str] = None
    ) -> float:
        """Latency percentile (ms) of requests completed in the recent window.

        Returns 0 when the window is empty.
        """
        if request_type is None:
            histogram = self._latency_all
        else:
            histogram = self._latency_sketch.get(request_type)
            if histogram is None:
                return 0.0
        return histogram.quantile(percentile, self.engine.now, window_s)

    def arrival_rate(self, window_s: float, request_type: Optional[str] = None) -> float:
        """Request arrival rate (requests/second) over the recent window."""
        if window_s <= 0:
            return 0.0
        now = self.engine.now
        if request_type is not None:
            counter = self._arrival_sketch.get(request_type)
            count = counter.window_count(now, window_s) if counter is not None else 0
        else:
            count = sum(
                counter.window_count(now, window_s)
                for counter in self._arrival_sketch.values()
            )
        return count / window_s

    def request_composition(self, window_s: float) -> Dict[str, float]:
        """Fraction of arrivals per request type over the recent window."""
        now = self.engine.now
        counts: Dict[str, int] = {}
        for rtype, counter in self._arrival_sketch.items():
            count = counter.window_count(now, window_s)
            if count:
                counts[rtype] = count
        total = sum(counts.values())
        if total == 0:
            return {}
        return {rtype: count / total for rtype, count in sorted(counts.items())}

    # ------------------------------------------------------- SLO accounting
    def has_slo_violation(self, window_s: float, percentile: float = 99.0) -> bool:
        """Detection check: does the windowed tail latency exceed any SLO?

        The paper's Extractor is triggered when SLO violations are detected;
        we use the per-request-type tail latency versus the SLO.
        """
        for request_type, slo in self.slo_latency_ms.items():
            tail = self.latency_percentile_ms(percentile, window_s, request_type)
            if tail > slo:
                return True
        return False

    def per_service_latencies_ms(
        self, window_s: float, request_type: Optional[str] = None
    ) -> Dict[str, List[float]]:
        """Per-service sojourn-time samples (ms) from recent traces."""
        result: Dict[str, List[float]] = defaultdict(list)
        for trace in self.recent_traces(window_s, request_type):
            for span in trace.spans:
                result[span.service].append(span.sojourn_time_ms)
        return dict(result)

    # ------------------------------------------------- localization sketches
    def instance_sketches(self) -> InstanceSketches:
        """This tenant's per-instance localization sketches.

        The first call builds them, and every later completion is folded
        into them; readers (the FIRM Extractor, the localization scorer)
        call this when they are built, so every reader on one tenant shares
        one sketch and each completion is folded once.
        """
        sketches = self._instance_sketches
        if sketches is None:
            sketches = self._instance_sketches = InstanceSketches()
        return sketches

    def telemetry_digest(self) -> TelemetryDigest:
        """The run-level mergeable latency digest."""
        return self._digest

    # ---------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Retained trace + sketch footprint of this coordinator."""
        from repro.telemetry.memory import deep_sizeof

        roots = (
            self._latency_sketch,
            self._latency_all,
            self._arrival_sketch,
            self._instance_sketches,
            self._digest,
        )
        return self.store.memory_bytes() + deep_sizeof(roots)
