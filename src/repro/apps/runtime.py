"""Application runtime: executes requests against the simulated cluster.

The runtime is the glue between the application model (:mod:`repro.apps`),
the cluster substrate (:mod:`repro.cluster`), and the tracing substrate
(:mod:`repro.tracing`).  Given a :class:`~repro.apps.graph.ServiceGraph`
it deploys every service onto the cluster and then, for each arriving user
request, walks the request type's call plan:

* **sequential** children run one after another,
* **parallel** children are dispatched together and joined,
* **background** children are dispatched fire-and-forget (they complete and
  are traced, but the parent does not wait for them).

Every span is reported to the Tracing Coordinator as it completes, so the
execution history graph is available to FIRM's Extractor in near-real time,
exactly as in the paper's architecture (Fig. 6, modules 1-3).

Replica selection for the entry service and every downstream call goes
through the cluster's pluggable request router (:mod:`repro.routing`);
each span is stamped with the routing decision that placed it — policy
name plus the selected replica's queue depth and in-flight count at
decision time — so traces expose how the balancer distributed the load.

When an :class:`~repro.admission.gate.AdmissionGate` is attached
(``runtime.admission``), :meth:`ApplicationRuntime.submit_request` routes
through it — rate limiting, shedding, retries, hedging, and circuit
breaking all happen before :meth:`ApplicationRuntime.submit_attempt`
launches each physical attempt.  With no gate attached the fast path is
byte-identical to the pre-admission runtime.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

from repro.apps.graph import CallEdge, CallPattern, RequestType, ServiceGraph
from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceLimits
from repro.sim.engine import SimulationEngine
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.span import Span, SpanKind
from repro.tracing.trace import Trace

_request_ids = itertools.count(1)


class ApplicationRuntime:
    """Deploys an application and executes user requests on the cluster.

    Parameters
    ----------
    app:
        The application's service graph.
    cluster:
        The simulated cluster to deploy onto — either the shared
        :class:`~repro.cluster.cluster.Cluster` or a tenant-scoped
        :class:`~repro.cluster.cluster.TenantClusterView`.
    coordinator:
        Tracing coordinator receiving spans and completions.
    engine:
        Shared simulation engine.
    default_limits:
        Optional resource limits applied to every deployed container
        (defaults to the overprovisioned container defaults).
    tenant:
        Optional tenant identity; spans produced by this runtime are tagged
        with it so per-tenant analysis can filter a shared trace stream.
    """

    def __init__(
        self,
        app: ServiceGraph,
        cluster: Cluster,
        coordinator: TracingCoordinator,
        engine: SimulationEngine,
        default_limits: Optional[ResourceLimits] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.app = app
        self.cluster = cluster
        self.coordinator = coordinator
        self.engine = engine
        self.default_limits = default_limits
        self.tenant = tenant
        self.completed_requests = 0
        self.dropped_requests = 0
        #: Optional :class:`~repro.admission.gate.AdmissionGate`; when set,
        #: :meth:`submit_request` routes through it.
        self.admission = None
        self._deployed = False

    # -------------------------------------------------------------- deploy
    def deploy(self) -> None:
        """Deploy every service in the graph and register request-type SLOs."""
        if self._deployed:
            return
        for node in self.app.services.values():
            limits = (
                ResourceLimits(dict(self.default_limits.values))
                if self.default_limits is not None
                else None
            )
            self.cluster.deploy_service(
                node.profile, replicas=node.initial_replicas, limits=limits
            )
        for request_type in self.app.request_types.values():
            self.coordinator.register_slo(
                request_type.name,
                request_type.slo_latency_ms,
                services=request_type.services(),
            )
        self._deployed = True

    # -------------------------------------------------------------- execute
    def submit_request(
        self,
        request_type_name: str,
        on_complete: Optional[Callable[[Trace], None]] = None,
    ) -> Trace:
        """Submit one logical user request of the given type.

        Returns a trace immediately; spans are appended as the request
        progresses through the simulation, and ``on_complete`` (if given) is
        invoked with the finished trace when the response is sent.  With an
        admission gate attached the request passes through it first — it may
        be shed before launching (the returned trace is already dropped), and
        retried or hedged attempts each carry their own trace, with
        ``on_complete`` receiving the attempt that settled the request.
        """
        if self.admission is not None:
            return self.admission.submit(request_type_name, on_complete)
        return self.submit_attempt(request_type_name, on_complete)

    def submit_attempt(
        self,
        request_type_name: str,
        on_complete: Optional[Callable[[Trace], None]] = None,
        label: Optional[str] = None,
    ) -> Trace:
        """Launch one physical attempt of a request (no admission control).

        ``label`` (e.g. ``"retry1"``, ``"hedge1"``) suffixes the request id
        so retried/hedged attempts are first-class, distinguishable traces;
        ``None`` keeps the id byte-identical to the pre-admission format.
        When the entry replica rejects the attempt the returned trace is
        already dropped and ``on_complete`` is never invoked — callers that
        need synchronous rejection must check ``trace.dropped`` on return.
        """
        if not self._deployed:
            raise RuntimeError("application must be deployed before submitting requests")
        request_type = self.app.request_types[request_type_name]
        request_id = self.next_request_id(request_type_name, label)
        trace = self.coordinator.begin_trace(request_id, request_type_name, self.engine.now)
        self._execute_entry(trace, request_type, on_complete)
        return trace

    def next_request_id(self, request_type_name: str, label: Optional[str] = None) -> str:
        """Mint the next request id (ids never influence simulation results)."""
        request_id = f"{self.app.name}-{request_type_name}-{next(_request_ids)}"
        if label is not None:
            request_id = f"{request_id}-{label}"
        return request_id

    # ------------------------------------------------------------ internals
    def _execute_entry(
        self,
        trace: Trace,
        request_type: RequestType,
        on_complete: Optional[Callable[[Trace], None]],
    ) -> None:
        decision = self.cluster.route(request_type.entry_service)
        entry_instance = decision.instance

        def _entry_done(entry_span: Span) -> None:
            self.coordinator.complete_trace(trace, self.engine.now)
            self.completed_requests += 1
            if on_complete is not None:
                on_complete(trace)

        def _entry_finished(eq: float, st: float, ft: float) -> None:
            # The entry span's own compute is done; now run its call plan,
            # then close the span when all foreground children complete.
            entry_span = Span(
                request_id=trace.request_id,
                service=request_type.entry_service,
                instance=entry_instance.name,
                kind=SpanKind.ROOT,
                parent_id=None,
                enqueue_time=eq,
                start_time=st,
                tenant=self.tenant,
                tags=decision.span_tags(),
            )

            def _children_done() -> None:
                entry_span.end_time = self.engine.now
                self.coordinator.record_span(trace, entry_span)
                _entry_done(entry_span)

            self._execute_children(trace, entry_span, request_type.call_plan, _children_done)

        accepted = entry_instance.submit(
            trace.request_id, request_type.entry_service, _entry_finished
        )
        if not accepted:
            self.coordinator.drop_trace(trace)
            self.dropped_requests += 1

    def _execute_children(
        self,
        trace: Trace,
        parent_span: Span,
        calls: Sequence[CallEdge],
        done: Callable[[], None],
    ) -> None:
        """Execute a list of sibling calls honouring their workflow patterns.

        Parallel siblings are grouped into consecutive runs and dispatched
        together; sequential siblings wait for all previously dispatched
        foreground work; background siblings are dispatched immediately and
        never waited on.
        """
        foreground = [c for c in calls if c.pattern is not CallPattern.BACKGROUND]
        background = [c for c in calls if c.pattern is CallPattern.BACKGROUND]

        # Background calls: fire-and-forget.
        for call in background:
            self._execute_call(trace, parent_span, call, on_done=None)

        if not foreground:
            done()
            return

        # Group foreground calls into stages: consecutive PARALLEL calls form
        # one stage dispatched concurrently; a SEQUENTIAL call is its own stage.
        stages: List[List[CallEdge]] = []
        for call in foreground:
            if (
                call.pattern is CallPattern.PARALLEL
                and stages
                and stages[-1][0].pattern is CallPattern.PARALLEL
            ):
                stages[-1].append(call)
            else:
                stages.append([call])

        def _run_stage(index: int) -> None:
            if index >= len(stages):
                done()
                return
            stage = stages[index]
            remaining = len(stage)

            def _one_done() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    _run_stage(index + 1)

            for call in stage:
                self._execute_call(trace, parent_span, call, on_done=_one_done)

        _run_stage(0)

    def _execute_call(
        self,
        trace: Trace,
        parent_span: Span,
        call: CallEdge,
        on_done: Optional[Callable[[], None]],
    ) -> None:
        """Execute one RPC: run the callee's compute, then its own children."""
        try:
            decision = self.cluster.route(call.callee)
            instance = decision.instance
        except KeyError:
            # Service not deployed (should not happen for validated graphs);
            # treat the call as instantly failed so the request can proceed.
            if on_done is not None:
                on_done()
            return

        kind = {
            CallPattern.SEQUENTIAL: SpanKind.SEQUENTIAL,
            CallPattern.PARALLEL: SpanKind.PARALLEL,
            CallPattern.BACKGROUND: SpanKind.BACKGROUND,
        }[call.pattern]

        def _compute_finished(eq: float, st: float, ft: float) -> None:
            span = Span(
                request_id=trace.request_id,
                service=call.callee,
                instance=instance.name,
                kind=kind,
                parent_id=parent_span.span_id,
                enqueue_time=eq,
                start_time=st,
                tenant=self.tenant,
                tags=decision.span_tags(),
            )

            def _children_done() -> None:
                span.end_time = self.engine.now
                self.coordinator.record_span(trace, span)
                if on_done is not None:
                    on_done()

            self._execute_children(trace, span, call.children, _children_done)

        accepted = instance.submit(trace.request_id, call.callee, _compute_finished)
        if not accepted:
            # The downstream queue is saturated; record a dropped span and
            # unblock the caller so the request either completes degraded or
            # is counted as dropped by the caller's SLO accounting.
            span = Span(
                request_id=trace.request_id,
                service=call.callee,
                instance=instance.name,
                kind=kind,
                parent_id=parent_span.span_id,
                enqueue_time=self.engine.now,
                start_time=self.engine.now,
                end_time=self.engine.now,
                dropped=True,
                tenant=self.tenant,
                tags=decision.span_tags(),
            )
            self.coordinator.record_span(trace, span)
            if not trace.dropped:
                self.coordinator.drop_trace(trace)
                self.dropped_requests += 1
            if on_done is not None:
                on_done()
