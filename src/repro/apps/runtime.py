"""Application runtime: executes requests against the simulated cluster.

The runtime is the glue between the application model (:mod:`repro.apps`),
the cluster substrate (:mod:`repro.cluster`), and the tracing substrate
(:mod:`repro.tracing`).  Given a :class:`~repro.apps.graph.ServiceGraph`
it deploys every service onto the cluster and compiles each request type's
call plan into a static call tree (:func:`compile_plan`).  For each arriving
user request it walks that tree:

* **sequential** children run one after another,
* **parallel** children are dispatched together and joined,
* **background** children are dispatched fire-and-forget (they complete and
  are traced, but the parent does not wait for them).

Each node of the tree already holds its span kind, its background children
and its foreground stages, so a request only walks it: one slotted
:class:`_Call` per RPC carries the state of that walk, and is also the
callee instance's queued work (:class:`~repro.cluster.instance.Work`).

Every span is reported to the Tracing Coordinator as it completes, so the
execution history graph is available to FIRM's Extractor in near-real time,
exactly as in the paper's architecture (Fig. 6, modules 1-3).

Replica selection for the entry service and every downstream call goes
through the cluster's pluggable request router (:mod:`repro.routing`),
which counts every decision per replica.

When an :class:`~repro.admission.gate.AdmissionGate` is attached
(``runtime.admission``), :meth:`ApplicationRuntime.submit_request` routes
through it — rate limiting, shedding, retries, hedging, and circuit
breaking all happen before :meth:`ApplicationRuntime.submit_attempt`
launches each physical attempt.  With no gate attached the fast path is
byte-identical to the pre-admission runtime.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.graph import CallEdge, CallPattern, RequestType, ServiceGraph
from repro.cluster.cluster import Cluster
from repro.cluster.instance import Work
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
        #: Optional :class:`~repro.admission.gate.AdmissionGate`; when set,
        #: :meth:`submit_request` routes through it.
        self.admission = None
        #: Compiled call tree per request type, built by :meth:`deploy`.
        self._plans: Dict[str, _CallNode] = {}
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
            self._plans[request_type.name] = compile_plan(request_type)
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
        plan = self._plans[request_type_name]
        request_id = self.next_request_id(request_type_name, label)
        trace = self.coordinator.begin_trace(request_id, request_type_name, self.engine.now)
        instance = self.cluster.route(plan.callee)
        entry = _EntryCall(self, trace, plan, None)
        entry.on_complete = on_complete
        if not instance.submit(entry):
            self.coordinator.drop_trace(trace)
        return trace

    def next_request_id(self, request_type_name: str, label: Optional[str] = None) -> str:
        """Mint the next request id (ids never influence simulation results)."""
        request_id = f"{self.app.name}-{request_type_name}-{next(_request_ids)}"
        if label is not None:
            request_id = f"{request_id}-{label}"
        return request_id

    # ------------------------------------------------------------ internals
    def _call(self, trace: Trace, parent: "_Call", node: "_CallNode") -> None:
        """Execute one RPC: route it, then queue the callee's compute."""
        try:
            instance = self.cluster.route(node.callee)
        except KeyError:
            # Service not deployed (should not happen for validated graphs);
            # treat the call as instantly failed so the request can proceed.
            if node.kind is not SpanKind.BACKGROUND:
                parent.child_done()
            return
        if instance.submit(_Call(self, trace, node, parent)):
            return
        # The downstream queue is saturated: record a dropped span, drop the
        # trace (the coordinator ignores the drop of a settled trace), then
        # unblock a foreground caller.  The entry span still closes, but the
        # request stays dropped.
        now = self.engine.now
        span = Span(
            request_id=trace.request_id,
            service=node.callee,
            instance=instance.name,
            kind=node.kind,
            parent_id=parent.span.span_id,
            enqueue_time=now,
            start_time=now,
            end_time=now,
            dropped=True,
            tenant=self.tenant,
        )
        self.coordinator.record_span(trace, span)
        self.coordinator.drop_trace(trace)
        if node.kind is not SpanKind.BACKGROUND:
            parent.child_done()


class _CallNode:
    """One RPC of a compiled call plan; static once built.

    ``background`` holds the fire-and-forget child calls; ``stages`` the
    foreground ones, grouped so that consecutive PARALLEL calls form one
    stage dispatched together and every SEQUENTIAL call is a stage of its
    own.  Stages run one after another.
    """

    __slots__ = ("callee", "kind", "background", "stages")

    def __init__(self, callee: str, kind: SpanKind, calls: Sequence[CallEdge]) -> None:
        self.callee = callee
        self.kind = kind
        background: List[_CallNode] = []
        stages: List[List[_CallNode]] = []
        for call in calls:
            child = _CallNode(call.callee, SpanKind(call.pattern.value), call.children)
            if call.pattern is CallPattern.BACKGROUND:
                background.append(child)
            elif (
                call.pattern is CallPattern.PARALLEL
                and stages
                and stages[-1][0].kind is SpanKind.PARALLEL
            ):
                stages[-1].append(child)
            else:
                stages.append([child])
        self.background = tuple(background)
        self.stages = tuple(tuple(stage) for stage in stages)


def compile_plan(request_type: RequestType) -> _CallNode:
    """The call tree of ``request_type``, rooted at its entry service."""
    return _CallNode(request_type.entry_service, SpanKind.ROOT, request_type.call_plan)


class _Call(Work):
    """One RPC in flight: a compiled node being served for one trace.

    The call is the callee instance's queued work, so ``computed`` is its
    completion callback; it opens the span and starts the node's children.
    Background children are submitted first, then the foreground stages one
    at a time; each foreground child reports back through ``child_done``,
    and the span closes when the last stage has drained.
    """

    __slots__ = ("runtime", "trace", "node", "parent", "span", "stage", "pending")

    def __init__(
        self,
        runtime: ApplicationRuntime,
        trace: Trace,
        node: _CallNode,
        parent: Optional["_Call"],
    ) -> None:
        self.runtime = runtime
        self.trace = trace
        self.node = node
        self.parent = parent

    def computed(self, enqueue_time: float, start_time: float, finish_time: float) -> None:
        parent = self.parent
        node = self.node
        runtime = self.runtime
        trace = self.trace
        self.span = Span(
            request_id=trace.request_id,
            service=node.callee,
            instance=self.instance.name,
            kind=node.kind,
            parent_id=None if parent is None else parent.span.span_id,
            enqueue_time=enqueue_time,
            start_time=start_time,
            tenant=runtime.tenant,
        )
        for child in node.background:
            runtime._call(trace, self, child)
        if node.stages:
            self.stage = 0
            self._run_stage(node.stages[0])
        else:
            self._close()

    def _run_stage(self, stage: Tuple[_CallNode, ...]) -> None:
        self.pending = len(stage)
        runtime = self.runtime
        trace = self.trace
        for child in stage:
            runtime._call(trace, self, child)

    def child_done(self) -> None:
        """One foreground child finished (or failed) its whole subtree."""
        self.pending -= 1
        if self.pending == 0:
            stages = self.node.stages
            self.stage += 1
            if self.stage < len(stages):
                self._run_stage(stages[self.stage])
            else:
                self._close()

    def _close(self) -> None:
        span = self.span
        span.end_time = self.runtime.engine.now
        self.runtime.coordinator.record_span(self.trace, span)
        if self.node.kind is not SpanKind.BACKGROUND:
            self.parent.child_done()


class _EntryCall(_Call):
    """The entry service's RPC: closing it completes the request."""

    __slots__ = ("on_complete",)

    def _close(self) -> None:
        runtime = self.runtime
        trace = self.trace
        now = runtime.engine.now
        self.span.end_time = now
        runtime.coordinator.record_span(trace, self.span)
        runtime.coordinator.complete_trace(trace, now)
        if self.on_complete is not None:
            self.on_complete(trace)
