"""Experiment harness: builds and runs full end-to-end scenarios.

The harness wires one simulated cluster shared by **one or more tenants**.
Each tenant bundles a benchmark application, its tracing coordinator, a
workload generator, an optional anomaly campaign, and an optional resource
controller (looked up by name in the controller registry) — all captured
in a :class:`TenantRuntime` and deployed by :meth:`ExperimentHarness.add_tenant`.
A single-application spec deploys one *untenanted* tenant: it sees the raw
cluster, keeps its services' plain names and draws from the master RNG.
Named tenants namespace every service, tag traces/telemetry with tenant
identity, and scope their controller through a
:class:`~repro.cluster.cluster.TenantClusterView` while contention flows
across tenants through the shared nodes.

Scenarios are described declaratively by
:class:`~repro.experiments.scenario.ScenarioSpec` (optionally carrying
:class:`~repro.experiments.scenario.TenantSpec` entries) and built with
:meth:`ExperimentHarness.from_spec`, the only constructor; every
per-figure experiment module is a thin layer over this harness.

SLO accounting is streaming and per tenant: the harness observes each
trace through the owning tenant's tracing-coordinator completion hook the
moment the request finishes, so heavy-traffic runs do not need to retain
every trace until the end and traces the
:class:`~repro.tracing.store.TraceStore` reservoir discards are still
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.admission.config import resolve_admission_config
from repro.admission.gate import AdmissionGate
from repro.anomaly.campaigns import AnomalyCampaign
from repro.anomaly.injector import PerformanceAnomalyInjector
from repro.apps.catalog import build_application
from repro.apps.graph import ServiceGraph
from repro.apps.runtime import ApplicationRuntime
from repro.baselines.base import ResourceController, create_controller
from repro.cluster.cluster import Cluster, TenantClusterView
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.scheduler import PlacementPolicy, Scheduler
from repro.cluster.telemetry import TelemetryCollector
from repro.controllers.manager import ControllerManager
from repro.experiments.scenario import ScenarioSpec, TenantSpec
from repro.metrics.latency import LatencyStats
from repro.metrics.slo import MitigationTracker, SLOTracker, merge_slo_trackers
from repro.obs.run import Observability
from repro.routing.dispatchers import DISPATCH_VARIANTS
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG
from repro.telemetry.digest import merge_telemetry_digests
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.trace import Trace
from repro.workload.generators import WorkloadGenerator
from repro.workload.patterns import ConstantPattern


#: The per-application fields a single-application spec hands its
#: untenanted tenant: every field the two spec types share, except the
#: run-wide ``routing`` and ``admission`` the harness applies itself.
_UNTENANTED_FIELDS = tuple(
    sorted(
        ({f.name for f in fields(ScenarioSpec)} & {f.name for f in fields(TenantSpec)})
        - {"routing", "admission"}
    )
)


class TenantRuntime:
    """One tenant's full wiring inside a shared harness.

    A named tenant sees the cluster through a tenant-scoped view, its
    services are namespaced under its name, and its RNG is a child family
    spawned from the master seed.  An untenanted tenant (``tenant_id is
    None``, what a single-application spec deploys) sees the raw cluster,
    keeps plain service names, and draws from the harness master RNG.
    Campaign builders receive this object and read its ``.app`` and
    ``.rng``.
    """

    def __init__(
        self,
        name: Optional[str],
        app: ServiceGraph,
        view,
        coordinator: TracingCoordinator,
        runtime: ApplicationRuntime,
        orchestrator: Orchestrator,
        rng: SeededRNG,
        manager: ControllerManager,
    ) -> None:
        #: Tenant identity (None for an untenanted tenant).
        self.tenant_id = name
        self.app = app
        #: Cluster or TenantClusterView the tenant deploys/queries through.
        self.view = view
        self.coordinator = coordinator
        self.runtime = runtime
        self.orchestrator = orchestrator
        self.rng = rng
        #: The tenant's sensing reads (its controller pulls through it).
        self.manager = manager
        self.workload: Optional[WorkloadGenerator] = None
        self.injector: Optional[PerformanceAnomalyInjector] = None
        self.campaign: Optional[AnomalyCampaign] = None
        self.controller: Optional[ResourceController] = None
        self.controller_name = "none"

    @property
    def admission(self) -> Optional[AdmissionGate]:
        """The tenant's admission gate (lives on its application runtime)."""
        return self.runtime.admission

    @property
    def display_name(self) -> str:
        """Tenant identity for reports (an untenanted tenant reports its app)."""
        return self.tenant_id if self.tenant_id is not None else self.app.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantRuntime(tenant={self.tenant_id!r}, app={self.app.name!r}, "
            f"controller={self.controller_name!r})"
        )


class _Headline:
    """The headline summary shared by run-level and per-tenant results."""

    slo: SLOTracker
    latency: LatencyStats
    mitigation: MitigationTracker
    requested_cpu_samples: List[float]

    @property
    def mean_requested_cpu(self) -> float:
        """Mean of the requested-CPU samples (Fig. 10(b))."""
        if not self.requested_cpu_samples:
            return 0.0
        return float(sum(self.requested_cpu_samples) / len(self.requested_cpu_samples))

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports.

        ``dropped`` comes from the streaming SLO tracker so it covers the
        same accounting window as ``completed``/``violations``
        (``dropped_requests`` stays the runtime's cumulative counter).
        """
        return {
            "completed": float(self.slo.completed),
            "violations": float(self.slo.violations),
            "violation_rate": self.slo.violation_rate,
            "dropped": float(self.slo.dropped),
            "p50_ms": self.latency.median,
            "p99_ms": self.latency.p99,
            "mean_requested_cpu": self.mean_requested_cpu,
            "mean_mitigation_time_s": self.mitigation.mean_mitigation_time_s(),
        }


@dataclass
class TenantResult(_Headline):
    """Per-tenant outcome of one harness run (named tenants only)."""

    tenant: str
    application: str
    controller: str
    slo: SLOTracker
    latency: LatencyStats
    mitigation: MitigationTracker
    requested_cpu_samples: List[float] = field(default_factory=list)
    dropped_requests: int = 0


@dataclass
class ExperimentResult(_Headline):
    """Aggregate outcome of one harness run.

    The top-level ``slo``/``latency`` fields are the merged cluster-level
    view across tenants; the per-tenant breakdown of named tenants is
    available via :attr:`tenant_results` (kept off the dataclass fields so
    generic JSON exports of untenanted runs carry no tenant block).
    """

    application: str
    controller: str
    duration_s: float
    slo: SLOTracker
    latency: LatencyStats
    mitigation: MitigationTracker
    requested_cpu_samples: List[float] = field(default_factory=list)
    cluster_cpu_utilization_samples: List[float] = field(default_factory=list)
    dropped_requests: int = 0

    def __post_init__(self) -> None:
        #: Per-tenant results of named tenants, in tenant order (empty for
        #: an untenanted run).  A plain attribute, not a dataclass field,
        #: so generic dataclass-to-JSON conversion of untenanted results
        #: carries no tenant block.
        self.tenant_results: Dict[str, TenantResult] = {}
        #: Run-level mergeable latency digest (None until the run
        #: finishes).  Kept off the dataclass fields for the same
        #: JSON-compatibility reason as ``tenant_results``.
        self.telemetry_digest = None
        #: Exported event-journal records and the metrics registry of an
        #: observability-enabled run (None with observability off).  Plain
        #: attributes for the same JSON-compatibility reason as above.
        self.journal = None
        self.metrics = None
        #: Admission-gate snapshot(s) of an admission-controlled run: the
        #: gate's ``snapshot()`` dict for an untenanted run, a dict of
        #: them keyed by tenant for named tenants, None with admission
        #: off.  A plain attribute for JSON byte-compatibility, like the
        #: attributes above.
        self.admission = None

    @property
    def mean_cluster_cpu_utilization(self) -> float:
        """Mean cluster-level CPU utilization over the run."""
        if not self.cluster_cpu_utilization_samples:
            return 0.0
        return float(
            sum(self.cluster_cpu_utilization_samples)
            / len(self.cluster_cpu_utilization_samples)
        )

    def per_tenant_summary(self) -> Dict[str, Dict[str, float]]:
        """Headline numbers per named tenant (empty for an untenanted run)."""
        return {name: result.summary() for name, result in self.tenant_results.items()}


class ExperimentHarness:
    """One fully wired scenario: tenants + shared cluster + controllers.

    Build it with :meth:`from_spec`; every tenant is deployed through
    :meth:`add_tenant`.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.engine = SimulationEngine()
        self.rng = SeededRNG(spec.seed)
        #: Per-run observability bundle (journal + metrics registry), or
        #: None when disabled — every instrumentation site checks for None
        #: so the disabled path stays byte-identical to pre-obs behaviour.
        self.obs: Optional[Observability] = Observability() if spec.observability else None
        scheduler = None
        if spec.placement is not None:
            scheduler = Scheduler(PlacementPolicy(spec.placement), rng=self.rng)
        node_specs = None
        if spec.cluster_nodes is not None:
            node_specs = Cluster.default_node_specs(*map(int, spec.cluster_nodes))
        self.cluster = Cluster(self.engine, self.rng, node_specs=node_specs, scheduler=scheduler)
        if self.obs is not None:
            self.cluster.router.enable_observability(self.obs, self.engine)
        self.telemetry = TelemetryCollector(self.cluster, self.engine)
        #: All tenants, in deployment order.
        self.tenants: List[TenantRuntime] = []

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "ExperimentHarness":
        """Build the fully wired harness described by ``spec``.

        Installs the cluster-wide dispatch and routing policies, then
        deploys every tenant in order through :meth:`add_tenant` onto the
        shared cluster, and starts telemetry last.  A spec without
        ``tenants`` deploys one untenanted tenant built from its
        single-application fields.  Each tenant's realized campaign is
        kept on ``tenant.campaign`` for experiments that need its schedule
        (e.g. its end time).
        """
        harness = cls(spec)
        harness._apply_dispatch_policy()
        if spec.routing is not None:
            harness.cluster.set_routing_policy(spec.routing)
        tenant_specs = spec.tenants or [
            TenantSpec(
                name=None,
                **{name: getattr(spec, name) for name in _UNTENANTED_FIELDS},
            )
        ]
        for tenant_spec in tenant_specs:
            harness.add_tenant(tenant_spec)
        harness.telemetry.start()
        return harness

    def _apply_dispatch_policy(self) -> None:
        """Install the spec's distributed-dispatch policy (if any).

        ``dispatchers=1`` installs nothing, leaving ``spec.routing`` (or
        the default) in charge.  ``dispatchers >= 2`` sets the cluster-wide
        policy to the ``dispatch_variant`` rule with the spec's dispatcher
        count and staleness; it is mutually exclusive with an explicit
        ``routing`` policy.
        """
        spec = self.spec
        if int(spec.dispatchers) <= 1:
            return
        if spec.routing is not None:
            raise ValueError(
                "dispatchers and routing are mutually exclusive: the "
                "dispatcher set is itself the cluster-wide routing policy"
            )
        if spec.dispatch_variant not in DISPATCH_VARIANTS:
            known = ", ".join(DISPATCH_VARIANTS)
            raise ValueError(
                f"unknown dispatch variant {spec.dispatch_variant!r}; known: {known}"
            )
        self.cluster.set_routing_policy(
            spec.dispatch_variant,
            dispatchers=int(spec.dispatchers),
            staleness_s=float(spec.dispatch_staleness_s),
        )

    # ------------------------------------------------------- tenant plumbing
    def add_tenant(self, tenant_spec: TenantSpec) -> TenantRuntime:
        """Deploy and fully wire one tenant onto the shared cluster.

        A named tenant's application graph is namespaced under its name,
        its RNG is an independent child family spawned from the master
        seed, and its coordinator/orchestrator/controller operate through a
        tenant-scoped cluster view.  An untenanted tenant (``name=None``)
        uses the raw cluster and the master RNG, and must be the harness's
        only tenant.  Either way, in order: deploy, replica overrides, SLO
        targets (the application's declared SLOs scaled by ``slo_scale``
        with optional per-request-type overrides), workload, campaign and
        injector, controller, admission gate.
        """
        name = tenant_spec.name
        if name == "":
            raise ValueError("tenant names must be non-empty")
        if self.tenants and (name is None or self.tenants[0].tenant_id is None):
            raise ValueError("an untenanted tenant must be the harness's only tenant")
        if any(t.tenant_id == name for t in self.tenants):
            raise ValueError(f"tenant {name!r} is already deployed")
        if tenant_spec.node_quota is not None:
            self.cluster.scheduler.node_quotas[name] = int(tenant_spec.node_quota)
        if tenant_spec.routing is not None:
            self.cluster.set_routing_policy(tenant_spec.routing, tenant=name)

        app = build_application(tenant_spec.application)
        if name is None:
            rng, view, prefix = self.rng, self.cluster, ""
        else:
            app = app.namespaced(name)
            rng = self.rng.spawn(f"tenant:{name}")
            view = TenantClusterView(self.cluster, name)
            prefix = f"{name}/"
        coordinator = TracingCoordinator(
            self.engine, telemetry=self.telemetry, tenant=name, rng=rng
        )
        runtime = ApplicationRuntime(app, view, coordinator, self.engine, tenant=name)
        orchestrator = Orchestrator(view, self.engine, rng)
        manager = ControllerManager(coordinator, view, runtime)
        tenant = TenantRuntime(name, app, view, coordinator, runtime, orchestrator, rng, manager)
        if self.obs is not None:
            orchestrator.obs = self.obs
            orchestrator.obs_source = tenant.display_name
        self.tenants.append(tenant)

        runtime.deploy()
        if tenant_spec.replicas:
            self._apply_replica_overrides(
                view, {prefix + svc: n for svc, n in tenant_spec.replicas.items()}
            )
        self._apply_slo_targets(tenant, tenant_spec)
        pattern = tenant_spec.pattern
        if pattern is None:
            pattern = ConstantPattern(rate=tenant_spec.load_rps)
        tenant.workload = WorkloadGenerator(
            runtime, self.engine, rng, pattern=pattern, request_mix=tenant_spec.request_mix
        )
        campaign = tenant_spec.campaign
        if campaign is None and tenant_spec.campaign_builder is not None:
            campaign = tenant_spec.campaign_builder(tenant)
        if campaign is not None:
            tenant.injector = PerformanceAnomalyInjector(
                view, self.engine, workload=tenant.workload, obs=self.obs
            )
            tenant.campaign = campaign
            tenant.injector.schedule_all(campaign.specs)
        self._attach_controller(
            tenant, tenant_spec.controller, **tenant_spec.controller_kwargs
        )
        admission = resolve_admission_config(
            tenant_spec.admission if tenant_spec.admission is not None else self.spec.admission
        )
        if admission is not None:
            runtime.admission = AdmissionGate(runtime, rng, admission, obs=self.obs)
        return tenant

    @staticmethod
    def _apply_replica_overrides(view, replicas: Dict[str, int]) -> None:
        """Top deployed services up to the requested replica counts.

        ``view`` is the cluster (untenanted) or a tenant's cluster view
        (service names already namespaced); counts below the deployed
        replica count are left alone — the override only ever adds
        replicas, it never scales a service in.
        """
        for service_name, target in replicas.items():
            current = len(view.replicas_of(service_name))
            if current == 0:
                raise ValueError(
                    f"replica override for unknown service {service_name!r}"
                )
            if int(target) > current:
                view.deploy_service(
                    view.profile_of(service_name), replicas=int(target) - current
                )

    @staticmethod
    def _apply_slo_targets(tenant: TenantRuntime, tenant_spec: TenantSpec) -> None:
        """Scale/override the SLOs the runtime registered at deploy time."""
        slos = tenant.coordinator.slo_latency_ms
        if tenant_spec.slo_scale != 1.0:
            for request_type in list(slos):
                slos[request_type] = slos[request_type] * float(tenant_spec.slo_scale)
        for request_type, value in (tenant_spec.slo_latency_ms or {}).items():
            slos[request_type] = float(value)

    def tenant(self, name: Optional[str]) -> TenantRuntime:
        """Look up a tenant by name (an untenanted tenant has name None)."""
        for tenant in self.tenants:
            if tenant.tenant_id == name:
                return tenant
        raise KeyError(f"no tenant named {name!r}")

    def _attach_controller(
        self, tenant: TenantRuntime, name: str, **kwargs
    ) -> None:
        """Create the tenant's registry controller, sensing through its manager.

        Raises ``ValueError`` for names missing from the registry; the
        ``"none"`` policy leaves the tenant without a controller.
        """
        controller = create_controller(
            name, tenant.view, tenant.coordinator, tenant.orchestrator, self.engine, **kwargs
        )
        if controller is not None:
            if self.obs is not None:
                controller.obs = self.obs
                controller.obs_source = tenant.display_name
            controller.stages = tenant.manager
        tenant.controller = controller
        tenant.controller_name = name

    # -------------------------------------------------------------------- run
    def run(
        self,
        duration_s: float = 120.0,
        sample_period_s: float = 1.0,
        warmup_s: float = 0.0,
    ) -> ExperimentResult:
        """Run the scenario for ``duration_s`` simulated seconds.

        ``warmup_s`` seconds at the start are excluded from SLO accounting
        (the cluster starts empty, so the first requests see cold queues).
        Every tenant's workload, campaign, and controller run concurrently
        on the shared engine; SLO statistics are tracked per tenant and
        merged into the cluster-level result (for a one-tenant run the
        merged view *is* the tenant's).

        Equivalent to :meth:`begin_run` + one ``advance_to(end_time)`` +
        ``finish()``.
        """
        session = self.begin_run(
            duration_s=duration_s,
            sample_period_s=sample_period_s,
            warmup_s=warmup_s,
        )
        try:
            session.advance_to(session.end_time)
        except BaseException:
            session.abort()
            raise
        return session.finish()

    def begin_run(
        self,
        duration_s: float = 120.0,
        sample_period_s: float = 1.0,
        warmup_s: float = 0.0,
    ) -> "RunSession":
        """Set a run up (trackers, hooks, sampling, controllers, workloads)
        without executing any events.

        Returns a :class:`RunSession` whose :meth:`RunSession.advance_to`
        drives the engine in increments, so a caller can time or inspect
        the run slice by slice (the firmbench runner advances in 0.25-s
        slices).  :meth:`run` is this call plus one advance to the end, so
        a session advanced in any slices reproduces ``run()`` byte for byte.
        """
        start_time = self.engine.now
        end_time = start_time + duration_s
        accounting_start = start_time + warmup_s

        requested_cpu: List[float] = []
        cpu_utilization: List[float] = []

        # Per-tenant streaming SLO accounting: observe every trace through
        # the owning tenant's coordinator the moment it finishes.  A trace
        # can fire twice in either order (a downstream drop before the
        # entry span completes, or a background call's rejection after it)
        # — "dropped" is the final word either way, matching the old
        # end-of-run scan of the trace store.
        trackers: List[Tuple[TenantRuntime, SLOTracker, MitigationTracker, List[float]]] = []
        hooks: List[Tuple[TracingCoordinator, object]] = []
        for tenant in self.tenants:
            slo_tracker = SLOTracker(dict(tenant.coordinator.slo_latency_ms))
            mitigation = MitigationTracker()
            tenant_cpu: List[float] = []
            trackers.append((tenant, slo_tracker, mitigation, tenant_cpu))
            latency_hist = completed_counter = dropped_counter = None
            if self.obs is not None:
                label = tenant.display_name
                latency_hist = self.obs.registry.histogram(
                    "request_latency_ms", tenant=label
                )
                completed_counter = self.obs.registry.counter(
                    "requests_total", tenant=label, outcome="completed"
                )
                dropped_counter = self.obs.registry.counter(
                    "requests_total", tenant=label, outcome="dropped"
                )
            hooks.append(
                (
                    tenant.coordinator,
                    self._make_observer(
                        slo_tracker,
                        accounting_start,
                        latency_hist=latency_hist,
                        completed_counter=completed_counter,
                        dropped_counter=dropped_counter,
                    ),
                )
            )

        cluster_mitigation = MitigationTracker() if len(self.tenants) > 1 else None

        obs = self.obs
        # Previous per-tenant violation flags, so the journal records SLO
        # *window* transitions (open/close) rather than every sample.
        prev_violating = [False] * len(trackers)

        def _sample(engine: SimulationEngine) -> None:
            requested_cpu.append(self.cluster.total_requested_cpu())
            cpu_utilization.append(self.cluster.cluster_cpu_utilization())
            any_violating = False
            for i, (tenant, _, mitigation, tenant_cpu) in enumerate(trackers):
                if tenant.tenant_id is not None:
                    tenant_cpu.append(tenant.view.total_requested_cpu())
                violating = tenant.coordinator.has_slo_violation(5.0)
                if obs is not None and violating != prev_violating[i]:
                    prev_violating[i] = violating
                    obs.journal.record(
                        engine.now, "slo_window", tenant.display_name, open=violating
                    )
                any_violating = any_violating or violating
                mitigation.update(engine.now, violating)
            if cluster_mitigation is not None:
                cluster_mitigation.update(engine.now, any_violating)

        # Bound the sampling recurrence to this run (and cancel it on exit)
        # so back-to-back run() calls on one harness never double-sample.
        sample_event = self.engine.schedule_recurring(
            sample_period_s, _sample, name="harness-sample", until=end_time
        )
        for coordinator, hook in hooks:
            coordinator.add_completion_hook(hook)
        try:
            for tenant in self.tenants:
                if tenant.controller is not None:
                    tenant.controller.start()
            for tenant in self.tenants:
                tenant.workload.start(duration_s=duration_s)
        except BaseException:
            for coordinator, hook in hooks:
                coordinator.remove_completion_hook(hook)
            sample_event.cancel()
            raise

        return RunSession(
            harness=self,
            duration_s=duration_s,
            end_time=end_time,
            trackers=trackers,
            hooks=hooks,
            sample_event=sample_event,
            cluster_mitigation=cluster_mitigation,
            requested_cpu=requested_cpu,
            cpu_utilization=cpu_utilization,
        )

    @staticmethod
    def _make_observer(
        slo_tracker: SLOTracker,
        accounting_start: float,
        latency_hist=None,
        completed_counter=None,
        dropped_counter=None,
    ):
        """A completion hook feeding one tenant's streaming SLO tracker.

        When observability metrics are passed in, each finished request
        also feeds the tenant's ``request_latency_ms`` histogram sketch
        and ``requests_total`` outcome counters.
        """
        outcomes: Dict[str, str] = {}

        def _observe_finished(trace: Trace) -> None:
            if (trace.arrival_time or 0.0) < accounting_start:
                return
            prior = outcomes.get(trace.request_id)
            if prior is None:
                dropped = trace.dropped
                outcomes[trace.request_id] = "dropped" if dropped else "completed"
                slo_tracker.observe(trace)
                if latency_hist is not None:
                    if dropped:
                        dropped_counter.inc()
                    else:
                        completed_counter.inc()
                        latency_hist.observe(trace.end_to_end_latency_ms)
            elif prior == "completed" and trace.dropped:
                outcomes[trace.request_id] = "dropped"
                slo_tracker.reclassify_as_dropped(trace)
                if dropped_counter is not None:
                    dropped_counter.inc()

        return _observe_finished

    def _collect_results(
        self,
        trackers: List[Tuple[TenantRuntime, SLOTracker, MitigationTracker, List[float]]],
        cluster_mitigation: Optional[MitigationTracker],
        duration_s: float,
        requested_cpu: List[float],
        cpu_utilization: List[float],
    ) -> ExperimentResult:
        """Assemble per-tenant results and the merged cluster-level view.

        Only named tenants get a :class:`TenantResult` and a keyed
        admission snapshot; an untenanted run reports its one gate flat.
        """
        if len(trackers) == 1:
            # One tenant: the merged view *is* the tenant's (identical
            # objects, identical numbers).
            tenant, slo_tracker, mitigation, _ = trackers[0]
            merged_slo = slo_tracker
            merged_mitigation = mitigation
            application = tenant.app.name
            controller = tenant.controller_name
        else:
            merged_slo = merge_slo_trackers([t[1] for t in trackers])
            merged_mitigation = cluster_mitigation
            application = "+".join(t[0].app.name for t in trackers)
            controller = "+".join(t[0].controller_name for t in trackers)

        result = ExperimentResult(
            application=application,
            controller=controller,
            duration_s=duration_s,
            slo=merged_slo,
            latency=LatencyStats.from_samples(merged_slo.latencies_ms),
            mitigation=merged_mitigation,
            requested_cpu_samples=requested_cpu,
            cluster_cpu_utilization_samples=cpu_utilization,
            dropped_requests=sum(t[0].runtime.dropped_requests for t in trackers),
        )
        result.telemetry_digest = merge_telemetry_digests(
            [t[0].coordinator.telemetry_digest() for t in trackers]
        )
        if self.obs is not None:
            result.journal = self.obs.journal.as_dicts()
            result.metrics = self.obs.registry
        for tenant, slo_tracker, mitigation, tenant_cpu in trackers:
            gate = tenant.admission
            if tenant.tenant_id is None:
                result.admission = gate.snapshot() if gate is not None else None
                continue
            result.tenant_results[tenant.tenant_id] = TenantResult(
                tenant=tenant.tenant_id,
                application=tenant.app.name,
                controller=tenant.controller_name,
                slo=slo_tracker,
                latency=LatencyStats.from_samples(slo_tracker.latencies_ms),
                mitigation=mitigation,
                requested_cpu_samples=tenant_cpu,
                dropped_requests=tenant.runtime.dropped_requests,
            )
            if gate is not None:
                result.admission = result.admission or {}
                result.admission[tenant.tenant_id] = gate.snapshot()
        return result


class RunSession:
    """An in-flight harness run that can be advanced in time increments.

    Produced by :meth:`ExperimentHarness.begin_run`.  The session owns the
    run's streaming accounting state (SLO trackers, completion hooks, the
    sampling recurrence); :meth:`advance_to` executes events up to a
    virtual-time barrier, and :meth:`finish` closes the accounting and
    assembles the :class:`ExperimentResult`.  Advancing a session to
    :attr:`end_time` in any number of slices is byte-identical to
    :meth:`ExperimentHarness.run` — ``run_until(b)`` then ``run_until(e)``
    executes exactly the events ``run_until(e)`` would — which is what
    lets the firmbench runner time a run in fixed slices.
    """

    def __init__(
        self,
        harness: ExperimentHarness,
        duration_s: float,
        end_time: float,
        trackers: List[Tuple[TenantRuntime, SLOTracker, MitigationTracker, List[float]]],
        hooks: List[Tuple[TracingCoordinator, object]],
        sample_event,
        cluster_mitigation: Optional[MitigationTracker],
        requested_cpu: List[float],
        cpu_utilization: List[float],
    ) -> None:
        self.harness = harness
        self.duration_s = duration_s
        self.end_time = end_time
        self._trackers = trackers
        self._hooks = hooks
        self._sample_event = sample_event
        self._cluster_mitigation = cluster_mitigation
        self._requested_cpu = requested_cpu
        self._cpu_utilization = cpu_utilization
        self._closed = False

    @property
    def now(self) -> float:
        """Current virtual time of the underlying engine."""
        return self.harness.engine.now

    def advance_to(self, time: float) -> None:
        """Execute events up to virtual time ``time`` (capped at the end)."""
        if self._closed:
            raise RuntimeError("run session is already closed")
        self.harness.engine.run_until(time if time < self.end_time else self.end_time)

    def finish(self) -> ExperimentResult:
        """Close accounting at the current time and assemble the result."""
        if self._closed:
            raise RuntimeError("run session is already closed")
        harness = self.harness
        try:
            for _, _, mitigation, _ in self._trackers:
                mitigation.close(harness.engine.now)
            if self._cluster_mitigation is not None:
                self._cluster_mitigation.close(harness.engine.now)
        finally:
            self._teardown()
        return harness._collect_results(
            self._trackers,
            self._cluster_mitigation,
            duration_s=self.duration_s,
            requested_cpu=self._requested_cpu,
            cpu_utilization=self._cpu_utilization,
        )

    def abort(self) -> None:
        """Tear the run down without collecting results (exception path)."""
        if not self._closed:
            self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        for coordinator, hook in self._hooks:
            coordinator.remove_completion_hook(hook)
        self._sample_event.cancel()
