"""Experiment harness: builds and runs full end-to-end scenarios.

The harness wires one simulated cluster shared by **one or more tenants**.
Each tenant bundles a benchmark application, its tracing coordinator, a
workload generator, an optional anomaly campaign, and an optional resource
controller (looked up by name in the controller registry) — all captured
in a :class:`TenantRuntime`.  Single-tenant scenarios have exactly one
tenant whose wiring is identical to the classic harness (untenanted, no
service-name namespacing), so their results are unchanged; multi-tenant
scenarios namespace every tenant's services, tag traces/telemetry with
tenant identity, and scope each tenant's controller through a
:class:`~repro.cluster.cluster.TenantClusterView` while contention flows
across tenants through the shared nodes.

Scenarios are described declaratively by
:class:`~repro.experiments.scenario.ScenarioSpec` (optionally carrying
:class:`~repro.experiments.scenario.TenantSpec` entries) and built with
:meth:`ExperimentHarness.from_spec`; every per-figure experiment module is
a thin layer over this harness.

SLO accounting is streaming and per tenant: the harness observes each
trace through the owning tenant's tracing-coordinator completion hook the
moment the request finishes, so heavy-traffic runs do not need to retain
every trace until the end and traces the
:class:`~repro.tracing.store.TraceStore` reservoir discards are still
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission.config import resolve_admission_config
from repro.admission.gate import AdmissionGate
from repro.anomaly.campaigns import AnomalyCampaign
from repro.anomaly.injector import PerformanceAnomalyInjector
from repro.apps.catalog import build_application
from repro.apps.graph import ServiceGraph
from repro.apps.runtime import ApplicationRuntime
from repro.baselines.base import ResourceController, create_controller
from repro.cluster.cluster import Cluster, TenantClusterView
from repro.cluster.node import NodeSpec
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.scheduler import PlacementPolicy, Scheduler
from repro.cluster.telemetry import TelemetryCollector
from repro.controllers.manager import ControllerManager, StageBinding, StageCache
from repro.core.firm import FIRMConfig, FIRMController
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
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
from repro.workload.patterns import ArrivalPattern, ConstantPattern


class TenantRuntime:
    """One tenant's full wiring inside a (possibly shared) harness.

    Exposes ``.app`` and ``.rng`` with single-tenant-harness semantics so
    picklable campaign builders written against the harness work unchanged
    against a tenant.  The *primary* tenant of a single-tenant harness is
    untenanted (``tenant_id is None``): its view is the raw cluster, its
    services are not namespaced, and its RNG is the harness master RNG —
    exactly the classic wiring.
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
        engine: SimulationEngine,
        spec: Optional[TenantSpec] = None,
    ) -> None:
        #: Tenant identity (None for the untenanted primary tenant).
        self.tenant_id = name
        self.app = app
        #: Cluster or TenantClusterView the tenant deploys/queries through.
        self.view = view
        self.coordinator = coordinator
        self.runtime = runtime
        self.orchestrator = orchestrator
        self.rng = rng
        self.engine = engine
        self.spec = spec
        self.workload: Optional[WorkloadGenerator] = None
        self.injector: Optional[PerformanceAnomalyInjector] = None
        self.campaign: Optional[AnomalyCampaign] = None
        self.controller: Optional[ResourceController] = None
        self.controller_name = "none"
        self.firm: Optional[FIRMController] = None
        #: The tenant's controller-stage manager (set by the harness).
        self.manager = None

    @property
    def admission(self) -> Optional[AdmissionGate]:
        """The tenant's admission gate (lives on its application runtime)."""
        return self.runtime.admission

    @property
    def display_name(self) -> str:
        """Tenant identity for reports (primary tenant reports its app)."""
        return self.tenant_id if self.tenant_id is not None else self.app.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantRuntime(tenant={self.tenant_id!r}, app={self.app.name!r}, "
            f"controller={self.controller_name!r})"
        )


@dataclass
class TenantResult:
    """Per-tenant outcome of one multi-tenant harness run."""

    tenant: str
    application: str
    controller: str
    slo: SLOTracker
    latency: LatencyStats
    mitigation: MitigationTracker
    requested_cpu_samples: List[float] = field(default_factory=list)
    dropped_requests: int = 0

    @property
    def mean_requested_cpu(self) -> float:
        """Mean requested CPU limit of this tenant's containers."""
        if not self.requested_cpu_samples:
            return 0.0
        return float(sum(self.requested_cpu_samples) / len(self.requested_cpu_samples))

    def summary(self) -> Dict[str, float]:
        """Headline numbers for this tenant."""
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
class ExperimentResult:
    """Aggregate outcome of one harness run.

    For multi-tenant runs the top-level ``slo``/``latency`` fields are the
    merged cluster-level view across tenants and the per-tenant breakdown
    is available via :attr:`tenant_results` (kept off the dataclass fields
    so single-tenant JSON exports are unchanged).
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
        #: Per-tenant results, in tenant order (empty for single-tenant
        #: runs).  A plain attribute, not a dataclass field, so generic
        #: dataclass-to-JSON conversion of single-tenant results is
        #: byte-for-byte identical to the pre-multi-tenant output.
        self.tenant_results: Dict[str, TenantResult] = {}
        #: Run-level mergeable latency digest (None until the run
        #: finishes).  Kept off the dataclass fields for the same
        #: JSON-compatibility reason as ``tenant_results``.  For sharded
        #: runs the merge layer replaces this with the ascending-shard-order
        #: fold of the per-shard digests.
        self.telemetry_digest = None
        #: Exported event-journal records and the metrics registry of an
        #: observability-enabled run (None with observability off).  Plain
        #: attributes for the same JSON-compatibility reason as above; the
        #: sharded merge layer replaces them with the ``(t, shard, seq)``
        #: journal merge and the ascending-shard-order registry fold.
        self.journal = None
        self.metrics = None
        #: Admission-gate snapshot(s) of an admission-controlled run: the
        #: gate's ``snapshot()`` dict for single-tenant runs, a dict of
        #: them keyed by tenant for multi-tenant runs, None with admission
        #: off.  A plain attribute for JSON byte-compatibility, like the
        #: attributes above.
        self.admission = None

    @property
    def mean_requested_cpu(self) -> float:
        """Mean total requested CPU limit over the run (Fig. 10(b))."""
        if not self.requested_cpu_samples:
            return 0.0
        return float(sum(self.requested_cpu_samples) / len(self.requested_cpu_samples))

    @property
    def mean_cluster_cpu_utilization(self) -> float:
        """Mean cluster-level CPU utilization over the run."""
        if not self.cluster_cpu_utilization_samples:
            return 0.0
        return float(
            sum(self.cluster_cpu_utilization_samples)
            / len(self.cluster_cpu_utilization_samples)
        )

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

    def per_tenant_summary(self) -> Dict[str, Dict[str, float]]:
        """Headline numbers per tenant (empty for single-tenant runs)."""
        return {name: result.summary() for name, result in self.tenant_results.items()}


class ExperimentHarness:
    """One fully wired scenario: tenants + shared cluster + controllers."""

    def __init__(
        self,
        app: Optional[ServiceGraph],
        engine: SimulationEngine,
        rng: SeededRNG,
        scheduler: Optional[Scheduler] = None,
        node_specs: Optional[List[NodeSpec]] = None,
        request_counter=None,
        observability: bool = False,
    ) -> None:
        self.engine = engine
        self.rng = rng
        #: Cache shared by every tenant's manager for cluster-scoped
        #: stages (service names are globally unique, so one computation
        #: serves all tenants).
        self._cluster_stage_cache = StageCache()
        #: Per-run observability bundle (journal + metrics registry), or
        #: None when disabled — every instrumentation site checks for None
        #: so the disabled path stays byte-identical to pre-obs behaviour.
        self.obs: Optional[Observability] = Observability() if observability else None
        #: Optional request-id counter shared by every tenant runtime; the
        #: sharded engine gives each shard harness its own so in-process
        #: shard sessions number requests like freshly spawned processes.
        self.request_counter = request_counter
        self.cluster = Cluster(engine, rng, node_specs=node_specs, scheduler=scheduler)
        if self.obs is not None:
            self.cluster.router.enable_observability(self.obs, engine)
        self.telemetry = TelemetryCollector(self.cluster, engine)
        #: All tenants, in deployment order.  Single-tenant harnesses hold
        #: exactly one untenanted entry whose wiring matches the classic
        #: harness; its members are also reachable through the legacy
        #: ``harness.coordinator`` / ``harness.runtime`` / ... attributes.
        self.tenants: List[TenantRuntime] = []
        self.spec: Optional[ScenarioSpec] = None
        if app is not None:
            self._add_primary_tenant(app)

    # ------------------------------------------------------- tenant plumbing
    def _add_primary_tenant(self, app: ServiceGraph) -> TenantRuntime:
        """Wire the classic untenanted tenant (single-tenant harness)."""
        coordinator = TracingCoordinator(self.engine, telemetry=self.telemetry, rng=self.rng)
        runtime = ApplicationRuntime(
            app, self.cluster, coordinator, self.engine,
            request_counter=self.request_counter,
        )
        orchestrator = Orchestrator(self.cluster, self.engine, self.rng)
        tenant = TenantRuntime(
            name=None,
            app=app,
            view=self.cluster,
            coordinator=coordinator,
            runtime=runtime,
            orchestrator=orchestrator,
            rng=self.rng,
            engine=self.engine,
        )
        if self.obs is not None:
            orchestrator.obs = self.obs
            orchestrator.obs_source = tenant.display_name
        tenant.manager = self._build_stage_manager()
        self.tenants.append(tenant)
        return tenant

    def add_tenant(self, tenant_spec: TenantSpec) -> TenantRuntime:
        """Deploy and fully wire one tenant of a multi-tenant scenario.

        The tenant's application graph is namespaced under its name, its
        RNG is an independent child family spawned from the master seed,
        its coordinator/orchestrator/controller operate through a
        tenant-scoped cluster view, and its SLO targets are the
        application's declared SLOs scaled by ``slo_scale`` with optional
        per-request-type overrides.
        """
        name = tenant_spec.name
        if not name:
            raise ValueError("tenant specs must be named")
        if any(t.tenant_id == name for t in self.tenants):
            raise ValueError(f"tenant {name!r} is already deployed")
        if tenant_spec.node_quota is not None:
            self.cluster.scheduler.node_quotas[name] = int(tenant_spec.node_quota)
        if tenant_spec.routing is not None:
            self.cluster.set_routing_policy(tenant_spec.routing, tenant=name)

        app = build_application(tenant_spec.application).namespaced(name)
        tenant_rng = self.rng.spawn(f"tenant:{name}")
        view = TenantClusterView(self.cluster, name)
        coordinator = TracingCoordinator(
            self.engine,
            telemetry=self.telemetry,
            tenant=name,
            rng=tenant_rng,
        )
        runtime = ApplicationRuntime(
            app, view, coordinator, self.engine, tenant=name,
            request_counter=self.request_counter,
        )
        orchestrator = Orchestrator(view, self.engine, tenant_rng)
        tenant = TenantRuntime(
            name=name,
            app=app,
            view=view,
            coordinator=coordinator,
            runtime=runtime,
            orchestrator=orchestrator,
            rng=tenant_rng,
            engine=self.engine,
            spec=tenant_spec,
        )
        if self.obs is not None:
            orchestrator.obs = self.obs
            orchestrator.obs_source = tenant.display_name
        tenant.manager = self._build_stage_manager()
        self.tenants.append(tenant)

        runtime.deploy()
        if tenant_spec.replicas:
            self._apply_replica_overrides(
                view, {f"{name}/{svc}": n for svc, n in tenant_spec.replicas.items()}
            )
        self._apply_slo_targets(tenant, tenant_spec)
        self._attach_workload(
            tenant,
            pattern=tenant_spec.pattern,
            load_rps=tenant_spec.load_rps,
            request_mix=tenant_spec.request_mix,
        )
        campaign = tenant_spec.campaign
        if campaign is None and tenant_spec.campaign_builder is not None:
            campaign = tenant_spec.campaign_builder(tenant)
        if campaign is not None:
            self._attach_injector(tenant, campaign)
        self._attach_controller(
            tenant, tenant_spec.controller, **tenant_spec.controller_kwargs
        )
        admission = tenant_spec.admission
        if admission is None and self.spec is not None:
            admission = self.spec.admission
        if admission is not None:
            self._attach_admission(tenant, admission)
        return tenant

    @staticmethod
    def _apply_replica_overrides(view, replicas: Dict[str, int]) -> None:
        """Top deployed services up to the requested replica counts.

        ``view`` is the cluster (single-tenant) or a tenant's cluster view
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

    def tenant(self, name: str) -> TenantRuntime:
        """Look up a tenant by name (the primary tenant has name None)."""
        for tenant in self.tenants:
            if tenant.tenant_id == name:
                return tenant
        raise KeyError(f"no tenant named {name!r}")

    @property
    def _primary(self) -> TenantRuntime:
        if not self.tenants:
            raise RuntimeError("harness has no tenants")
        return self.tenants[0]

    @property
    def is_multi_tenant(self) -> bool:
        return len(self.tenants) > 1 or (
            len(self.tenants) == 1 and self.tenants[0].tenant_id is not None
        )

    # ----------------------------------------------- legacy (primary) wiring
    # Single-tenant callers address the harness's app/coordinator/controller
    # directly; these delegate to the primary tenant so every pre-existing
    # experiment, example, and test keeps working unchanged.
    @property
    def app(self) -> ServiceGraph:
        return self._primary.app

    @property
    def coordinator(self) -> TracingCoordinator:
        return self._primary.coordinator

    @property
    def runtime(self) -> ApplicationRuntime:
        return self._primary.runtime

    @property
    def orchestrator(self) -> Orchestrator:
        return self._primary.orchestrator

    @property
    def workload(self) -> Optional[WorkloadGenerator]:
        return self._primary.workload

    @workload.setter
    def workload(self, value: Optional[WorkloadGenerator]) -> None:
        self._primary.workload = value

    @property
    def injector(self) -> Optional[PerformanceAnomalyInjector]:
        return self._primary.injector

    @injector.setter
    def injector(self, value: Optional[PerformanceAnomalyInjector]) -> None:
        self._primary.injector = value

    @property
    def campaign(self) -> Optional[AnomalyCampaign]:
        return self._primary.campaign

    @campaign.setter
    def campaign(self, value: Optional[AnomalyCampaign]) -> None:
        self._primary.campaign = value

    @property
    def controller(self) -> Optional[ResourceController]:
        return self._primary.controller

    @controller.setter
    def controller(self, value: Optional[ResourceController]) -> None:
        self._primary.controller = value

    @property
    def controller_name(self) -> str:
        return self._primary.controller_name

    @controller_name.setter
    def controller_name(self, value: str) -> None:
        self._primary.controller_name = value

    @property
    def firm(self) -> Optional[FIRMController]:
        return self._primary.firm

    @firm.setter
    def firm(self, value: Optional[FIRMController]) -> None:
        self._primary.firm = value

    # ----------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        application: str = "social_network",
        seed: int = 0,
        scheduler: Optional[Scheduler] = None,
        node_specs: Optional[List[NodeSpec]] = None,
        request_counter=None,
        observability: bool = False,
    ) -> "ExperimentHarness":
        """Build a harness for one of the four benchmark applications."""
        engine = SimulationEngine()
        rng = SeededRNG(seed)
        app = build_application(application)
        harness = cls(
            app, engine, rng, scheduler=scheduler, node_specs=node_specs,
            request_counter=request_counter, observability=observability,
        )
        harness.runtime.deploy()
        harness.telemetry.start()
        return harness

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, request_counter=None) -> "ExperimentHarness":
        """Build the fully wired harness described by ``spec``.

        Single-tenant specs wire, in order: application + cluster, routing
        policy (``spec.routing``, resolved in the routing registry),
        workload (explicit pattern or constant ``load_rps``), anomaly
        campaign (pre-built or realized through ``spec.campaign_builder``),
        and the controller looked up in the registry.  The realized
        campaign is kept on ``harness.campaign`` for experiments that need
        its schedule (e.g. its end time).

        Multi-tenant specs (``spec.tenants``) deploy every tenant in order
        onto one shared cluster; each tenant gets the same treatment with
        its own namespaced application, workload, campaign, SLO targets,
        and controller.
        """
        if spec.tenants:
            return cls._from_multi_tenant_spec(spec, request_counter=request_counter)
        harness = cls.build(
            application=spec.application,
            seed=spec.seed,
            scheduler=cls._scheduler_from_spec(spec, SeededRNG(spec.seed)),
            node_specs=cls._node_specs_from_spec(spec),
            request_counter=request_counter,
            observability=spec.observability,
        )
        harness.spec = spec
        cls._apply_dispatch_policy(harness, spec)
        if spec.routing is not None:
            harness.cluster.set_routing_policy(spec.routing)
        if spec.replicas:
            cls._apply_replica_overrides(harness.cluster, spec.replicas)
        if spec.pattern is not None:
            harness.attach_workload(pattern=spec.pattern, request_mix=spec.request_mix)
        else:
            harness.attach_workload(load_rps=spec.load_rps, request_mix=spec.request_mix)
        campaign = spec.campaign
        if campaign is None and spec.campaign_builder is not None:
            campaign = spec.campaign_builder(harness)
        if campaign is not None:
            harness.attach_injector(campaign)
        harness.attach_controller(spec.controller, **spec.controller_kwargs)
        if spec.admission is not None:
            harness.attach_admission(spec.admission)
        return harness

    @classmethod
    def _from_multi_tenant_spec(
        cls, spec: ScenarioSpec, request_counter=None
    ) -> "ExperimentHarness":
        engine = SimulationEngine()
        rng = SeededRNG(spec.seed)
        harness = cls(
            None,
            engine,
            rng,
            scheduler=cls._scheduler_from_spec(spec, rng),
            node_specs=cls._node_specs_from_spec(spec),
            request_counter=request_counter,
            observability=spec.observability,
        )
        harness.spec = spec
        cls._apply_dispatch_policy(harness, spec)
        if spec.routing is not None:
            harness.cluster.set_routing_policy(spec.routing)
        for tenant_spec in spec.tenants:
            harness.add_tenant(tenant_spec)
        harness.telemetry.start()
        return harness

    @staticmethod
    def _apply_dispatch_policy(harness: "ExperimentHarness", spec: ScenarioSpec) -> None:
        """Install the spec's distributed-dispatch policy (if any).

        ``dispatchers=1`` installs nothing: the classic omniscient router
        keeps running byte-identically.  ``dispatchers >= 2`` sets the
        cluster-wide policy to the requested ``stale_*`` variant; it is
        mutually exclusive with an explicit ``routing`` policy.
        """
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
        harness.cluster.set_routing_policy(
            f"stale_{spec.dispatch_variant}",
            dispatchers=int(spec.dispatchers),
            staleness_s=float(spec.dispatch_staleness_s),
        )

    @staticmethod
    def _scheduler_from_spec(spec: ScenarioSpec, rng: SeededRNG) -> Optional[Scheduler]:
        """A scheduler for the spec (None = the cluster's default spread)."""
        quotas = {
            tenant.name: int(tenant.node_quota)
            for tenant in (spec.tenants or ())
            if tenant.node_quota
        }
        if spec.placement is None and not quotas:
            return None
        policy = (
            PlacementPolicy(spec.placement)
            if spec.placement is not None
            else PlacementPolicy.SPREAD
        )
        return Scheduler(policy, rng=rng, node_quotas=quotas)

    @staticmethod
    def _node_specs_from_spec(spec: ScenarioSpec) -> Optional[List[NodeSpec]]:
        if spec.cluster_nodes is None:
            return None
        x86_nodes, ppc64_nodes = spec.cluster_nodes
        return Cluster.default_node_specs(int(x86_nodes), int(ppc64_nodes))

    # ------------------------------------------------------------ controllers
    def attach_controller(self, name: str, **kwargs) -> Optional[ResourceController]:
        """Attach the controller registered under ``name`` (or an alias).

        Raises ``ValueError`` for names missing from the registry.  The
        ``"none"`` policy detaches any current controller.  A previously
        attached (possibly started) controller is stopped first so its
        control loop cannot keep acting alongside the replacement.  Targets
        the primary tenant; multi-tenant controllers are attached through
        :meth:`add_tenant` (one per tenant, each scoped to its own view).
        """
        return self._attach_controller(self._primary, name, **kwargs)

    def _build_stage_manager(self):
        """A per-tenant ControllerManager sharing the cluster stage cache."""
        return ControllerManager(
            self.engine,
            cluster=self.cluster,
            obs=self.obs,
            cluster_cache=self._cluster_stage_cache,
        )

    def _attach_controller(
        self, tenant: TenantRuntime, name: str, **kwargs
    ) -> Optional[ResourceController]:
        controller = create_controller(
            name, tenant.view, tenant.coordinator, tenant.orchestrator, self.engine, **kwargs
        )
        if controller is not None and self.obs is not None:
            controller.obs = self.obs
            controller.obs_source = tenant.display_name
        if controller is not None and tenant.manager is not None:
            binding = StageBinding(
                coordinator=tenant.coordinator,
                view=tenant.view,
                engine=self.engine,
                key=tenant.display_name,
                runtime=tenant,
                source=tenant.display_name,
            )
            controller.bind_stages(tenant.manager.runtime_for(binding))
        if tenant.controller is not None:
            tenant.controller.stop()
        tenant.controller = controller
        tenant.controller_name = name
        tenant.firm = controller if isinstance(controller, FIRMController) else None
        return controller

    def attach_firm(self, config: Optional[FIRMConfig] = None, **kwargs) -> FIRMController:
        """Manage the cluster with FIRM."""
        return self.attach_controller("firm", config=config, **kwargs)

    def attach_kubernetes_autoscaler(self, **kwargs):
        """Manage the cluster with the Kubernetes HPA baseline."""
        return self.attach_controller("k8s", **kwargs)

    def attach_aimd(self, **kwargs):
        """Manage the cluster with the AIMD baseline."""
        return self.attach_controller("aimd", **kwargs)

    # --------------------------------------------------------------- workload
    def attach_workload(
        self,
        pattern: Optional[ArrivalPattern] = None,
        load_rps: float = 100.0,
        request_mix: Optional[Sequence] = None,
    ) -> WorkloadGenerator:
        """Attach an open-loop workload generator (primary tenant)."""
        return self._attach_workload(
            self._primary, pattern=pattern, load_rps=load_rps, request_mix=request_mix
        )

    def _attach_workload(
        self,
        tenant: TenantRuntime,
        pattern: Optional[ArrivalPattern] = None,
        load_rps: float = 100.0,
        request_mix: Optional[Sequence] = None,
    ) -> WorkloadGenerator:
        if pattern is None:
            pattern = ConstantPattern(rate=load_rps)
        tenant.workload = WorkloadGenerator(
            tenant.runtime, self.engine, tenant.rng, pattern=pattern, request_mix=request_mix
        )
        return tenant.workload

    def attach_injector(
        self, campaign: Optional[AnomalyCampaign] = None
    ) -> PerformanceAnomalyInjector:
        """Attach the anomaly injector (optionally pre-loading a campaign)."""
        return self._attach_injector(self._primary, campaign)

    def _attach_injector(
        self, tenant: TenantRuntime, campaign: Optional[AnomalyCampaign] = None
    ) -> PerformanceAnomalyInjector:
        tenant.injector = PerformanceAnomalyInjector(
            tenant.view, self.engine, workload=tenant.workload, obs=self.obs
        )
        tenant.campaign = campaign
        if campaign is not None:
            tenant.injector.schedule_all(campaign.specs)
        return tenant.injector

    # -------------------------------------------------------------- admission
    def attach_admission(self, config) -> Optional[AdmissionGate]:
        """Attach admission control to the primary tenant's runtime.

        ``config`` is a preset name or an
        :class:`~repro.admission.config.AdmissionConfig`; ``None`` (and
        no-op configs, including the ``"none"`` preset) detach any current
        gate, restoring the byte-identical pre-admission fast path.
        """
        return self._attach_admission(self._primary, config)

    def _attach_admission(self, tenant: TenantRuntime, config) -> Optional[AdmissionGate]:
        resolved = resolve_admission_config(config)
        if resolved is None:
            tenant.runtime.admission = None
            return None
        gate = AdmissionGate(tenant.runtime, tenant.rng, resolved, obs=self.obs)
        tenant.runtime.admission = gate
        return gate

    # -------------------------------------------------------------------- run
    def run(
        self,
        duration_s: float = 120.0,
        load_rps: Optional[float] = None,
        sample_period_s: float = 1.0,
        warmup_s: float = 0.0,
    ) -> ExperimentResult:
        """Run the scenario for ``duration_s`` simulated seconds.

        ``warmup_s`` seconds at the start are excluded from SLO accounting
        (the cluster starts empty, so the first requests see cold queues).
        Every tenant's workload, campaign, and controller run concurrently
        on the shared engine; SLO statistics are tracked per tenant and
        merged into the cluster-level result (for single-tenant runs the
        merged view *is* the tenant's, unchanged).  ``load_rps`` applies to
        the primary tenant only (legacy convenience).

        Equivalent to :meth:`begin_run` + one ``advance_to(end_time)`` +
        ``finish()``; the sharded engine uses the session form directly to
        interleave window barriers between advances.
        """
        session = self.begin_run(
            duration_s=duration_s,
            load_rps=load_rps,
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
        load_rps: Optional[float] = None,
        sample_period_s: float = 1.0,
        warmup_s: float = 0.0,
    ) -> "RunSession":
        """Set a run up (trackers, hooks, sampling, controllers, workloads)
        without executing any events.

        Returns a :class:`RunSession` whose :meth:`RunSession.advance_to`
        drives the engine in increments — the windowed execution mode the
        sharded engine is built on.  The setup call order is exactly the
        prefix :meth:`run` used to execute, so a session advanced straight
        to its end time reproduces ``run()`` byte for byte.
        """
        primary = self._primary
        if primary.workload is None:
            self._attach_workload(
                primary, load_rps=load_rps if load_rps is not None else 100.0
            )
        elif load_rps is not None:
            primary.workload.pattern = ConstantPattern(rate=load_rps)

        start_time = self.engine.now
        end_time = start_time + duration_s
        accounting_start = start_time + warmup_s

        requested_cpu: List[float] = []
        cpu_utilization: List[float] = []
        violation_samples: List[Tuple[float, bool]] = []

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
        per_tenant_cpu = self.is_multi_tenant  # redundant with the cluster-wide
        # sample when there is only the untenanted primary tenant

        obs = self.obs
        # Previous per-tenant violation flags, so the journal records SLO
        # *window* transitions (open/close) rather than every sample.
        prev_violating = [False] * len(trackers)

        def _sample(engine: SimulationEngine) -> None:
            requested_cpu.append(self.cluster.total_requested_cpu())
            cpu_utilization.append(self.cluster.cluster_cpu_utilization())
            any_violating = False
            for i, (tenant, _, mitigation, tenant_cpu) in enumerate(trackers):
                if per_tenant_cpu:
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
            violation_samples.append((engine.now, any_violating))

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
                if tenant.workload is not None:
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
            violation_samples=violation_samples,
        )

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the engine's next live event (None when idle)."""
        return self.engine.next_event_time()

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
        """Assemble per-tenant results and the merged cluster-level view."""
        tenant_results: Dict[str, TenantResult] = {}
        if self.is_multi_tenant:
            for tenant, slo_tracker, mitigation, tenant_cpu in trackers:
                tenant_results[tenant.display_name] = TenantResult(
                    tenant=tenant.display_name,
                    application=tenant.app.name,
                    controller=tenant.controller_name,
                    slo=slo_tracker,
                    latency=LatencyStats.from_samples(slo_tracker.latencies_ms),
                    mitigation=mitigation,
                    requested_cpu_samples=tenant_cpu,
                    dropped_requests=tenant.runtime.dropped_requests,
                )

        if len(trackers) == 1:
            # Single tenant: the merged view *is* the tenant's (identical
            # objects, identical numbers — the pre-multi-tenant result).
            tenant, slo_tracker, mitigation, _ = trackers[0]
            merged_slo = slo_tracker
            merged_mitigation = mitigation
            application = tenant.app.name
            controller = tenant.controller_name
        else:
            merged_slo = merge_slo_trackers([t[1] for t in trackers])
            merged_mitigation = cluster_mitigation or MitigationTracker()
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
        if self.is_multi_tenant:
            result.tenant_results = tenant_results
        result.telemetry_digest = merge_telemetry_digests(
            [t[0].coordinator.telemetry_digest() for t in trackers]
        )
        if self.obs is not None:
            result.journal = self.obs.journal.as_dicts()
            result.metrics = self.obs.registry
        gates = {
            t[0].display_name: t[0].runtime.admission
            for t in trackers
            if t[0].runtime.admission is not None
        }
        if gates:
            if self.is_multi_tenant:
                result.admission = {
                    name: gate.snapshot() for name, gate in gates.items()
                }
            else:
                result.admission = next(iter(gates.values())).snapshot()
        return result


class RunSession:
    """An in-flight harness run that can be advanced in time increments.

    Produced by :meth:`ExperimentHarness.begin_run`.  The session owns the
    run's streaming accounting state (SLO trackers, completion hooks, the
    sampling recurrence); :meth:`advance_to` executes events up to a
    virtual-time barrier, and :meth:`finish` closes the accounting and
    assembles the :class:`ExperimentResult`.  Advancing a session straight
    to :attr:`end_time` is byte-identical to
    :meth:`ExperimentHarness.run` — ``run_until(b)`` then ``run_until(e)``
    executes exactly the events ``run_until(e)`` would.

    The sharded engine drives one session per shard, alternating
    ``advance_to`` with cross-shard pressure exchange at window barriers.
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
        violation_samples: List[Tuple[float, bool]],
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
        #: Per-sample ``(time, any tenant violating)`` flags, recorded so a
        #: sharded run can rebuild the cluster-level mitigation timeline
        #: across shards after the fact.
        self.violation_samples = violation_samples
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


def run_comparison(
    application: str,
    duration_s: float,
    load_rps: float,
    campaign_builder,
    seed: int = 0,
    controllers: Sequence[str] = ("firm", "aimd", "k8s"),
) -> Dict[str, ExperimentResult]:
    """Run the same scenario under each registered controller.

    ``campaign_builder(harness)`` must return an
    :class:`~repro.anomaly.campaigns.AnomalyCampaign` (or None) for the
    freshly built harness, so each controller sees an identical schedule.
    """
    results: Dict[str, ExperimentResult] = {}
    for controller in controllers:
        spec = ScenarioSpec(
            application=application,
            seed=seed,
            duration_s=duration_s,
            load_rps=load_rps,
            controller=controller,
            campaign_builder=campaign_builder,
        )
        results[controller] = run_scenario(spec)
    return results
