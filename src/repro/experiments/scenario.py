"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures everything that defines one experiment
scenario — application, seed, duration, workload shape, request mix,
controller (by registry name) and its options, and the anomaly campaign —
as plain data.  Specs are the currency of the experiment stack: every
figure/table module builds its harnesses from specs via
:meth:`repro.experiments.harness.ExperimentHarness.from_spec`, and the
sweep runner (:mod:`repro.experiments.sweep`) fans grids of specs out over
worker processes.

A spec describes either a **single-application** scenario (one
application, one workload, one controller — the fields on the spec itself)
or a **multi-tenant** one: a list of :class:`TenantSpec` entries, each with
its own application graph, workload, SLO targets, anomaly campaign, and
controller, all co-located on one shared simulated cluster so contention
flows across tenants.  Both deploy through the same tenant path: the
harness turns a single-application spec into one *untenanted*
:class:`TenantSpec` (``name=None``), which sees the raw cluster, keeps its
services' plain names, and draws from the master RNG.

Specs must stay picklable so they can cross process boundaries: prefer
module-level functions (or :func:`functools.partial` over them) for
``campaign_builder``, never lambdas or closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign, random_campaign
from repro.workload.patterns import ArrivalPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.harness import ExperimentResult, TenantRuntime


def _admission_name(admission: Optional[Any]) -> Optional[str]:
    """The display name of an ``admission`` field value (None when unset)."""
    if admission is None:
        return None
    return admission if isinstance(admission, str) else admission.name


@dataclass
class TenantSpec:
    """One tenant of a scenario.

    Attributes
    ----------
    name:
        Unique tenant identity within the scenario (e.g. ``"victim"``).
        Service names are namespaced under it (``victim/nginx``), traces,
        spans, containers, and telemetry samples are tagged with it.
        ``None`` is the untenanted tenant the harness builds from a
        single-application spec: no namespacing, no tags, the master RNG,
        and no entry in per-tenant results; it must be the only tenant.
    application:
        Benchmark application name (see :mod:`repro.apps.catalog`).
    load_rps / pattern / request_mix:
        The tenant's own workload, exactly as on :class:`ScenarioSpec`.
    controller / controller_kwargs:
        The tenant's own resource controller (registry name); controllers
        of different tenants run side by side, each scoped to its tenant's
        services through a
        :class:`~repro.cluster.cluster.TenantClusterView`.
    campaign / campaign_builder:
        Optional per-tenant anomaly campaign.  The builder is invoked with
        the tenant's :class:`~repro.experiments.harness.TenantRuntime`
        (read its ``.app`` and ``.rng``, as
        :func:`random_campaign_builder` does) and must stay picklable for
        parallel sweeps.
    slo_scale:
        Multiplier applied to the application's declared per-request-type
        SLO latencies (e.g. ``0.5`` = a premium tenant with twice-as-tight
        targets).
    slo_latency_ms:
        Optional per-request-type SLO overrides (by request-type name);
        applied after ``slo_scale``.
    node_quota:
        Optional cap on how many distinct nodes this tenant's containers
        may occupy (enforced by the scheduler for deployments and
        scale-outs alike).
    routing:
        Optional load-balancing policy (registry name, see
        :mod:`repro.routing`) applied to every service this tenant owns;
        tenants of one shared cluster may each run a different policy.
        None inherits the scenario's cluster-wide ``routing`` (and, when
        that is unset too, the default ``least_in_flight``).
    replicas:
        Optional per-service initial replica overrides (by the tenant's
        un-namespaced service name).  Services are topped up to the given
        count right after deployment — the knob routing studies need,
        since policies only differ where a replica set offers a choice.
    admission:
        Optional admission-control policy for this tenant's workload: a
        preset name (see
        :data:`~repro.admission.config.ADMISSION_PRESETS`) or a full
        :class:`~repro.admission.config.AdmissionConfig`.  None inherits
        the scenario-wide ``admission`` (and, when that is unset too,
        requests bypass admission entirely).
    """

    name: Optional[str]
    application: str = "social_network"
    load_rps: float = 50.0
    pattern: Optional[ArrivalPattern] = None
    request_mix: Optional[Sequence[Tuple[str, float]]] = None
    controller: str = "none"
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    campaign: Optional[AnomalyCampaign] = None
    campaign_builder: Optional[Callable] = None
    slo_scale: float = 1.0
    slo_latency_ms: Optional[Dict[str, float]] = None
    node_quota: Optional[int] = None
    routing: Optional[str] = None
    replicas: Optional[Dict[str, int]] = None
    admission: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.load_rps >= 0:
            raise ValueError(f"load_rps must be >= 0, got {self.load_rps!r}")
        if not self.slo_scale > 0:
            raise ValueError(f"slo_scale must be > 0, got {self.slo_scale!r}")
        if self.node_quota is not None and not self.node_quota >= 1:
            raise ValueError(f"node_quota must be >= 1, got {self.node_quota!r}")

    def with_overrides(self, **overrides) -> "TenantSpec":
        """A copy of this tenant spec with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class ScenarioSpec:
    """One fully specified experiment scenario.

    Attributes
    ----------
    application:
        Benchmark application name (see :mod:`repro.apps.catalog`).
    seed:
        Master seed; fully determines the run (workload arrivals, service
        times, campaigns, RL exploration all derive substreams from it).
    duration_s:
        Scenario duration in simulated seconds.
    load_rps:
        Offered load for the default constant arrival pattern; ignored when
        ``pattern`` is given.
    pattern:
        Optional explicit arrival pattern (diurnal, spike, ...).
    request_mix:
        Optional ``(request_type, weight)`` pairs overriding the
        application's declared mix.
    controller:
        Registry name of the resource controller (``"firm"``, ``"aimd"``,
        ``"kubernetes_hpa"``/``"k8s"``, ``"firm_multi"``, ``"none"``, ...).
    controller_kwargs:
        Keyword arguments forwarded to the controller factory.
    campaign:
        Optional pre-built anomaly campaign.
    campaign_builder:
        Optional callable ``builder(tenant) -> AnomalyCampaign | None``
        invoked with the deployed tenant's
        :class:`~repro.experiments.harness.TenantRuntime` (use for
        campaigns that need the tenant's RNG or service names); ignored
        when ``campaign`` is given.  Must be picklable for parallel sweeps.
    warmup_s:
        Seconds at the start excluded from SLO accounting.
    sample_period_s:
        Period of the harness's utilization/mitigation sampling.
    tenants:
        Optional list of :class:`TenantSpec`.  When given, the scenario is
        multi-tenant: the single-tenant fields ``application``, ``load_rps``,
        ``pattern``, ``request_mix``, ``controller``, ``controller_kwargs``,
        ``campaign`` and ``campaign_builder`` are ignored and each tenant
        brings its own.  ``seed``, ``duration_s``, ``warmup_s`` and
        ``sample_period_s`` stay scenario-wide.
    placement:
        Optional scheduler placement policy name (see
        :class:`~repro.cluster.scheduler.PlacementPolicy`), e.g.
        ``"tenant_anti_affinity"`` to keep tenants on disjoint nodes or
        ``"binpack"`` to maximize interference.  None keeps the default
        spreading scheduler (byte-identical to the pre-multi-tenant
        behaviour).
    cluster_nodes:
        Optional ``(x86_nodes, ppc64_nodes)`` pair overriding the default
        15-node topology — small clusters make cross-tenant contention easy
        to provoke.  None keeps the paper's 9+6 default.
    routing:
        Optional cluster-wide load-balancing policy (registry name, see
        :mod:`repro.routing`): how the runtimes pick which replica serves
        each span.  Applies to every service of every tenant unless a
        tenant overrides it; None keeps the default ``least_in_flight``
        (byte-identical to the pre-routing-subsystem behaviour).
    dispatchers / dispatch_variant / dispatch_staleness_s:
        Distributed-dispatch knobs: the parameters of one load-aware
        routing rule (a :class:`~repro.routing.DispatcherSet`).
        ``dispatchers >= 2`` routes every service by the
        ``dispatch_variant`` rule (``"jiq"``, ``"ewma"``, or ``"p2c"``;
        see :data:`~repro.routing.DISPATCH_VARIANTS`) run by that many
        dispatchers, each holding a partial view refreshed every
        ``dispatch_staleness_s`` simulated seconds.  Mutually exclusive
        with ``routing``.  ``dispatchers=1`` (the default) installs no
        rule and leaves ``routing`` in charge; the omniscient form of a
        rule is ``routing="jiq"`` (one dispatcher, zero staleness).
    admission:
        Optional admission-control policy applied to every tenant's
        workload entry: a preset name (``"naive_retries"``,
        ``"survival_kit"``, ...; see
        :data:`~repro.admission.config.ADMISSION_PRESETS`) or a full
        :class:`~repro.admission.config.AdmissionConfig`.  None (and the
        ``"none"`` preset) leaves request submission byte-identical to
        the pre-admission runtime.
    replicas:
        Optional per-service initial replica overrides for single-tenant
        scenarios (service name -> replica count); services are topped up
        right after deployment, so load-balancing policies have a replica
        set to choose over from the first request.  Multi-tenant scenarios
        use the per-tenant field instead.
    observability:
        When true, the harness carries a per-run
        :class:`~repro.obs.run.Observability` bundle — a structured event
        journal (controller decisions, routing picks, anomaly
        inject/clear, SLO-window transitions) plus a metrics registry —
        and the result exposes them as ``result.journal`` /
        ``result.metrics``.  Off by default: with it off no
        instrumentation site records anything, so every pinned
        determinism family stays byte-identical.  Excluded from
        ``scenario_id``.
    score_window_s:
        When set, the sweep worker (:func:`repro.experiments.sweep.run_sweep`)
        scores the run's localization every ``score_window_s`` simulated
        seconds against the injector's ground truth of the tenant that
        carries the campaign (see
        :class:`~repro.experiments.resilience.LocalizationScorer`).
        Scoring only observes the run.  Excluded from ``scenario_id``.
    """

    application: str = "social_network"
    seed: int = 0
    duration_s: float = 60.0
    load_rps: float = 50.0
    pattern: Optional[ArrivalPattern] = None
    request_mix: Optional[Sequence[Tuple[str, float]]] = None
    controller: str = "none"
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    campaign: Optional[AnomalyCampaign] = None
    campaign_builder: Optional[Callable[["TenantRuntime"], Optional[AnomalyCampaign]]] = None
    warmup_s: float = 0.0
    sample_period_s: float = 1.0
    tenants: Optional[Sequence[TenantSpec]] = None
    placement: Optional[str] = None
    cluster_nodes: Optional[Tuple[int, int]] = None
    routing: Optional[str] = None
    dispatchers: int = 1
    dispatch_variant: str = "jiq"
    dispatch_staleness_s: float = 0.25
    admission: Optional[Any] = None
    replicas: Optional[Dict[str, int]] = None
    observability: bool = False
    score_window_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("duration_s", "sample_period_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("warmup_s", "load_rps"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not self.dispatchers >= 1:
            raise ValueError(f"dispatchers must be >= 1, got {self.dispatchers!r}")
        if self.score_window_s is not None and not self.score_window_s > 0:
            raise ValueError(f"score_window_s must be > 0, got {self.score_window_s!r}")

    @property
    def scenario_id(self) -> str:
        """Stable human-readable identity (used to key sweep results)."""
        routing_part = f"/routing={self.routing}" if self.routing else ""
        if self.dispatchers > 1:
            routing_part += (
                f"/dispatchers={self.dispatchers}:{self.dispatch_variant}"
                f"@{self.dispatch_staleness_s:g}"
            )
        admission = _admission_name(self.admission)
        if admission is not None and admission != "none":
            routing_part += f"/admission={admission}"
        if self.tenants:
            tenant_part = "+".join(
                f"{tenant.name}:{tenant.application}/{tenant.controller}"
                + (f"/{tenant.routing}" if tenant.routing else "")
                + f"@{'pattern' if tenant.pattern is not None else f'{tenant.load_rps:g}'}"
                for tenant in self.tenants
            )
            placement_part = f"/placement={self.placement}" if self.placement else ""
            return (
                f"multi[{tenant_part}]"
                f"/seed={self.seed}/duration={self.duration_s:g}"
                f"{placement_part}{routing_part}"
            )
        return (
            f"{self.application}/{self.controller}"
            f"/seed={self.seed}/load={self.load_rps:g}/duration={self.duration_s:g}"
            f"{routing_part}"
        )

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **overrides)


def run_scenario(spec: ScenarioSpec) -> "ExperimentResult":
    """Build and run one scenario end to end, returning its result."""
    from repro.experiments.harness import ExperimentHarness

    harness = ExperimentHarness.from_spec(spec)
    return harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )


def random_campaign_builder(
    tenant: "TenantRuntime",
    duration_s: float,
    rate_per_s: float = 0.33,
    min_intensity: float = 0.3,
    resource_only: bool = False,
    scope: Optional[str] = None,
    start_s: float = 5.0,
):
    """The canonical picklable ``campaign_builder`` for random injection.

    Use with :func:`functools.partial` to bind parameters into a spec;
    ``resource_only`` excludes workload-variation anomalies (the §4.1
    baseline-comparison setting) and ``scope`` selects each injection's
    :class:`~repro.anomaly.anomalies.AnomalyScope` (None keeps the
    historical first-replica ``node`` scope).  ``tenant`` is the deployed
    :class:`~repro.experiments.harness.TenantRuntime`; the campaign covers
    its services (``.app``) and draws from its RNG (``.rng``).
    """
    from repro.anomaly.anomalies import AnomalyScope

    anomaly_types = (
        [a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION]
        if resource_only
        else ANOMALY_TYPES
    )
    return random_campaign(
        tenant.app.service_names(),
        tenant.rng,
        duration_s=duration_s,
        rate_per_s=rate_per_s,
        min_intensity=min_intensity,
        anomaly_types=anomaly_types,
        scope=AnomalyScope.NODE if scope is None else AnomalyScope(scope),
        start_s=start_s,
    )
