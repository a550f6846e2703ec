"""Resilience evaluation: controllers × anomaly campaigns × applications.

The paper's headline claims are scored against the anomaly injector's
ground truth: Fig. 9 localization accuracy and the §4.1 mitigation
comparison both depend on knowing exactly which services were under
injection when.  This module promotes that experiment shape to a
first-class grid:

* a :class:`ResilienceCase` names one cell — application, controller,
  campaign kind (``single_sweep`` / ``multi_anomaly`` / ``random``),
  anomaly scope, seed — as pure picklable data;
* :func:`run_resilience_case` runs the cell end to end and scores it on
  two axes: **localization** (per-window precision/recall of the
  critical-component extractor's flags against the injector's
  ``[start_s, end_s)`` ground truth, co-located services on injected
  nodes counting as genuine victims) and **mitigation**
  (SLO-violation-seconds and time-to-mitigate from the violation-episode
  tracker, plus the SLO summary);
* :func:`resilience_sweep_grid` + :func:`run_resilience_sweep` expand and
  run the controller × campaign × application × seed cross product,
  optionally across worker processes — each case derives every stochastic
  stream from its own seed, so the parallel sweep is bit-identical to the
  serial one;
* the ``multi_tenant`` preset co-locates a victim tenant with a loaded
  neighbour and targets the campaign at the victim alone (tenant scope),
  scoring interference on the victim's own SLOs.

The CLI front ends are ``repro.cli run resilience --preset ...`` and
``repro.cli sweep --campaigns ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalyScope, AnomalyType
from repro.anomaly.campaigns import (
    AnomalyCampaign,
    multi_anomaly_campaign,
    random_campaign,
    single_anomaly_sweep,
)
from repro.apps.catalog import build_application
from repro.core.critical_component import CriticalComponentExtractor
from repro.core.critical_path import CriticalPathExtractor
from repro.core.svm import IncrementalSVM
from repro.experiments.scenario import ScenarioSpec, TenantSpec
from repro.sim.rng import SeededRNG

#: The campaign kinds a resilience case can run.
CAMPAIGN_KINDS: Tuple[str, ...] = ("single_sweep", "multi_anomaly", "random")

#: Default controller axis of the resilience grid.
DEFAULT_CONTROLLERS: Tuple[str, ...] = ("firm", "kubernetes_hpa", "aimd", "none")

#: Resource-pressure anomaly types (workload variation excluded: it has no
#: node-local ground truth for localization to recover).
_RESOURCE_TYPES: Tuple[AnomalyType, ...] = tuple(
    a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION
)


@dataclass
class ResilienceCase:
    """One cell of the resilience grid, as pure picklable data.

    Attributes
    ----------
    application / controller / seed / load_rps:
        As on :class:`~repro.experiments.scenario.ScenarioSpec`.
    campaign:
        Campaign kind (one of :data:`CAMPAIGN_KINDS`).
    duration_s:
        Scenario duration; None derives it from the campaign schedule
        (campaign end + one analysis window; ``random`` campaigns default
        to 60 s).
    window_s:
        Localization analysis window — flags are scored against ground
        truth every ``window_s`` simulated seconds.
    campaign_windows:
        Window count for ``multi_anomaly`` campaigns.
    scope:
        Anomaly scope name (see
        :class:`~repro.anomaly.anomalies.AnomalyScope`); the default
        ``service_wide`` pressures every node hosting a live replica of
        each target.
    replicas_per_service:
        Initial replica count for every service (>1 makes replica-aware
        injection observable: single-node pressure under replication is
        nearly invisible to localization).
    multi_tenant:
        Run the victim/neighbour co-location shape instead of the
        single-tenant one: the campaign targets the victim tenant only and
        interference is scored on the victim's SLOs.
    neighbor_load_rps:
        Offered load of the co-located neighbour tenant.
    significant_intensity:
        Injections weaker than this are not expected to cause SLO
        violations and are not counted as ground-truth culprits.
    train_svm:
        Train the localization SVM online from ground truth between
        windows (the Fig. 9(b) protocol).  Off by default: the resilience
        scoreboard evaluates the detector as deployed, and training from
        the very ground truth being scored inside one run contaminates
        the precision/recall it reports.
    cluster_nodes:
        Optional (x86, ppc64) topology override; None keeps the paper's
        15-node default (multi-tenant cases default to a small shared
        cluster where interference is visible).
    """

    application: str = "social_network"
    controller: str = "none"
    campaign: str = "multi_anomaly"
    seed: int = 0
    load_rps: float = 60.0
    duration_s: Optional[float] = None
    window_s: float = 10.0
    campaign_windows: int = 6
    scope: str = AnomalyScope.SERVICE_WIDE.value
    replicas_per_service: int = 1
    multi_tenant: bool = False
    neighbor_load_rps: float = 150.0
    significant_intensity: float = 0.5
    train_svm: bool = False
    cluster_nodes: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.campaign not in CAMPAIGN_KINDS:
            known = ", ".join(CAMPAIGN_KINDS)
            raise ValueError(f"unknown campaign kind {self.campaign!r}; known: {known}")
        self.scope = AnomalyScope(self.scope).value

    @property
    def case_id(self) -> str:
        """Stable human-readable identity (keys sweep results)."""
        shape = "multi_tenant" if self.multi_tenant else "single"
        return (
            f"resilience[{self.application}/{self.controller}/{self.campaign}"
            f"/{self.scope}]/seed={self.seed}/load={self.load_rps:g}/{shape}"
        )

    def with_overrides(self, **overrides) -> "ResilienceCase":
        """A copy of this case with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class WindowScore:
    """Localization score of one analysis window.

    ``truth`` is the injector's ground truth restricted to services that
    appeared on critical paths in the window (targets of significant
    injections overlapping ``[start_s, end_s)`` plus services co-located
    on their injected nodes); ``flagged`` is what the extractor reported.
    """

    start_s: float
    end_s: float
    truth: List[str] = field(default_factory=list)
    flagged: List[str] = field(default_factory=list)
    precision: float = 1.0
    recall: float = 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "truth": list(self.truth),
            "flagged": list(self.flagged),
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass
class ResilienceOutcome:
    """Scored result of one resilience case."""

    case: ResilienceCase
    windows: List[WindowScore] = field(default_factory=list)
    #: Micro-averaged over all windows (flag- and culprit-weighted).
    precision: float = 1.0
    recall: float = 1.0
    #: Total seconds the (victim's) SLO was in violation.
    slo_violation_seconds: float = 0.0
    #: Mean violation-episode duration (the paper's mitigation time).
    time_to_mitigate_s: float = 0.0
    #: Headline SLO numbers (the victim tenant's for multi-tenant cases).
    summary: Dict[str, float] = field(default_factory=dict)
    #: The neighbour tenant's headline numbers (multi-tenant cases only).
    neighbor_summary: Optional[Dict[str, float]] = None

    @property
    def case_id(self) -> str:
        return self.case.case_id

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly row (used by the CLI and reports)."""
        row: Dict[str, object] = {
            "case_id": self.case_id,
            "application": self.case.application,
            "controller": self.case.controller,
            "campaign": self.case.campaign,
            "scope": self.case.scope,
            "seed": self.case.seed,
            "multi_tenant": self.case.multi_tenant,
            "precision": self.precision,
            "recall": self.recall,
            "windows_scored": len(self.windows),
            "slo_violation_seconds": self.slo_violation_seconds,
            "time_to_mitigate_s": self.time_to_mitigate_s,
            "summary": dict(self.summary),
            "windows": [window.as_dict() for window in self.windows],
        }
        if self.neighbor_summary is not None:
            row["neighbor_summary"] = dict(self.neighbor_summary)
        return row


# ---------------------------------------------------------------------------
# Campaign and scenario construction
# ---------------------------------------------------------------------------

def build_resilience_campaign(case: ResilienceCase) -> AnomalyCampaign:
    """The case's anomaly campaign (pure data, derived from the seed).

    Multi-tenant cases target the victim tenant's namespaced services so
    the campaign lands on the victim alone.
    """
    app = build_application(case.application)
    if case.multi_tenant:
        app = app.namespaced("victim")
    services = app.service_names()
    scope = AnomalyScope(case.scope)
    if case.campaign == "single_sweep":
        return single_anomaly_sweep(
            AnomalyType.CPU_UTILIZATION,
            services[0],
            intensities=(0.6, 0.8, 0.95),
            step_duration_s=case.window_s,
            gap_s=case.window_s / 2.0,
            start_s=case.window_s / 2.0,
            scope=scope,
        )
    if case.campaign == "multi_anomaly":
        return multi_anomaly_campaign(
            services,
            SeededRNG(case.seed),
            windows=case.campaign_windows,
            window_s=case.window_s,
            anomaly_types=_RESOURCE_TYPES,
            start_s=case.window_s / 2.0,
            scope=scope,
        )
    return random_campaign(
        services,
        SeededRNG(case.seed),
        duration_s=case.duration_s if case.duration_s is not None else 60.0,
        anomaly_types=_RESOURCE_TYPES,
        min_intensity=case.significant_intensity,
        scope=scope,
    )


def _resolved_duration(case: ResilienceCase, campaign: AnomalyCampaign) -> float:
    if case.duration_s is not None:
        return float(case.duration_s)
    return campaign.end_time() + case.window_s


def resilience_scenario_spec(case: ResilienceCase) -> ScenarioSpec:
    """Expand one case into the scenario spec the harness builds from."""
    from repro.experiments.routing import replicated_services

    campaign = build_resilience_campaign(case)
    duration = _resolved_duration(case, campaign)
    replicas = (
        replicated_services(case.application, case.replicas_per_service)
        if case.replicas_per_service > 1
        else None
    )
    if case.multi_tenant:
        return ScenarioSpec(
            seed=case.seed,
            duration_s=duration,
            cluster_nodes=case.cluster_nodes or (2, 0),
            tenants=[
                TenantSpec(
                    name="victim",
                    application=case.application,
                    load_rps=case.load_rps,
                    controller=case.controller,
                    campaign=campaign,
                    replicas=replicas,
                ),
                TenantSpec(
                    name="neighbor",
                    application=case.application,
                    load_rps=case.neighbor_load_rps,
                    controller="none",
                ),
            ],
        )
    return ScenarioSpec(
        application=case.application,
        seed=case.seed,
        duration_s=duration,
        load_rps=case.load_rps,
        controller=case.controller,
        campaign=campaign,
        replicas=replicas,
        cluster_nodes=case.cluster_nodes,
    )


# ---------------------------------------------------------------------------
# Running and scoring one case
# ---------------------------------------------------------------------------

class LocalizationScorer:
    """Windowed localization scoring against the injector's ground truth.

    Owns the recurring evaluation loop one resilience (or metastable)
    run attaches to its harness: every ``window_s`` simulated seconds the
    critical-component extractor's flags are compared with the injector's
    ground truth over the same window, and the resulting
    :class:`WindowScore` list accumulates on :attr:`windows`.  Extracted
    from :func:`run_resilience_case` so the metastable scenario family
    scores localization with byte-identical machinery.
    """

    def __init__(
        self,
        harness,
        tenant,
        window_s: float,
        significant_intensity: float = 0.5,
        train_svm: bool = False,
    ) -> None:
        self.harness = harness
        self.tenant = tenant
        self.window_s = float(window_s)
        self.significant_intensity = float(significant_intensity)
        self.train_svm = bool(train_svm)
        self.component_extractor = CriticalComponentExtractor(
            svm=IncrementalSVM(input_dim=2)
        )
        self.path_extractor = CriticalPathExtractor()
        self.windows: List[WindowScore] = []

    def attach(self, until_s: float, name: str = "resilience-evaluate") -> None:
        """Schedule the recurring evaluation on the harness engine."""
        self.harness.engine.schedule_recurring(
            self.window_s, self.evaluate, name=name, until=until_s
        )

    def evaluate(self, engine) -> None:
        """Score the window ``[now - window_s, now)`` (the recurring body).

        Ground truth covers every significant injection overlapping the
        analysis window — not just the ones still active at the probe
        instant, since the window's traces carry the symptoms of
        anomalies that ended mid-window too.
        """
        injector = self.tenant.injector
        coordinator = self.tenant.coordinator
        component_extractor = self.component_extractor
        targets, node_names = injector.ground_truth_window(
            engine.now - self.window_s,
            engine.now,
            min_intensity=self.significant_intensity,
        )
        truth_targets = set(targets)
        injected_nodes = set(node_names)
        traces = coordinator.recent_traces(self.window_s)
        if not traces:
            return
        paths = self.path_extractor.extract_all(traces)
        # Windowed (RI, CI) from the coordinator's per-instance sketches,
        # restricted to instances on the window's CPs.
        instances = sorted({span.instance for path in paths for span in path.spans})
        features = coordinator.instance_features(
            self.window_s,
            instances=instances,
            min_samples=component_extractor.min_samples,
        )
        if not features:
            return
        truth = set()
        flagged = set()
        # Classify the already-computed features directly instead of
        # extract(), which would recompute RI/CI over every path — and as
        # one vectorized SVM call rather than per-instance classify_one.
        matrix = np.vstack([feature.as_vector() for feature in features])
        decisions = component_extractor.svm.classify(matrix)
        for feature, flag in zip(features, decisions):
            service = feature.service
            on_injected_node = False
            try:
                instance = self.harness.cluster.instance_by_name(feature.instance)
                node = instance.container.node
                on_injected_node = node is not None and node.name in injected_nodes
            except KeyError:
                pass
            if service in truth_targets or on_injected_node:
                truth.add(service)
            if flag:
                flagged.add(service)
        hits = len(flagged & truth)
        self.windows.append(
            WindowScore(
                start_s=engine.now - self.window_s,
                end_s=engine.now,
                truth=sorted(truth),
                flagged=sorted(flagged),
                precision=1.0 if not flagged else hits / len(flagged),
                recall=1.0 if not truth else hits / len(truth),
            )
        )
        if self.train_svm:
            labels = [1 if feature.service in truth_targets else 0 for feature in features]
            component_extractor.svm.partial_fit(matrix, labels)

    def micro_averages(self) -> Tuple[float, float]:
        """Micro-averaged (precision, recall) over all scored windows."""
        total_flagged = sum(len(window.flagged) for window in self.windows)
        total_truth = sum(len(window.truth) for window in self.windows)
        total_hits = sum(
            len(set(window.flagged) & set(window.truth)) for window in self.windows
        )
        return (
            1.0 if total_flagged == 0 else total_hits / total_flagged,
            1.0 if total_truth == 0 else total_hits / total_truth,
        )


def run_resilience_case(case: ResilienceCase) -> ResilienceOutcome:
    """Run one resilience cell end to end and score it.

    Every ``window_s`` the extractor's flags are compared with the
    injector's ground truth over the same window: a service counts as a
    true culprit when a significant injection targeting it (or pressuring
    a node it lives on) overlapped the window; scoring is restricted to
    services that appeared on critical paths (localization can only rank
    what the traces show).  With ``case.train_svm`` the SVM filter is additionally
    trained online from ground truth between windows, as in Fig. 9(b).
    """
    spec = resilience_scenario_spec(case)
    from repro.experiments.harness import ExperimentHarness

    harness = ExperimentHarness.from_spec(spec)
    tenant = harness.tenant("victim") if case.multi_tenant else harness.tenants[0]
    scorer = LocalizationScorer(
        harness,
        tenant,
        window_s=case.window_s,
        significant_intensity=case.significant_intensity,
        train_svm=case.train_svm,
    )
    scorer.attach(until_s=spec.duration_s)
    windows = scorer.windows
    result = harness.run(
        duration_s=spec.duration_s, sample_period_s=spec.sample_period_s
    )

    if case.multi_tenant:
        victim = result.tenant_results["victim"]
        summary = victim.summary()
        mitigation = victim.mitigation
        neighbor_summary = result.tenant_results["neighbor"].summary()
    else:
        summary = result.summary()
        mitigation = result.mitigation
        neighbor_summary = None

    precision, recall = scorer.micro_averages()
    return ResilienceOutcome(
        case=case,
        windows=windows,
        precision=precision,
        recall=recall,
        slo_violation_seconds=float(sum(mitigation.mitigation_times_s())),
        time_to_mitigate_s=mitigation.mean_mitigation_time_s(),
        summary=summary,
        neighbor_summary=neighbor_summary,
    )


# ---------------------------------------------------------------------------
# The controller × campaign grid
# ---------------------------------------------------------------------------

def resilience_sweep_grid(
    controllers: Sequence[str] = DEFAULT_CONTROLLERS,
    campaigns: Sequence[str] = CAMPAIGN_KINDS,
    applications: Sequence[str] = ("social_network",),
    seeds: Sequence[int] = (0,),
    base: Optional[ResilienceCase] = None,
    **case_overrides,
) -> List[ResilienceCase]:
    """Expand the controller × campaign × application × seed cross product.

    ``base`` supplies defaults for every field the grid does not set;
    extra keyword arguments override fields on every case (e.g.
    ``duration_s=30.0, replicas_per_service=2``) — the grid axes always
    win over them.  Application-major, campaign-then-controller order,
    mirroring :func:`repro.experiments.sweep.sweep_grid`.
    """
    from repro.baselines.base import resolve_controller_name

    for controller in controllers:
        resolve_controller_name(controller)  # fail fast on typos
    template = base if base is not None else ResilienceCase()
    if case_overrides:
        template = template.with_overrides(**case_overrides)
    cases: List[ResilienceCase] = []
    for application in applications:
        for campaign in campaigns:
            for controller in controllers:
                for seed in seeds:
                    cases.append(
                        template.with_overrides(
                            application=application,
                            campaign=campaign,
                            controller=controller,
                            seed=int(seed),
                        )
                    )
    return cases


def _run_one_case(case: ResilienceCase) -> ResilienceOutcome:
    """Worker entry point (module-level so it pickles across processes)."""
    return run_resilience_case(case)


def run_resilience_sweep(
    cases: Sequence[ResilienceCase],
    workers: int = 1,
    progress=None,
) -> List[ResilienceOutcome]:
    """Run every case, optionally across ``workers`` spawned processes.

    Returns one :class:`ResilienceOutcome` per case **in the input
    order** regardless of which worker finished first (see
    :func:`repro.experiments.sweep.run_parallel`).  Every stochastic
    stream derives from the case's own seed, so the parallel sweep is
    bit-identical to the serial one.
    """
    from repro.experiments.sweep import run_parallel

    return run_parallel(cases, _run_one_case, workers=workers, progress=progress)


def campaign_macro_spec(duration_s: float, seed: int = 0) -> ScenarioSpec:
    """The campaign-heavy perf macro scenario (see :mod:`repro.perf`).

    Dense random service-wide anomalies (≈1 arrival/s) over a replicated
    social network: every injection resolves, pressures, and later
    releases multiple nodes, and scale events trigger target
    re-resolution — the anomaly subsystem's hot paths, timed end to end.
    """
    from functools import partial

    from repro.experiments.routing import replicated_services
    from repro.experiments.scenario import random_campaign_builder

    return ScenarioSpec(
        application="social_network",
        seed=seed,
        duration_s=duration_s,
        load_rps=40.0,
        controller="none",
        replicas=replicated_services("social_network", 2),
        campaign_builder=partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=1.0,
            resource_only=True,
            scope=AnomalyScope.SERVICE_WIDE.value,
            # Arrivals must start inside even the 5 s quick-mode window,
            # or the CI perf gate would time an anomaly-free scenario.
            start_s=0.5,
        ),
    )


# ---------------------------------------------------------------------------
# Presets (the CLI front end)
# ---------------------------------------------------------------------------

#: Named single-case presets for ``repro.cli run resilience --preset ...``.
PRESETS: Dict[str, ResilienceCase] = {
    "single_sweep": ResilienceCase(campaign="single_sweep"),
    "multi_anomaly": ResilienceCase(campaign="multi_anomaly"),
    "random": ResilienceCase(campaign="random", duration_s=60.0),
    "multi_tenant": ResilienceCase(
        campaign="random",
        duration_s=45.0,
        scope=AnomalyScope.TENANT.value,
        multi_tenant=True,
        application="hotel_reservation",
        load_rps=20.0,
    ),
}


def run_resilience(preset: str = "multi_anomaly", **overrides) -> ResilienceOutcome:
    """Run one named resilience preset (None-valued overrides are ignored)."""
    try:
        case = PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown resilience preset {preset!r}; known: {known}")
    effective = {key: value for key, value in overrides.items() if value is not None}
    if effective:
        case = case.with_overrides(**effective)
    return run_resilience_case(case)
