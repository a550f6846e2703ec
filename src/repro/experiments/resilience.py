"""Resilience evaluation: controllers × anomaly campaigns × applications.

The paper's headline claims are scored against the anomaly injector's
ground truth: Fig. 9 localization accuracy and the §4.1 mitigation
comparison both depend on knowing exactly which services were under
injection when.  This module provides the pieces of that experiment
shape; the sweep runner (:mod:`repro.experiments.sweep`) runs and scores
them like any other scenario:

* :func:`resilience` builds one cell — application, controller, campaign
  kind (``single_sweep`` / ``multi_anomaly`` / ``random``), anomaly
  scope, seed — as a :class:`~repro.experiments.scenario.ScenarioSpec`
  whose ``score_window_s`` turns on scoring;
* :class:`LocalizationScorer` scores **localization**: per-window
  precision/recall of the FIRM :class:`~repro.core.extractor.Extractor`'s
  flags against
  the injector's ``[start_s, end_s)`` ground truth, co-located services
  on injected nodes counting as genuine victims.  The sweep outcome adds
  **mitigation** (SLO-violation-seconds and time-to-mitigate from the
  violation-episode tracker) and the SLO summary;
* ``multi_tenant=True`` co-locates a victim tenant with a loaded
  neighbour and targets the campaign at the victim alone (tenant scope),
  scoring interference on the victim's own SLOs.

Grids of cells run through :func:`repro.experiments.sweep.expand_grid` and
:func:`repro.experiments.sweep.run_sweep`; every stochastic stream derives
from the cell's own seed, so the parallel sweep is bit-identical to the
serial one.  The CLI front ends are ``repro.cli run resilience --set ...``
and ``repro.cli sweep resilience --grid controller=firm,none ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalyScope, AnomalyType
from repro.anomaly.campaigns import (
    AnomalyCampaign,
    multi_anomaly_campaign,
    random_campaign,
    single_anomaly_sweep,
)
from repro.apps.catalog import build_application
from repro.baselines.base import resolve_controller_name
from repro.core.extractor import Extractor
from repro.experiments.scenario import ScenarioSpec, TenantSpec
from repro.sim.rng import SeededRNG

#: The campaign kinds a resilience cell can run.
CAMPAIGN_KINDS: Tuple[str, ...] = ("single_sweep", "multi_anomaly", "random")

#: Default controller axis of the resilience grid.
DEFAULT_CONTROLLERS: Tuple[str, ...] = ("firm", "kubernetes_hpa", "aimd", "none")

#: Injections weaker than this are not expected to cause SLO violations:
#: they are not counted as ground-truth culprits, and random campaigns
#: never draw them.
SIGNIFICANT_INTENSITY = 0.5

#: Resource-pressure anomaly types (workload variation excluded: it has no
#: node-local ground truth for localization to recover).
_RESOURCE_TYPES: Tuple[AnomalyType, ...] = tuple(
    a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION
)


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


# ---------------------------------------------------------------------------
# Campaign and scenario construction
# ---------------------------------------------------------------------------

def build_resilience_campaign(
    application: str,
    campaign: str,
    seed: int,
    window_s: float,
    scope: str = AnomalyScope.SERVICE_WIDE.value,
    campaign_windows: int = 6,
    duration_s: Optional[float] = None,
    namespace: Optional[str] = None,
) -> AnomalyCampaign:
    """One resilience campaign (pure data, derived from the seed).

    ``namespace`` targets one tenant's namespaced services (the
    multi-tenant shape passes ``"victim"`` so the campaign lands on the
    victim alone); ``random`` campaigns span ``duration_s`` (60 s when
    None).
    """
    if campaign not in CAMPAIGN_KINDS:
        known = ", ".join(CAMPAIGN_KINDS)
        raise ValueError(f"unknown campaign kind {campaign!r}; known: {known}")
    app = build_application(application)
    if namespace is not None:
        app = app.namespaced(namespace)
    services = app.service_names()
    anomaly_scope = AnomalyScope(scope)
    if campaign == "single_sweep":
        return single_anomaly_sweep(
            AnomalyType.CPU_UTILIZATION,
            services[0],
            intensities=(0.6, 0.8, 0.95),
            step_duration_s=window_s,
            gap_s=window_s / 2.0,
            start_s=window_s / 2.0,
            scope=anomaly_scope,
        )
    if campaign == "multi_anomaly":
        return multi_anomaly_campaign(
            services,
            SeededRNG(seed),
            windows=campaign_windows,
            window_s=window_s,
            anomaly_types=_RESOURCE_TYPES,
            start_s=window_s / 2.0,
            scope=anomaly_scope,
        )
    return random_campaign(
        services,
        SeededRNG(seed),
        duration_s=duration_s if duration_s is not None else 60.0,
        anomaly_types=_RESOURCE_TYPES,
        min_intensity=SIGNIFICANT_INTENSITY,
        scope=anomaly_scope,
    )


def resilience(
    application: str = "social_network",
    controller: str = "none",
    campaign: str = "multi_anomaly",
    seed: int = 0,
    load_rps: float = 60.0,
    duration_s: Optional[float] = None,
    score_window_s: float = 10.0,
    campaign_windows: int = 6,
    scope: str = AnomalyScope.SERVICE_WIDE.value,
    replicas_per_service: int = 1,
    multi_tenant: bool = False,
    neighbor_load_rps: float = 150.0,
) -> ScenarioSpec:
    """One scored resilience cell.

    ``campaign`` is one of :data:`CAMPAIGN_KINDS`; ``scope`` an
    :class:`~repro.anomaly.anomalies.AnomalyScope` name (the default
    ``service_wide`` pressures every node hosting a live replica of each
    target).  ``duration_s=None`` derives the duration from the campaign
    schedule (campaign end + one scoring window).  Localization is scored
    every ``score_window_s`` seconds, which also sets the campaign's
    injection windows.  ``replicas_per_service > 1`` makes replica-aware
    injection observable (single-node pressure under replication is
    nearly invisible to localization).  ``multi_tenant`` runs the
    victim/neighbour co-location shape on a small shared ``(2, 0)``
    cluster: the campaign targets the victim tenant only, and the
    neighbour offers ``neighbor_load_rps`` uncontrolled.
    """
    from repro.experiments.routing import replicated_services

    resolve_controller_name(controller)  # fail fast on typos
    built = build_resilience_campaign(
        application,
        campaign,
        seed,
        score_window_s,
        scope=scope,
        campaign_windows=campaign_windows,
        duration_s=duration_s,
        namespace="victim" if multi_tenant else None,
    )
    if duration_s is None:
        duration_s = built.end_time() + score_window_s
    replicas = (
        replicated_services(application, replicas_per_service)
        if replicas_per_service > 1
        else None
    )
    if multi_tenant:
        return ScenarioSpec(
            seed=seed,
            duration_s=float(duration_s),
            cluster_nodes=(2, 0),
            score_window_s=score_window_s,
            tenants=[
                TenantSpec(
                    name="victim",
                    application=application,
                    load_rps=load_rps,
                    controller=controller,
                    campaign=built,
                    replicas=replicas,
                ),
                TenantSpec(
                    name="neighbor",
                    application=application,
                    load_rps=neighbor_load_rps,
                    controller="none",
                ),
            ],
        )
    return ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=float(duration_s),
        load_rps=load_rps,
        controller=controller,
        campaign=built,
        replicas=replicas,
        score_window_s=score_window_s,
    )


# ---------------------------------------------------------------------------
# Localization scoring
# ---------------------------------------------------------------------------

class LocalizationScorer:
    """Windowed localization scoring against the injector's ground truth.

    The recurring evaluation loop the sweep worker attaches to a scored
    run's harness: every ``window_s`` simulated seconds the flags of a
    cold-start FIRM :class:`~repro.core.extractor.Extractor` over the
    tenant's shared sketches are compared with the injector's
    ground truth over the same window, and the resulting
    :class:`WindowScore` list accumulates on :attr:`windows`.  A service
    counts as a true culprit when a significant injection targeting it
    (or pressuring a node it lives on) overlapped the window; scoring is
    restricted to services that appeared on critical paths (localization
    can only rank what the traces show).  The scorer only reads the run:
    the detector is evaluated as deployed, never trained from the ground
    truth it is scored against.
    """

    def __init__(self, harness, tenant, window_s: float) -> None:
        self.harness = harness
        self.tenant = tenant
        self.window_s = float(window_s)
        #: Reads the sketches shared with the tenant's FIRM Extractor, if
        #: it has one, through its own untrained SVM.
        self.extractor = Extractor(tenant.coordinator, window_s=self.window_s)
        self.windows: List[WindowScore] = []

    def attach(self, until_s: float) -> None:
        """Schedule the recurring evaluation on the harness engine."""
        self.harness.engine.schedule_recurring(
            self.window_s, self.evaluate, name="localization-score", until=until_s
        )

    def evaluate(self, engine) -> None:
        """Score the window ``[now - window_s, now)`` (the recurring body).

        Ground truth covers every significant injection overlapping the
        analysis window — not just the ones still active at the probe
        instant, since the window's traces carry the symptoms of
        anomalies that ended mid-window too.
        """
        injector = self.tenant.injector
        targets, node_names = injector.ground_truth_window(
            engine.now - self.window_s,
            engine.now,
            min_intensity=SIGNIFICANT_INTENSITY,
        )
        truth_targets = set(targets)
        injected_nodes = set(node_names)
        _, features = self.extractor.window_features()
        if not features:
            return
        truth = set()
        flagged = set()
        matrix = np.vstack([feature.as_vector() for feature in features])
        decisions = self.extractor.svm.classify(matrix)
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
