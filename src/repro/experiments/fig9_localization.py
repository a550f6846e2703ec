"""Fig. 9 — critical component localization performance.

Every panel scores the features FIRM classifies: each run builds a FIRM
:class:`~repro.core.extractor.Extractor` on the tenant's coordinator
right after the harness (its windowed per-instance sketches fold only
completions after they are requested), and reads the window's critical
paths and instance (RI, CI) features from it.  Online SVM training uses
:meth:`~repro.core.extractor.Extractor.train_svm` alone.

Three panels:

* **(a)** ROC curves of single-anomaly localization per anomaly type
  (average AUC ≈ 0.978 in the paper).  For each anomaly type, intensity is
  swept against randomly chosen target services; every sweep window yields
  scored (instance, is-culprit) pairs from the Extractor's SVM ranking and
  the ROC is computed by varying the decision threshold.
* **(b)** multi-anomaly localization accuracy per application and processor
  architecture (92.8%-94.6% in the paper).  A multi-anomaly campaign
  (panel (c)'s schedule) runs against each application; in every window the
  Extractor's candidate set is compared with the injector's ground truth.
* **(c)** the multi-anomaly campaign itself (intensity x type x window),
  generated by :func:`repro.anomaly.campaigns.multi_anomaly_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalyType
from repro.anomaly.campaigns import multi_anomaly_campaign, single_anomaly_sweep
from repro.apps.catalog import build_application
from repro.core.extractor import Extractor
from repro.core.svm import IncrementalSVM
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec
from repro.sim.rng import SeededRNG


# --------------------------------------------------------------------------
# ROC helpers
# --------------------------------------------------------------------------

def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> Tuple[List[float], List[float]]:
    """Compute (false positive rates, true positive rates) by threshold sweep.

    One point per distinct score: tied scores share a threshold, so the
    curve (and its AUC) does not depend on the order of the input.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0:
        return [0.0, 1.0], [0.0, 1.0]
    order = np.argsort(-scores)
    scores = scores[order]
    labels = labels[order]
    positives = labels.sum()
    negatives = len(labels) - positives
    tpr = [0.0]
    fpr = [0.0]
    tp = 0
    fp = 0
    for index, label in enumerate(labels):
        if label:
            tp += 1
        else:
            fp += 1
        if index + 1 < len(scores) and scores[index + 1] == scores[index]:
            continue
        tpr.append(tp / positives if positives else 0.0)
        fpr.append(fp / negatives if negatives else 0.0)
    return fpr, tpr


def auc(fpr: Sequence[float], tpr: Sequence[float]) -> float:
    """Area under an ROC curve by trapezoidal integration."""
    return float(np.trapezoid(np.asarray(tpr), np.asarray(fpr)))


# --------------------------------------------------------------------------
# Panel (a): single-anomaly ROC
# --------------------------------------------------------------------------

@dataclass
class SingleAnomalyROC:
    """ROC data for one anomaly type."""

    anomaly_type: AnomalyType
    fpr: List[float]
    tpr: List[float]
    auc: float
    samples: int


#: Target services matched to each anomaly type's sensitive tier, used by
#: the single-anomaly sweep (the paper chooses injection intensities that
#: actually trigger SLO violations; injecting e.g. disk contention under a
#: purely CPU-bound service produces no symptom and no violation).
DEFAULT_SWEEP_TARGETS: Dict[AnomalyType, Tuple[str, ...]] = {
    AnomalyType.CPU_UTILIZATION: ("composePost", "text"),
    AnomalyType.MEMORY_BANDWIDTH: ("post-storage-memcached", "user-timeline-memcached"),
    AnomalyType.LLC_CONTENTION: ("post-storage-memcached", "user-memcached"),
    AnomalyType.IO_BANDWIDTH: ("post-storage-mongodb", "user-timeline-mongodb"),
    AnomalyType.NETWORK_BANDWIDTH: ("nginx", "video"),
    AnomalyType.NETWORK_DELAY: ("nginx", "video"),
}


def _injected_nodes(harness: ExperimentHarness, min_intensity: float = 0.0) -> List[str]:
    """Names of nodes currently under injection at or above ``min_intensity``.

    Delegates to the injector so multi-node scopes (``service_wide``,
    ``tenant``) report every pressured node, not just the primary one.
    """
    return harness.tenants[0].injector.injected_node_names(min_intensity=min_intensity)


def _collect_scored_samples(
    harness: ExperimentHarness,
    extractor: Extractor,
    culprit_services: Sequence[str],
) -> List[Tuple[float, int]]:
    """Score every instance on the window's CPs against the injection ground truth.

    The score is the SVM's decision function over the instance's features.
    An instance counts as a true culprit when its service is the injection
    target or when it is co-located on an injected node (node-level
    interference makes such neighbours genuine victims).
    """
    _, features = extractor.window_features()
    if not features:
        return []
    matrix = np.vstack([feature.as_vector() for feature in features])
    scores = extractor.svm.decision_function(matrix)
    injected_nodes = set(_injected_nodes(harness))
    samples: List[Tuple[float, int]] = []
    for feature, score in zip(features, scores):
        on_injected_node = False
        try:
            instance = harness.cluster.instance_by_name(feature.instance)
            node = instance.container.node
            on_injected_node = node is not None and node.name in injected_nodes
        except KeyError:
            pass
        is_culprit = feature.service in culprit_services or on_injected_node
        samples.append((float(score), 1 if is_culprit else 0))
    return samples


def run_fig9a(
    anomaly_types: Sequence[AnomalyType] = None,
    application: str = "social_network",
    target_services: Optional[Sequence[str]] = None,
    intensities: Sequence[float] = (0.8, 0.95),
    load_rps: float = 50.0,
    seed: int = 21,
    train: bool = True,
) -> Dict[AnomalyType, SingleAnomalyROC]:
    """Reproduce Fig. 9(a): per-anomaly-type localization ROC curves.

    Each injection is scored over its own window (the sweep's step
    duration).  When ``train`` is True the SVM receives one online update
    per sweep window from the injector's ground truth before being scored
    on the next window, mirroring the paper's online training procedure.
    When no explicit targets are given, each anomaly type is injected
    against services sensitive to it (the paper injects at intensities
    that actually trigger SLO violations).
    """
    if anomaly_types is None:
        anomaly_types = [a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION]
    step_duration_s = 15.0
    results: Dict[AnomalyType, SingleAnomalyROC] = {}
    svm = IncrementalSVM(input_dim=2)
    for anomaly_type in anomaly_types:
        samples: List[Tuple[float, int]] = []
        type_targets = (
            target_services
            if target_services is not None
            else DEFAULT_SWEEP_TARGETS.get(anomaly_type, ("composePost", "text"))
        )
        for service_index, target in enumerate(type_targets):
            campaign = single_anomaly_sweep(
                anomaly_type, target, intensities, step_duration_s=step_duration_s, gap_s=5.0
            )
            spec = ScenarioSpec(
                application=application,
                seed=seed + service_index,
                duration_s=campaign.end_time() + 10.0,
                load_rps=load_rps,
                controller="none",
                campaign=campaign,
            )
            harness = ExperimentHarness.from_spec(spec)
            extractor = Extractor(
                harness.tenants[0].coordinator, svm=svm, window_s=step_duration_s
            )

            scored_accumulator: List[Tuple[float, int]] = []

            def _evaluate_injection(engine, spec, extractor=extractor, h=harness):
                """Score instances over exactly the injection's window.

                Evaluating aligned with each injection (rather than on a
                fixed sampling grid) avoids diluting the localization
                features with anomaly-free traffic.
                """
                culprits = [spec.target_service]
                scored_accumulator.extend(_collect_scored_samples(h, extractor, culprits))
                if train:
                    extractor.train_svm(culprits)

            for injection in campaign.specs:
                harness.engine.schedule(
                    injection.end_s,
                    lambda eng, s=injection: _evaluate_injection(eng, s),
                    name="fig9a-evaluate",
                )
            harness.run(duration_s=spec.duration_s)
            samples.extend(scored_accumulator)

        scores = [score for score, _ in samples]
        labels = [label for _, label in samples]
        fpr, tpr = roc_curve(scores, labels)
        results[anomaly_type] = SingleAnomalyROC(
            anomaly_type=anomaly_type,
            fpr=fpr,
            tpr=tpr,
            auc=auc(fpr, tpr),
            samples=len(samples),
        )
    return results


# --------------------------------------------------------------------------
# Panel (b): multi-anomaly accuracy per application
# --------------------------------------------------------------------------

@dataclass
class MultiAnomalyAccuracy:
    """Localization accuracy for one application under multi-anomaly injection."""

    application: str
    accuracy: float
    windows: int
    per_architecture: Dict[str, float] = field(default_factory=dict)


def run_fig9b_for_application(
    application: str,
    windows: int = 8,
    window_s: float = 12.0,
    load_rps: float = 50.0,
    seed: int = 23,
) -> MultiAnomalyAccuracy:
    """Multi-anomaly localization accuracy for one application.

    Accuracy follows the paper's definition: per analysis window, per
    candidate decision — a service flagged while under injection (or on the
    injected node) counts as correct, as does a non-flagged healthy
    service; the reported number is the fraction of correct decisions over
    services appearing on critical paths.
    """
    # The campaign is pure data derived from named RNG substreams, so
    # building it up front (from the same seed) is identical to building it
    # against the harness — and lets the spec carry the exact run duration.
    campaign = multi_anomaly_campaign(
        build_application(application).service_names(),
        SeededRNG(seed),
        windows=windows,
        window_s=window_s,
        anomaly_types=[a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION],
    )
    spec = ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=campaign.end_time() + window_s,
        load_rps=load_rps,
        controller="none",
        campaign=campaign,
    )
    harness = ExperimentHarness.from_spec(spec)
    extractor = Extractor(harness.tenants[0].coordinator, window_s=window_s)

    correct = 0
    total = 0
    per_arch_correct: Dict[str, int] = {}
    per_arch_total: Dict[str, int] = {}

    #: Injections weaker than this are not expected to cause SLO violations
    #: and are therefore not counted as ground-truth culprits (the paper's
    #: ground truth is the cause of the SLO violation, not of harmless noise).
    significant_intensity = 0.5

    def _evaluate(engine) -> None:
        nonlocal correct, total
        culprits = {
            record.spec.target_service
            for record in harness.tenants[0].injector.active_anomalies()
            if record.spec.intensity >= significant_intensity
        }
        injected_nodes = set(_injected_nodes(harness, min_intensity=significant_intensity))
        _, features = extractor.window_features()
        if not features:
            return
        matrix = np.vstack([feature.as_vector() for feature in features])
        decisions = extractor.svm.classify(matrix)
        flagged = {feature.service for feature, flag in zip(features, decisions) if flag}
        for feature in features:
            service = feature.service
            instance = None
            try:
                instance = harness.cluster.instance_by_name(feature.instance)
            except KeyError:
                pass
            on_injected_node = (
                instance is not None
                and instance.container.node is not None
                and instance.container.node.name in injected_nodes
            )
            is_true_culprit = service in culprits or on_injected_node
            predicted_culprit = service in flagged
            arch = (
                instance.container.node.architecture
                if instance is not None and instance.container.node is not None
                else "x86"
            )
            per_arch_total[arch] = per_arch_total.get(arch, 0) + 1
            if predicted_culprit == is_true_culprit:
                correct += 1
                per_arch_correct[arch] = per_arch_correct.get(arch, 0) + 1
            total += 1
        # Online SVM training from ground truth, as in the paper.
        extractor.train_svm(sorted(culprits))

    harness.engine.schedule_recurring(window_s, _evaluate, name="fig9b-evaluate")
    harness.run(duration_s=spec.duration_s)

    per_architecture = {
        arch: per_arch_correct.get(arch, 0) / count
        for arch, count in per_arch_total.items()
        if count > 0
    }
    return MultiAnomalyAccuracy(
        application=application,
        accuracy=correct / total if total else 0.0,
        windows=windows,
        per_architecture=per_architecture,
    )


def run_fig9b(
    applications: Sequence[str] = ("social_network", "media_service", "hotel_reservation", "train_ticket"),
    **kwargs,
) -> Dict[str, MultiAnomalyAccuracy]:
    """Reproduce Fig. 9(b) across the benchmark applications."""
    return {
        application: run_fig9b_for_application(application, **kwargs)
        for application in applications
    }


def run_fig9c(
    application: str = "social_network",
    windows: int = 12,
    window_s: float = 10.0,
    seed: int = 23,
):
    """Reproduce Fig. 9(c): the multi-anomaly campaign intensity timeline.

    The campaign schedule is pure data — no cluster needed, only the
    application's service list and the seeded RNG.
    """
    app = build_application(application)
    campaign = multi_anomaly_campaign(
        app.service_names(), SeededRNG(seed), windows=windows, window_s=window_s
    )
    return campaign.intensity_timeline(window_s)
