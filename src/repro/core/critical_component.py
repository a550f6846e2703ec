"""Critical component extraction (Algorithm 2 of the paper).

Given extracted critical paths and the per-instance latency samples behind
them, the extractor computes two features per instance:

* **Relative importance (RI)** -- the Pearson correlation between the
  instance's per-request latency and the end-to-end CP latency ("variance
  explained"): how much of the end-to-end variability this instance
  accounts for.
* **Congestion intensity (CI)** -- the ratio of the instance's 99th
  percentile latency to its median latency: how congested the instance's
  request queue is.

The (RI, CI) pairs are classified by the incremental SVM; instances whose
decision is positive are the candidates handed to the RL-based resource
estimator for mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.critical_path import CriticalPath
from repro.core.svm import IncrementalSVM
from repro.tracing.trace import Trace


@dataclass
class InstanceFeatures:
    """Features computed for one microservice instance on the critical path."""

    instance: str
    service: str
    relative_importance: float
    congestion_intensity: float
    sample_count: int

    def as_vector(self) -> np.ndarray:
        """Feature vector in the order expected by the SVM."""
        return np.array([self.relative_importance, self.congestion_intensity], dtype=float)


class CriticalComponentExtractor:
    """Localizes the microservice instances likely responsible for SLO violations.

    Parameters
    ----------
    svm:
        The incremental SVM used for the final binary decision; a fresh
        (cold-start) classifier is created when omitted.
    min_samples:
        Minimum latency samples an instance needs before its features are
        considered trustworthy.
    """

    def __init__(self, svm: Optional[IncrementalSVM] = None, min_samples: int = 5) -> None:
        self.svm = svm if svm is not None else IncrementalSVM(input_dim=2)
        self.min_samples = int(min_samples)

    # --------------------------------------------------------------- features
    def compute_features(
        self,
        paths: Sequence[CriticalPath],
        traces: Sequence[Trace],
    ) -> List[InstanceFeatures]:
        """Compute (RI, CI) for every instance appearing on any critical path.

        Per-request instance latencies are aligned with the end-to-end CP
        latency of the same request so the Pearson correlation is computed
        over matched pairs, as in the paper's "variance explained" metric.
        """
        trace_by_id = {trace.request_id: trace for trace in traces}
        cp_latency_by_request: Dict[str, float] = {}
        instance_latency: Dict[str, Dict[str, float]] = {}
        instance_service: Dict[str, str] = {}
        instance_all_samples: Dict[str, List[float]] = {}

        for path in paths:
            trace = trace_by_id.get(path.request_id)
            if trace is None or not path.spans:
                continue
            cp_latency_by_request[path.request_id] = path.end_to_end_latency_ms
            for span in path.spans:
                instance_service[span.instance] = span.service
                per_request = instance_latency.setdefault(span.instance, {})
                per_request[path.request_id] = (
                    per_request.get(path.request_id, 0.0) + span.sojourn_time_ms
                )
                instance_all_samples.setdefault(span.instance, []).append(span.sojourn_time_ms)

        features: List[InstanceFeatures] = []
        for instance, per_request in instance_latency.items():
            samples = instance_all_samples[instance]
            if len(per_request) < self.min_samples:
                continue
            request_ids = sorted(per_request)
            instance_series = np.array([per_request[rid] for rid in request_ids])
            total_series = np.array([cp_latency_by_request[rid] for rid in request_ids])
            ri = self._pearson(instance_series, total_series)
            ci = self._congestion_intensity(samples)
            features.append(
                InstanceFeatures(
                    instance=instance,
                    service=instance_service[instance],
                    relative_importance=ri,
                    congestion_intensity=ci,
                    sample_count=len(samples),
                )
            )
        return features

    @staticmethod
    def _pearson(x: np.ndarray, y: np.ndarray) -> float:
        """Pearson correlation coefficient, defined as 0 for degenerate input."""
        if x.size < 2 or y.size < 2:
            return 0.0
        if float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])

    @staticmethod
    def _congestion_intensity(samples: Sequence[float]) -> float:
        """p99 / p50 of the instance's sojourn times (0 for empty/zero median)."""
        if len(samples) == 0:
            return 0.0
        data = np.asarray(samples, dtype=float)
        median = float(np.percentile(data, 50))
        if median <= 0:
            return 0.0
        return float(np.percentile(data, 99)) / median

    # ----------------------------------------------------------- localization
    def select(self, features: Sequence[InstanceFeatures]) -> List[InstanceFeatures]:
        """SVM-flagged candidates among precomputed features (batch classify).

        One vectorized :meth:`IncrementalSVM.classify` call replaces the
        per-instance ``classify_one`` loop; decisions are per-row, so the
        answers match the loop.  The Extractor feeds this directly with
        features computed from the coordinator's windowed sketches.
        """
        features = list(features)
        if not features:
            return []
        matrix = np.vstack([feature.as_vector() for feature in features])
        decisions = self.svm.classify(matrix)
        return [feature for feature, flag in zip(features, decisions) if flag]

    def extract(
        self,
        paths: Sequence[CriticalPath],
        traces: Sequence[Trace],
    ) -> List[InstanceFeatures]:
        """Return the candidate instances the SVM flags for re-provisioning."""
        return self.select(self.compute_features(paths, traces))

    def rank(
        self,
        paths: Sequence[CriticalPath],
        traces: Sequence[Trace],
    ) -> List[Tuple[InstanceFeatures, float]]:
        """All instances ranked by the SVM decision score (highest first).

        Useful for the Fig. 9(a) ROC sweep, where the decision threshold is
        varied across the score range.
        """
        features = self.compute_features(paths, traces)
        if not features:
            return []
        matrix = np.vstack([feature.as_vector() for feature in features])
        scores = self.svm.decision_function(matrix)
        ranked = sorted(zip(features, scores), key=lambda pair: pair[1], reverse=True)
        return [(feature, float(score)) for feature, score in ranked]

    # --------------------------------------------------------------- training
    def train_from_ground_truth(
        self,
        paths: Sequence[CriticalPath],
        traces: Sequence[Trace],
        culprit_services: Sequence[str],
    ) -> float:
        """Online SVM update from injector ground truth.

        The anomaly injector knows which services were under injection; the
        paper uses such injections to generate labelled data for the SVM.
        Returns the post-update hinge loss (0.0 when there was nothing to
        train on).
        """
        features = self.compute_features(paths, traces)
        if not features:
            return 0.0
        labels = [1 if feature.service in culprit_services else 0 for feature in features]
        matrix = np.vstack([feature.as_vector() for feature in features])
        return self.svm.partial_fit(matrix, labels)
