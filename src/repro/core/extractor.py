"""Extractor: SLO-violation detection plus CP / critical-component analysis.

The Extractor (modules 2-3 in the paper's architecture) detects SLO
violations from the tracing coordinator's recent latency statistics,
extracts critical paths from the recent traces, and localizes the critical
microservice instances that should be handed to the RL-based resource
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.critical_component import (
    CriticalComponentExtractor,
    InstanceFeatures,
)
from repro.core.critical_path import CriticalPath, CriticalPathExtractor
from repro.core.svm import IncrementalSVM
from repro.tracing.coordinator import TracingCoordinator


@dataclass
class ExtractionResult:
    """Everything the Extractor produces in one analysis round."""

    time_s: float
    slo_violated: bool
    critical_paths: List[CriticalPath] = field(default_factory=list)
    candidates: List[InstanceFeatures] = field(default_factory=list)

    @property
    def candidate_instances(self) -> List[str]:
        """Instance names flagged for re-provisioning."""
        return [feature.instance for feature in self.candidates]


class Extractor:
    """Detects SLO violations and localizes the responsible instances.

    Parameters
    ----------
    coordinator:
        Tracing coordinator to query.
    svm:
        Shared incremental SVM (so online training persists across rounds).
    window_s:
        Analysis window for traces and latency statistics.
    detection_percentile:
        Latency percentile compared against the SLO for detection.
    """

    def __init__(
        self,
        coordinator: TracingCoordinator,
        svm: Optional[IncrementalSVM] = None,
        window_s: float = 10.0,
        detection_percentile: float = 99.0,
    ) -> None:
        self.coordinator = coordinator
        self.window_s = float(window_s)
        self.detection_percentile = float(detection_percentile)
        self.path_extractor = CriticalPathExtractor()
        self.component_extractor = CriticalComponentExtractor(svm=svm)

    # -------------------------------------------------------------- analysis
    def _sketch_features(self, paths: Sequence[CriticalPath]) -> List[InstanceFeatures]:
        """Windowed (RI, CI) features for every instance on the given CPs.

        The coordinator's per-instance co-moments and sojourn histograms
        answer in O(instances × buckets), independent of how many traces
        the window saw — no per-request alignment scans.
        """
        instances = sorted({span.instance for path in paths for span in path.spans})
        return self.coordinator.instance_features(
            self.window_s,
            instances=instances,
            min_samples=self.component_extractor.min_samples,
        )

    def detect(self) -> bool:
        """True when any request type's tail latency currently violates its SLO."""
        return self.coordinator.has_slo_violation(
            self.window_s, percentile=self.detection_percentile
        )

    def analyse(self, force: bool = False) -> ExtractionResult:
        """Run one detection + localization round.

        When no SLO violation is detected (and ``force`` is False) the
        result carries no candidates so the controller can skip mitigation
        and consider scaling down instead.

        Critical paths come from the retained traces (the reservoir
        sample); the per-instance features feeding the SVM come from the
        coordinator's windowed sketches.
        """
        violated = self.detect()
        result = ExtractionResult(time_s=self.coordinator.engine.now, slo_violated=violated)
        if not violated and not force:
            return result
        traces = self.coordinator.recent_traces(self.window_s)
        if not traces:
            return result
        result.critical_paths = self.path_extractor.extract_all(traces)
        features = self._sketch_features(result.critical_paths)
        result.candidates = self.component_extractor.select(features)
        return result

    # -------------------------------------------------------------- training
    def train_svm(self, culprit_services: Sequence[str]) -> float:
        """Online SVM update using injector ground truth for the current window."""
        traces = self.coordinator.recent_traces(self.window_s)
        if not traces:
            return 0.0
        features = self._sketch_features(self.path_extractor.extract_all(traces))
        if not features:
            return 0.0
        labels = [1 if feature.service in culprit_services else 0 for feature in features]
        matrix = np.vstack([feature.as_vector() for feature in features])
        return self.component_extractor.svm.partial_fit(matrix, labels)
