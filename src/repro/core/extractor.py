"""Extractor: SLO-violation detection plus CP / critical-component analysis.

The Extractor (modules 2-3 in the paper's architecture) detects SLO
violations from the tracing coordinator's recent latency statistics,
extracts critical paths from the recent traces, and localizes the critical
microservice instances that should be handed to the RL-based resource
estimator.  A retained trace's critical path is extracted once and carried
over between rounds while the trace stays in the analysis window (see
:mod:`repro.core.critical_path` for why a completed trace's path is fixed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.critical_path import CriticalPath, CriticalPathExtractor
from repro.core.svm import IncrementalSVM
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.instance_sketch import HORIZON_S, InstanceFeatures
from repro.tracing.trace import Trace


@dataclass
class ExtractionResult:
    """Everything the Extractor produces in one analysis round."""

    time_s: float
    slo_violated: bool
    #: Read-only: a path can be the same object in several rounds' results
    #: (see :meth:`Extractor.window_features`).
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
        Shared incremental SVM (so online training persists across rounds);
        a fresh (cold-start) classifier is created when omitted.
    window_s:
        Analysis window for traces and latency statistics; at most the
        localization sketches' horizon
        (:data:`~repro.tracing.instance_sketch.HORIZON_S`, 32 s), else
        ``ValueError``.
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
        if window_s > HORIZON_S:
            raise ValueError(
                f"Extractor window_s={window_s:g} s exceeds the localization "
                f"sketches' {HORIZON_S:g} s horizon"
            )
        self.coordinator = coordinator
        #: The tenant's per-instance localization sketches; asking for them
        #: here starts their fold before the run does.
        self.sketches = coordinator.instance_sketches()
        self.svm = svm if svm is not None else IncrementalSVM(input_dim=2)
        self.window_s = float(window_s)
        self.detection_percentile = float(detection_percentile)
        self.path_extractor = CriticalPathExtractor()
        #: The last :meth:`window_features` call's critical paths, keyed by
        #: trace object (an ``id`` can be reused once the reservoir evicts
        #: a trace), so a trace is extracted once while it stays in the window.
        self._window_paths: Dict[Trace, CriticalPath] = {}

    # -------------------------------------------------------------- analysis
    def window_features(self) -> Tuple[List[CriticalPath], List[InstanceFeatures]]:
        """The window's critical paths and the (RI, CI) of the instances on them.

        Critical paths come from the retained traces (the reservoir
        sample), in the coordinator's order.  Paths carry over between
        calls: the previous call's paths are kept, keyed by the ``Trace``
        object, and only traces new to the window are extracted.  The map
        is rebuilt from each call's traces, so it never holds more than
        one window, and a trace the reservoir evicted or the window left
        behind drops out of it.  A kept path is returned again by later
        calls, and so shared between rounds' results; treat it as
        read-only.  The features come from the tenant's windowed
        per-instance co-moments and sojourn histograms, which answer in
        O(instances × buckets) however many traces the window saw.
        """
        traces = self.coordinator.recent_traces(self.window_s)
        kept = self._window_paths
        self._window_paths = window_paths = {}
        if not traces:
            return [], []
        extract = self.path_extractor.extract
        for trace in traces:
            path = kept.get(trace)
            if path is None:
                if trace.root is None:
                    continue
                path = extract(trace)
            window_paths[trace] = path
        paths = list(window_paths.values())
        instances = sorted({span.instance for path in paths for span in path.spans})
        features = self.sketches.features(
            self.coordinator.engine.now, self.window_s, instances=instances
        )
        return paths, features

    def detect(self) -> bool:
        """True when any request type's tail latency currently violates its SLO."""
        return self.coordinator.has_slo_violation(
            self.window_s, percentile=self.detection_percentile
        )

    def analyse(self, force: bool = False) -> ExtractionResult:
        """Run one detection + localization round.

        When no SLO violation is detected (and ``force`` is False) the
        result carries no candidates so the controller can skip mitigation
        and consider scaling down instead.  Otherwise the candidates are
        the instances whose features the SVM flags, in one vectorized
        classification.
        """
        violated = self.detect()
        result = ExtractionResult(time_s=self.coordinator.engine.now, slo_violated=violated)
        if not violated and not force:
            return result
        result.critical_paths, features = self.window_features()
        if features:
            matrix = np.vstack([feature.as_vector() for feature in features])
            decisions = self.svm.classify(matrix)
            result.candidates = [f for f, flag in zip(features, decisions) if flag]
        return result

    # -------------------------------------------------------------- training
    def train_svm(self, culprit_services: Sequence[str]) -> float:
        """Online SVM update using injector ground truth for the current window.

        An instance is labelled positive when its service is among
        ``culprit_services``.  Returns the post-update hinge loss (0.0 when
        the window had nothing to train on).
        """
        _, features = self.window_features()
        if not features:
            return 0.0
        labels = [1 if feature.service in culprit_services else 0 for feature in features]
        matrix = np.vstack([feature.as_vector() for feature in features])
        return self.svm.partial_fit(matrix, labels)
