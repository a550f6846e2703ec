"""Per-instance localization sketches, owned by their readers.

FIRM's localization step (the Extractor's SVM) classifies instances by two
windowed features: relative importance, the Pearson correlation of an
instance's per-trace sojourn total with end-to-end latency, and congestion
intensity, the instance's sojourn q99/q50.  :class:`InstanceSketches`
keeps both as constant-memory ring sketches, one pair per instance, folded
once per completed trace.

Only tenants that localize pay for the fold: a tenant's coordinator builds
its one :class:`InstanceSketches` the first time a reader (the FIRM
Extractor, the resilience localization scorer) asks for it through
:meth:`~repro.tracing.coordinator.TracingCoordinator.instance_sketches`,
and folds completions into it only from then on.  Readers therefore ask
when they are built, before the run starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.telemetry.window import WindowedCoMoments, WindowedHistogram
from repro.tracing.trace import Trace

#: Localization windows are >= 5 s (8-10 s in practice), so 1 s buckets
#: over a 32 s horizon suffice.  These rings are the sketch layer's largest
#: fixed cost (one histogram per live slot per instance), so the horizon is
#: the knob that keeps a fleet's constant footprint small.
_INSTANCE_BUCKET_S = 1.0
_INSTANCE_BUCKETS = 32

#: Longest window the sketches can answer, in seconds: ``features`` over a
#: longer one reads only this much, so the Extractor rejects one.
HORIZON_S = _INSTANCE_BUCKETS * _INSTANCE_BUCKET_S

#: Fewest traces an instance needs in the window before its features are
#: trusted.
MIN_SAMPLES = 5


@dataclass
class InstanceFeatures:
    """Windowed SVM features of one microservice instance."""

    instance: str
    service: str
    relative_importance: float
    congestion_intensity: float
    sample_count: int

    def as_vector(self) -> np.ndarray:
        """Feature vector in the order expected by the SVM."""
        return np.array([self.relative_importance, self.congestion_intensity], dtype=float)


class _InstanceSketch:
    """Windowed per-instance feature state."""

    __slots__ = ("service", "sojourn", "comoments")

    def __init__(self, service: str) -> None:
        self.service = service
        #: Per-span sojourn times (ms) — congestion intensity (q99/q50).
        self.sojourn = WindowedHistogram(
            bucket_s=_INSTANCE_BUCKET_S, buckets=_INSTANCE_BUCKETS
        )
        #: (per-trace instance total sojourn, trace e2e latency) pairs —
        #: relative importance via incremental Pearson correlation.
        self.comoments = WindowedCoMoments(
            bucket_s=_INSTANCE_BUCKET_S, buckets=_INSTANCE_BUCKETS
        )


class InstanceSketches:
    """Windowed per-instance sojourn and co-moment sketches of one tenant."""

    __slots__ = ("_sketches",)

    def __init__(self) -> None:
        self._sketches: Dict[str, _InstanceSketch] = {}

    def fold(self, trace: Trace, completion_time: float, latency_ms: float) -> None:
        """Fold one completed trace's spans into the per-instance sketches."""
        sketches = self._sketches
        per_instance_ms: Dict[str, float] = {}
        for span in trace._spans.values():  # unordered walk; sums only
            # ``span.sojourn_time_ms``, inlined: clamped at 0, in ms.
            sojourn = span.end_time - span.enqueue_time
            sojourn_ms = (sojourn if sojourn > 0.0 else 0.0) * 1000.0
            instance = span.instance
            sketch = sketches.get(instance)
            if sketch is None:
                sketch = sketches[instance] = _InstanceSketch(span.service)
            sketch.sojourn.add(completion_time, sojourn_ms)
            per_instance_ms[instance] = per_instance_ms.get(instance, 0.0) + sojourn_ms
        for instance, total_ms in per_instance_ms.items():
            sketches[instance].comoments.add(completion_time, total_ms, latency_ms)

    def features(
        self,
        now: float,
        window_s: float,
        instances: Optional[List[str]] = None,
        min_samples: int = MIN_SAMPLES,
    ) -> List[InstanceFeatures]:
        """Per-instance SVM features over ``[now - window_s, now]``.

        Relative importance is the windowed co-moments' Pearson
        correlation and congestion intensity the windowed sojourn q99/q50,
        for every instance (or the given subset) with at least
        ``min_samples`` traces in the window.
        """
        names = instances if instances is not None else sorted(self._sketches)
        features: List[InstanceFeatures] = []
        for instance in names:
            sketch = self._sketches.get(instance)
            if sketch is None:
                continue
            samples = sketch.comoments.window_count(now, window_s)
            if samples < min_samples:
                continue
            median, tail = sketch.sojourn.quantiles((50.0, 99.0), now, window_s)
            intensity = tail / median if median > 0.0 else 0.0
            features.append(
                InstanceFeatures(
                    instance=instance,
                    service=sketch.service,
                    relative_importance=sketch.comoments.pearson(now, window_s),
                    congestion_intensity=intensity,
                    sample_count=samples,
                )
            )
        return features
