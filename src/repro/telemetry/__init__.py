"""Streaming-sketch telemetry primitives.

Retaining one sample object per container per sampling period and every
trace until eviction costs O(history) per container and O(capacity)
traces.  This package holds the constant-memory primitives the telemetry
collector and tracing coordinator are built from:

* :mod:`repro.telemetry.p2` — the P² incremental quantile estimator
  (Jain & Chlamtac 1985): five markers, O(1) memory, no sample retention;
* :mod:`repro.telemetry.histogram` — fixed-geometric-bin log histograms
  whose merge is bin-wise integer addition, i.e. exactly associative and
  commutative — the primitive shard digests are built from;
* :mod:`repro.telemetry.window` — fixed-size ring-buffer windowed
  statistics (count/mean/max per resource, windowed histograms, windowed
  co-moments for incremental Pearson correlation);
* :mod:`repro.telemetry.reservoir` — a SeededRNG-driven Algorithm-R
  reservoir sampler for deterministic trace retention;
* :mod:`repro.telemetry.digest` — the per-run latency digest shards
  publish and the ascending-order fold that merges them;
* :mod:`repro.telemetry.tdigest` — a deterministic merging t-digest:
  tail-accurate quantiles *and* a merge operation, closing the gap P²
  leaves (O(1) but unmergeable) for sketches that must fold across
  shards — the backend of the observability registry's histograms;
* :mod:`repro.telemetry.memory` — honest retained-footprint accounting
  used by the ``telemetry_fleet`` perf macro and the constant-memory
  regression test.
"""

from repro.telemetry.digest import TelemetryDigest, merge_telemetry_digests
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.p2 import P2Quantile
from repro.telemetry.reservoir import ReservoirSampler
from repro.telemetry.tdigest import TDigest, merge_tdigests
from repro.telemetry.window import (
    WindowedCoMoments,
    WindowedCounter,
    WindowedHistogram,
)

__all__ = [
    "LogHistogram",
    "P2Quantile",
    "ReservoirSampler",
    "TDigest",
    "TelemetryDigest",
    "WindowedCoMoments",
    "WindowedCounter",
    "WindowedHistogram",
    "merge_tdigests",
    "merge_telemetry_digests",
]
