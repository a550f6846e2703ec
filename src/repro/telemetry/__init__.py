"""Streaming-sketch telemetry primitives.

Retaining one sample object per container per sampling period and every
trace until eviction costs O(history) per container and O(capacity)
traces.  This package holds the constant-memory primitives the telemetry
collector and tracing coordinator are built from:

* :mod:`repro.telemetry.histogram` — fixed-geometric-bin log histograms
  with a bounded relative error at any scale, whose merge is bin-wise
  integer addition — the package's one quantile sketch: windowed
  histograms, run digests and the observability registry's histograms
  are all built from it;
* :mod:`repro.telemetry.window` — fixed-size ring-buffer windowed
  statistics (count/mean/max per resource, windowed histograms, windowed
  co-moments for incremental Pearson correlation);
* :mod:`repro.telemetry.reservoir` — a SeededRNG-driven Algorithm-R
  reservoir sampler for deterministic trace retention;
* :mod:`repro.telemetry.digest` — the per-run latency digest each
  tracing coordinator publishes and the tenant-order fold that combines
  them into one run-level digest;
* :mod:`repro.telemetry.memory` — honest retained-footprint accounting
  used by firmbench's ``retained_mb`` metrics and the constant-memory
  regression test.
"""

from repro.telemetry.digest import TelemetryDigest, merge_telemetry_digests
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.reservoir import ReservoirSampler
from repro.telemetry.window import (
    WindowedCoMoments,
    WindowedCounter,
    WindowedHistogram,
)

__all__ = [
    "LogHistogram",
    "ReservoirSampler",
    "TelemetryDigest",
    "WindowedCoMoments",
    "WindowedCounter",
    "WindowedHistogram",
    "merge_telemetry_digests",
]
