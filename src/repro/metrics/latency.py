"""Latency statistics helpers used across experiments and reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile of ``samples`` (0 when empty), matching numpy semantics."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def cdf_points(samples: Sequence[float], points: int = 100) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, cumulative_probability)`` pairs.

    Returns ``points`` evenly spaced probability levels, which is what the
    paper's CDF figures (Fig. 3, Fig. 10) plot.
    """
    if len(samples) == 0:
        return []
    data = np.sort(np.asarray(samples, dtype=float))
    probabilities = np.linspace(0.0, 1.0, points)
    values = np.quantile(data, probabilities)
    return [(float(v), float(p)) for v, p in zip(values, probabilities)]


@dataclass
class LatencyStats:
    """Summary statistics of a latency sample set (milliseconds)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float
    std: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute stats from raw samples; empty input yields all zeros."""
        if len(samples) == 0:
            return cls(count=0, mean=0.0, median=0.0, p95=0.0, p99=0.0, maximum=0.0, std=0.0)
        data = np.asarray(samples, dtype=float)
        return cls(
            count=int(data.size),
            mean=float(data.mean()),
            median=float(np.percentile(data, 50)),
            p95=float(np.percentile(data, 95)),
            p99=float(np.percentile(data, 99)),
            maximum=float(data.max()),
            std=float(data.std()),
        )

    def as_dict(self) -> dict:
        """Plain-dict form for reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
            "std": self.std,
        }
