"""The metrics registry: named counters, gauges, and sketch histograms.

Components register metrics by name plus a label set
(``registry.counter("routing_picks_total", service="nginx",
policy="ewma_latency")``); the registry interns each ``(name, labels)``
series so hot paths resolve to the *same* metric object on every call
and can cache it outright.  Three metric types cover the run-record
needs:

* :class:`Counter` — a monotone float;
* :class:`Gauge` — the last value set;
* :class:`HistogramMetric` — a value distribution backed by the same
  :class:`~repro.telemetry.histogram.LogHistogram` the run digests use,
  which keeps every quantile within ~4% relative error in bounded memory.

Everything is picklable (plain attributes, no callables), so a registry
rides home inside its :class:`~repro.experiments.harness.ExperimentResult`
from a sweep worker process.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.telemetry.histogram import LogHistogram

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
]

#: Headline quantiles exported in snapshots and Prometheus exposition.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)

LabelsKey = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class HistogramMetric:
    """A value distribution backed by a log-histogram sketch."""

    __slots__ = ("count", "total", "_sketch")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._sketch = LogHistogram()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self._sketch.add(value)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in ``[0, 1]``)."""
        return self._sketch.quantile(100.0 * q)


class MetricsRegistry:
    """Interned ``(name, labels)`` series of counters/gauges/histograms."""

    def __init__(self) -> None:
        #: (name, labels_key) -> metric object.
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}
        #: name -> declared type ("counter" | "gauge" | "histogram").
        self._types: Dict[str, str] = {}

    # -------------------------------------------------------------- creation
    @staticmethod
    def _labels_key(labels: Dict[str, str]) -> LabelsKey:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _series(self, name: str, type_: str, labels: Dict[str, str], factory):
        declared = self._types.get(name)
        if declared is None:
            self._types[name] = type_
        elif declared != type_:
            raise ValueError(
                f"metric {name!r} is already registered as a {declared}, "
                f"not a {type_}"
            )
        key = (name, self._labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        return self._series(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        return self._series(name, "gauge", labels, Gauge)

    def histogram(self, name: str, **labels) -> HistogramMetric:
        """The histogram series ``name{labels}`` (created on first use)."""
        return self._series(name, "histogram", labels, HistogramMetric)

    # --------------------------------------------------------------- queries
    def series(self) -> List[Tuple[str, str, Dict[str, str], object]]:
        """All series as ``(name, type, labels, metric)``, sorted."""
        rows = []
        for (name, labels_key), metric in self._metrics.items():
            rows.append((name, self._types[name], dict(labels_key), metric))
        rows.sort(key=lambda row: (row[0], tuple(sorted(row[2].items()))))
        return rows

    def snapshot(self) -> Dict[str, List[dict]]:
        """A JSON-ready snapshot, deterministically ordered."""
        out: Dict[str, List[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for name, type_, labels, metric in self.series():
            if type_ == "counter":
                out["counters"].append(
                    {"name": name, "labels": labels, "value": metric.value}
                )
            elif type_ == "gauge":
                out["gauges"].append(
                    {"name": name, "labels": labels, "value": metric.value}
                )
            else:
                out["histograms"].append(
                    {
                        "name": name,
                        "labels": labels,
                        "count": metric.count,
                        "sum": metric.total,
                        "quantiles": {
                            str(q): metric.quantile(q) for q in SNAPSHOT_QUANTILES
                        },
                    }
                )
        return out
