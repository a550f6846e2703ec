"""Telemetry collection (the cAdvisor / Prometheus / perf substitute).

Table 2 of the paper lists the telemetry signals FIRM collects per
container: CPU usage, memory usage, filesystem read/write, network
transmit/receive, and perf-counter-derived LLC / DRAM access metrics.  The
:class:`TelemetryCollector` samples the simulated cluster on a fixed period,
which the tracing coordinator exposes to the Extractor and the RL agent.

The collector's memory is constant in run length: one fleet-wide set of
ring-buffer numpy aggregates (per-bucket count / sum / max of usage and
utilization for every container at once, updated vectorized once per
sampling tick) plus a per-container P² CPU-utilization quantile estimator,
with only a short raw tail retained for ``latest()``-style point queries.
Windowed queries fold the ring buckets — window edges are bucket-aligned,
so they over-include by up to one sampling period (the documented sketch
accuracy tradeoff).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.cluster.resources import RESOURCE_TYPES, ResourceUsage, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.telemetry.p2 import P2Quantile

#: Raw samples kept per container (point queries only).
SKETCH_RAW_TAIL = 8

#: Ring buckets; at the default 1 s period this spans 96 s,
#: comfortably covering FIRM's 60 s reclaim window.
SKETCH_BUCKETS = 96


@dataclass(slots=True)
class TelemetrySample:
    """One per-container telemetry observation.

    Samples are allocated once per container per sampling period for the
    whole run, so the dataclass is slotted to keep them small and cheap.

    Attributes
    ----------
    time:
        Simulation time of the sample (seconds).
    container_id:
        Container the sample describes.
    service_name:
        Microservice the container belongs to.
    usage:
        Absolute per-resource usage.
    utilization:
        Usage divided by the container's limits (``RU/RLT``).
    limits:
        The container's limits at sample time.
    node:
        Hosting node name.
    queue_length:
        Instance queue length at sample time.
    in_flight:
        Queued + in-service spans at sample time — the load signal the
        routing layer balances on, sampled per replica so routing
        experiments can audit how evenly a policy spread the work.
    tenant:
        Tenant owning the sampled container (None when untenanted), so
        per-tenant extractors can filter a shared telemetry stream.
    """

    time: float
    container_id: str
    service_name: str
    usage: ResourceVector
    utilization: ResourceVector
    limits: ResourceVector
    node: Optional[str] = None
    queue_length: int = 0
    in_flight: int = 0
    tenant: Optional[str] = None

    def as_row(self) -> Dict[str, float]:
        """Flatten to a plain dict (telemetry export format)."""
        row: Dict[str, float] = {
            "time": self.time,
            "queue_length": float(self.queue_length),
            "in_flight": float(self.in_flight),
        }
        for resource in RESOURCE_TYPES:
            row[f"usage_{resource.value}"] = self.usage[resource]
            row[f"utilization_{resource.value}"] = self.utilization[resource]
            row[f"limit_{resource.value}"] = self.limits[resource]
        return row


class TelemetryCollector:
    """Periodically samples every container in a cluster.

    Parameters
    ----------
    cluster:
        The cluster to observe.
    engine:
        Simulation engine used to schedule the sampling loop.
    period_s:
        Sampling period in seconds (default 1 s, matching the paper's
        near-real-time telemetry granularity).
    """

    def __init__(
        self,
        cluster: "Cluster",  # noqa: F821 - forward reference
        engine: SimulationEngine,
        period_s: float = 1.0,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.period_s = float(period_s)
        self._samples: Dict[str, Deque[TelemetrySample]] = defaultdict(
            lambda: deque(maxlen=SKETCH_RAW_TAIL)
        )
        #: Latest sample per container, grouped by service, in first-sample
        #: order — so ``service_utilization`` no longer scans every
        #: container's deque yet folds the same samples in the same order.
        self._latest_by_service: Dict[str, Dict[str, TelemetrySample]] = defaultdict(dict)
        self._running = False
        self._bucket_s = self.period_s
        self._buckets = SKETCH_BUCKETS
        n_resources = len(RESOURCE_TYPES)
        self._cols: Dict[str, int] = {}
        self._bucket_ids = np.full(self._buckets, -1, dtype=np.int64)
        self._counts = np.zeros((self._buckets, 0), dtype=np.int32)
        self._usage_sum = np.zeros((self._buckets, 0, n_resources), dtype=np.float32)
        self._usage_max = np.zeros_like(self._usage_sum)
        self._util_sum = np.zeros_like(self._usage_sum)
        self._util_max = np.zeros_like(self._usage_sum)
        self._cpu_p99: Dict[str, P2Quantile] = {}

    # ----------------------------------------------------------------- start
    def start(self) -> None:
        """Begin periodic sampling."""
        if self._running:
            return
        self._running = True
        self.engine.schedule_recurring(
            self.period_s, lambda eng: self.sample_all(), name="telemetry-sample"
        )

    # --------------------------------------------------------------- sampling
    def sample_all(self) -> List[TelemetrySample]:
        """Take one sample of every container; also returns the batch.

        The whole batch lands in the ring aggregates as a single vectorized
        update (one fancy-indexed add/max per array per tick for the entire
        fleet).
        """
        batch: List[TelemetrySample] = [
            self._sample_one(container) for container in self.cluster.all_containers()
        ]
        if batch:
            self._sketch_update(batch)
        return batch

    def sample_container(self, container) -> TelemetrySample:
        """Sample a single container and append to its history."""
        sample = self._sample_one(container)
        self._sketch_update([sample])
        return sample

    def _sample_one(self, container) -> TelemetrySample:
        """Observe one container and append to its raw tail.

        The capped demand is computed once and shared between the usage
        and utilization fields (they are derived from the same instant),
        halving the per-sample resource-model work.
        """
        instance = container.instance
        demand, utilization = container.demand_and_utilization()
        sample = TelemetrySample(
            time=self.engine.now,
            container_id=container.id,
            service_name=container.service_name,
            usage=ResourceUsage._from_normalized(dict(demand)),
            utilization=ResourceVector._from_normalized(utilization),
            limits=container.limits.copy(),
            node=container.node.name if container.node is not None else None,
            queue_length=instance.queue_length if instance is not None else 0,
            in_flight=instance.in_flight if instance is not None else 0,
            tenant=container.tenant,
        )
        self._samples[container.id].append(sample)
        self._latest_by_service[sample.service_name][container.id] = sample
        return sample

    # ------------------------------------------------------- sketch plumbing
    def _column(self, container_id: str) -> int:
        """Column index for a container, growing the arrays on first sight."""
        col = self._cols.get(container_id)
        if col is not None:
            return col
        col = len(self._cols)
        capacity = self._counts.shape[1]
        if col >= capacity:
            new_capacity = max(8, capacity * 2)
            grow = new_capacity - capacity
            self._counts = np.pad(self._counts, ((0, 0), (0, grow)))
            self._usage_sum = np.pad(self._usage_sum, ((0, 0), (0, grow), (0, 0)))
            self._usage_max = np.pad(self._usage_max, ((0, 0), (0, grow), (0, 0)))
            self._util_sum = np.pad(self._util_sum, ((0, 0), (0, grow), (0, 0)))
            self._util_max = np.pad(self._util_max, ((0, 0), (0, grow), (0, 0)))
        self._cols[container_id] = col
        return col

    def _sketch_update(self, batch: List[TelemetrySample]) -> None:
        """Fold one same-instant batch of samples into the ring aggregates."""
        bucket = int(batch[0].time // self._bucket_s)
        slot = bucket % self._buckets
        if self._bucket_ids[slot] != bucket:
            self._bucket_ids[slot] = bucket
            self._counts[slot, :] = 0
            self._usage_sum[slot] = 0.0
            self._usage_max[slot] = 0.0
            self._util_sum[slot] = 0.0
            self._util_max[slot] = 0.0
        n = len(batch)
        cols = np.empty(n, dtype=np.intp)
        usage_rows = np.empty((n, len(RESOURCE_TYPES)), dtype=np.float32)
        util_rows = np.empty_like(usage_rows)
        p2s = self._cpu_p99
        for i, sample in enumerate(batch):
            cols[i] = self._column(sample.container_id)
            # Normalized vectors hold every resource in canonical order.
            usage_rows[i] = list(sample.usage.values.values())
            util_rows[i] = list(sample.utilization.values.values())
            estimator = p2s.get(sample.container_id)
            if estimator is None:
                estimator = p2s[sample.container_id] = P2Quantile(0.99)
            estimator.add(float(util_rows[i, 0]))
        # One container appears at most once per batch, so the fancy-indexed
        # assignment below never aliases.
        self._counts[slot, cols] += 1
        self._usage_sum[slot, cols] += usage_rows
        self._usage_max[slot, cols] = np.maximum(self._usage_max[slot, cols], usage_rows)
        self._util_sum[slot, cols] += util_rows
        self._util_max[slot, cols] = np.maximum(self._util_max[slot, cols], util_rows)

    def _window_slots(self, duration_s: float) -> List[int]:
        """Live ring slots for buckets overlapping the trailing window."""
        now = self.engine.now
        end = int(now // self._bucket_s)
        start = max(int((now - duration_s) // self._bucket_s), end - self._buckets + 1)
        slots: List[int] = []
        ids = self._bucket_ids
        for bucket in range(start, end + 1):
            slot = bucket % self._buckets
            if ids[slot] == bucket:
                slots.append(slot)
        return slots

    # ---------------------------------------------------------------- queries
    def latest(self, container_id: str) -> Optional[TelemetrySample]:
        """Most recent sample for a container (None if never sampled)."""
        samples = self._samples.get(container_id)
        if not samples:
            return None
        return samples[-1]

    def window(self, container_id: str, duration_s: float) -> List[TelemetrySample]:
        """Raw-tail samples for ``container_id`` in the last ``duration_s`` seconds.

        Only the last :data:`SKETCH_RAW_TAIL` samples per container are
        retained; windowed aggregates come from :meth:`windowed_peak_usage`
        and friends.
        """
        samples = self._samples.get(container_id)
        if not samples:
            return []
        cutoff = self.engine.now - duration_s
        recent: List[TelemetrySample] = []
        for sample in reversed(samples):
            if sample.time < cutoff:
                break
            recent.append(sample)
        recent.reverse()
        return recent

    def windowed_peak_usage(
        self, container_id: str, duration_s: float, min_samples: int
    ) -> Optional[ResourceVector]:
        """Peak per-resource usage over the trailing window.

        Returns ``None`` when fewer than ``min_samples`` observations fall
        inside the window.  Folds the per-bucket maxima (bucket-aligned
        window edges).
        """
        col = self._cols.get(container_id)
        if col is None:
            return None
        slots = self._window_slots(duration_s)
        if not slots:
            return None
        if int(self._counts[slots, col].sum()) < min_samples:
            return None
        peak = self._usage_max[slots, col, :].max(axis=0)
        return ResourceVector(
            {resource: float(peak[i]) for i, resource in enumerate(RESOURCE_TYPES)}
        )

    def cpu_utilization_p99(self, container_id: str) -> float:
        """Run-long streaming p99 of a container's CPU utilization (P² estimate)."""
        estimator = self._cpu_p99.get(container_id)
        return estimator.value() if estimator is not None else 0.0

    def service_utilization(self, service_name: str) -> ResourceVector:
        """Mean utilization across the latest samples of a service's containers.

        Reads the per-service latest-sample index instead of scanning every
        container's history; the index preserves first-sample order, so the
        float summation order (and hence the result) matches the historical
        full scan bit for bit.
        """
        latest = self._latest_by_service.get(service_name)
        if not latest:
            return ResourceVector()
        total = ResourceVector()
        for sample in latest.values():
            total = total + sample.utilization
        return total * (1.0 / len(latest))

    def container_ids(self) -> List[str]:
        """All container ids with at least one sample."""
        return sorted(self._samples)

    # ---------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Retained telemetry footprint (samples, indexes, and sketches)."""
        from repro.telemetry.memory import deep_sizeof

        return deep_sizeof(
            (
                self._samples,
                self._latest_by_service,
                self._cols,
                self._bucket_ids,
                self._counts,
                self._usage_sum,
                self._usage_max,
                self._util_sum,
                self._util_max,
                self._cpu_p99,
            )
        )
