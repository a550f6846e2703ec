"""Microservice instance: the request-serving unit.

Each instance is hosted by exactly one container and serves spans (units of
work belonging to a distributed request) through a bounded-concurrency
queue.  The effective span processing time combines:

* a base service time drawn from the service's profile,
* the container's throttle factor (demand above its own limits),
* the node's contention factor (anomaly pressure and noisy neighbours),
* queueing delay when more spans are in flight than the instance can
  process concurrently (concurrency is derived from the CPU quota).

This is the substrate equivalent of "a Docker container running one
DeathStarBench service": it converts resource starvation into latency,
which is exactly the signal FIRM detects, localizes, and mitigates.

``submit``/``_try_dispatch``/``_finish`` run once per span, making this the
hottest non-engine code in the simulator: the service-time stream and its
lognormal parameters are cached per instance, span bookkeeping objects are
slotted, and listener dispatch avoids per-span list copies.

Raw demand is cached too.  The three writes that change the instance's
queue/in-service population (``submit``'s append, ``_try_dispatch``'s move
into service, ``_finish``'s pop) each clear it and the container's capped
demand, so contention reads never re-check them; the container's limit and
``threads`` setters clear both as well.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.container import Container
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG

_span_work_ids = itertools.count()


@dataclass
class ServiceProfile:
    """Static performance profile of one microservice.

    Attributes
    ----------
    name:
        Microservice name (e.g. ``"composePost"``).
    base_service_time_ms:
        Mean uncontended span processing time in milliseconds.
    service_time_cv:
        Coefficient of variation of the lognormal service-time distribution.
    resource_weights:
        How sensitive the service is to each resource type (0..1); used to
        translate per-resource contention into slowdown.  For example a
        memcached-like service has high memory-bandwidth and LLC weights,
        while an nginx frontend is network- and CPU-weighted.
    demand_per_request:
        Resources consumed per in-flight request (absolute units matching
        node capacities).
    threads:
        Worker threads the service creates per container.
    background:
        True for services invoked as background workflows (they do not
        return a value to the parent and are excluded from critical paths).
    """

    name: str
    base_service_time_ms: float = 5.0
    service_time_cv: float = 0.25
    resource_weights: Dict[Resource, float] = field(
        default_factory=lambda: {Resource.CPU: 1.0}
    )
    demand_per_request: ResourceVector = field(
        default_factory=lambda: ResourceVector.from_kwargs(cpu=0.5)
    )
    threads: int = 8
    background: bool = False

    def dominant_resource(self) -> Resource:
        """The resource the service is most sensitive to."""
        return max(self.resource_weights, key=lambda r: self.resource_weights[r])


@dataclass(slots=True)
class SpanWork:
    """One span's worth of work queued at an instance."""

    work_id: int
    request_id: str
    span_name: str
    enqueue_time: float
    base_time_ms: float
    on_complete: Callable[[float, float, float], None]
    start_time: Optional[float] = None


class MicroserviceInstance:
    """A single replica of a microservice, bound to one container.

    Parameters
    ----------
    profile:
        The service's static performance profile.
    container:
        Hosting container (provides limits, node placement, slowdown).
    engine:
        Shared simulation engine.
    rng:
        Seeded RNG family; service times draw from the substream
        ``"service:<name>:<replica>"``.
    replica_index:
        Replica ordinal within the service's replica set.
    """

    __slots__ = (
        "__weakref__",
        "profile",
        "container",
        "engine",
        "rng",
        "replica_index",
        "name",
        "_queue",
        "_in_service",
        "_completed_spans",
        "_dropped_spans",
        "_busy_time",
        "_last_busy_update",
        "recent_latencies_ms",
        "max_queue_length",
        "completion_listeners",
        "_service_cursor",
        "_lognormal_params",
        "_finish_event_name",
        "_raw_demand",
        "_slowdown_weights",
        "_slowdown_resources",
    )

    def __init__(
        self,
        profile: ServiceProfile,
        container: Container,
        engine: SimulationEngine,
        rng: SeededRNG,
        replica_index: int = 0,
    ) -> None:
        self.profile = profile
        self.container = container
        self.engine = engine
        self.rng = rng
        self.replica_index = replica_index
        self.name = f"{profile.name}#{replica_index}"
        container.instance = self
        container.threads = profile.threads

        self._queue: Deque[SpanWork] = deque()
        self._in_service: Dict[int, SpanWork] = {}
        self._completed_spans = 0
        self._dropped_spans = 0
        self._busy_time = 0.0
        self._last_busy_update = engine.now
        #: Recent span latencies (ms), kept for telemetry / extractor features.
        self.recent_latencies_ms: List[float] = []
        #: Maximum queue length before requests are dropped (load shedding).
        self.max_queue_length = 512
        #: Observers invoked as ``listener(instance, latency_ms)`` after each
        #: span completes (state already updated, so ``in_flight`` reflects
        #: the post-completion load).  Routing policies use these to maintain
        #: idle queues (JIQ) and per-replica latency EWMAs.  Listeners must
        #: not mutate this list from inside a dispatch.
        self.completion_listeners: List[Callable[["MicroserviceInstance", float], None]] = []
        #: Buffered service-time cursor: block draws of standard normals,
        #: exponentiated with the current profile parameters per span.
        self._service_cursor = rng.cursor(f"service:{self.name}")
        #: Cached lognormal (mu, sigma) keyed by the profile parameters
        #: they were derived from, so profile edits still take effect.
        self._lognormal_params: Tuple[float, float, float, float] = (
            float("nan"),
            float("nan"),
            0.0,
            0.0,
        )
        self._finish_event_name = f"span-finish:{self.name}"
        # Raw demand, or None once a population or limit change has cleared
        # it (see the module docstring).
        self._raw_demand: Optional[Dict[Resource, float]] = None
        #: The profile's nonzero ``(resource, weight)`` pairs in
        #: ``RESOURCE_TYPES`` order, and their resources: the only ones
        #: ``Container.total_slowdown`` visits per span.  Nothing rebinds
        #: the profile or edits its weights after construction.
        weights = profile.resource_weights
        self._slowdown_weights: Tuple[Tuple[Resource, float], ...] = tuple(
            (resource, weights[resource])
            for resource in RESOURCE_TYPES
            if weights.get(resource, 0.0) != 0
        )
        self._slowdown_resources: Tuple[Resource, ...] = tuple(
            resource for resource, _ in self._slowdown_weights
        )

    # --------------------------------------------------------------- metrics
    @property
    def completed_spans(self) -> int:
        return self._completed_spans

    @property
    def dropped_spans(self) -> int:
        return self._dropped_spans

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._in_service) + len(self._queue)

    def concurrency(self) -> int:
        """Parallel spans the instance can process, from its CPU quota."""
        cpu = self.container.effective_cpu_limit()
        return max(1, int(cpu))

    def _demand_values(self) -> Dict[Resource, float]:
        """Raw per-resource demand as a cached read-only dict.

        Demand is ``active x demand_per_request`` where ``active`` only
        moves when the queue/in-service population or the CPU quota
        (concurrency) changes; each of those writes clears the cache.
        """
        values = self._raw_demand
        if values is not None:
            return values
        queued = len(self._queue)
        concurrency = self.concurrency()
        active = len(self._in_service) + (
            queued if queued < concurrency else concurrency
        )
        demand_values = self.profile.demand_per_request.values
        scale = float(active)
        values = {resource: value * scale for resource, value in demand_values.items()}
        self._raw_demand = values
        return values

    def resource_demand(self) -> ResourceVector:
        """Instantaneous resource demand driven by in-flight work."""
        return ResourceVector._from_normalized(dict(self._demand_values()))

    def utilization(self) -> ResourceVector:
        """Per-resource utilization of the hosting container."""
        return self.container.utilization()

    # -------------------------------------------------------------- execution
    def submit(
        self,
        request_id: str,
        span_name: str,
        on_complete: Callable[[float, float, float], None],
        base_time_ms: Optional[float] = None,
    ) -> bool:
        """Submit one span of work.

        ``on_complete(enqueue_time, start_time, finish_time)`` is invoked
        when the span finishes.  Returns False (and drops the span) when the
        queue is saturated.
        """
        if len(self._queue) >= self.max_queue_length:
            self._dropped_spans += 1
            return False
        if base_time_ms is None:
            base_time_ms = self._draw_service_time_ms()
        work = SpanWork(
            work_id=next(_span_work_ids),
            request_id=request_id,
            span_name=span_name,
            enqueue_time=self.engine.now,
            base_time_ms=base_time_ms,
            on_complete=on_complete,
        )
        self._queue.append(work)
        self._raw_demand = None
        self.container._capped_demand = None
        self._try_dispatch()
        return True

    def _draw_service_time_ms(self) -> float:
        """Lognormal service time with the profile's mean and CV.

        The (mu, sigma) pair is cached against the profile parameters it
        was computed from; the two ``math.log`` calls only rerun when a
        controller or anomaly actually changes the profile.
        """
        profile = self.profile
        mean = profile.base_service_time_ms
        cv = profile.service_time_cv if profile.service_time_cv > 1e-6 else 1e-6
        cached_mean, cached_cv, mu, sigma = self._lognormal_params
        if mean != cached_mean or cv != cached_cv:
            sigma2 = math.log(1.0 + cv * cv)
            mu = math.log(mean) - sigma2 / 2.0
            sigma = math.sqrt(sigma2)
            self._lognormal_params = (mean, cv, mu, sigma)
        return self._service_cursor.lognormal(mu, sigma)

    def _try_dispatch(self) -> None:
        """Move queued spans into service while concurrency slots are free."""
        queue = self._queue
        if not queue:
            return
        in_service = self._in_service
        container = self.container
        concurrency = self.concurrency()
        while queue and len(in_service) < concurrency:
            work = queue.popleft()
            work.start_time = self.engine.now
            in_service[work.work_id] = work
            self._raw_demand = None
            container._capped_demand = None
            slowdown = container.total_slowdown()
            duration_s = (work.base_time_ms * slowdown) / 1000.0
            self.engine.schedule_after(
                duration_s,
                lambda eng, w=work: self._finish(w),
                name=self._finish_event_name,
            )

    def _finish(self, work: SpanWork) -> None:
        """Complete one span: record latency and notify the caller."""
        self._in_service.pop(work.work_id, None)
        self._raw_demand = None
        self.container._capped_demand = None
        self._completed_spans += 1
        finish_time = self.engine.now
        latency_ms = (finish_time - work.enqueue_time) * 1000.0
        recent = self.recent_latencies_ms
        recent.append(latency_ms)
        if len(recent) > 4096:
            del recent[: len(recent) - 4096]
        work.on_complete(work.enqueue_time, work.start_time or work.enqueue_time, finish_time)
        self._try_dispatch()
        for listener in self.completion_listeners:
            listener(self, latency_ms)

    def drain_latency_window(self) -> List[float]:
        """Return and clear the recent span latencies (ms)."""
        window = list(self.recent_latencies_ms)
        self.recent_latencies_ms.clear()
        return window

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroserviceInstance(name={self.name!r}, queue={self.queue_length}, "
            f"in_service={len(self._in_service)})"
        )
