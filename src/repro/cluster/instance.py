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

Work-item protocol: a span is one slotted :class:`Work` object from
submission to finish.  ``submit`` writes its ``instance``, ``enqueue_time``
and ``base_time_ms``; the move into service writes ``start_time`` and
schedules its bound ``finish`` as the ``span-finish:<instance>`` event,
which calls ``work.computed(enqueue_time, start_time, finish_time)``.  The
application runtime's per-RPC call frame is such an object, so a span
allocates no bookkeeping here; the instance only counts spans in service.

Demand depends on one small integer, the *active* count: spans in service
plus the queued ones that fit the concurrency.  Each instance keeps a table
of demand rows keyed by that count; a row holds the raw demand dict, the
container's capped demand dict and the cap slowdowns of the weighted
resources.  The three writes that change the queue/in-service population
(``submit``'s append, ``_try_dispatch``'s move into service, ``_finish``'s
decrement) point the instance and its container at the row for the new
count, building it only the first time that count is seen (a write that
leaves the count unchanged keeps the current row), so neither contention
nor slowdown reads recompute demand.  The container's limit and
``threads`` writes recompute the concurrency, empty the table and point at
a fresh row.  Nothing rebinds the profile or edits its demand or weights
after construction.

Each row also records whether any of its capped demand is nonzero.  Only
when a repoint changes that flag does the container join or leave its
node's busy list (see :mod:`repro.cluster.node`), so node contention folds
just the containers that demand anything; most repoints write no list.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG

#: One demand row: raw demand, the container's capped demand, the cap
#: slowdowns of the profile's weighted resources in ``_slowdown_weights``
#: order, and whether any capped demand is nonzero.  Shared by every read
#: at the row's active count; read-only.
_DemandRow = Tuple[Dict[Resource, float], Dict[Resource, float], Tuple[float, ...], bool]


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


class Work:
    """One span's worth of work queued at an instance (see the module docstring).

    Subclasses add slots and a ``computed(enqueue, start, finish)`` callable.
    """

    __slots__ = ("instance", "enqueue_time", "start_time", "base_time_ms")

    def finish(self, engine: SimulationEngine) -> None:
        self.instance._finish(self)


class SpanWork(Work):
    """Work reporting its finish to ``on_complete(enqueue, start, finish)``."""

    __slots__ = ("computed",)

    def __init__(self, on_complete: Callable[[float, float, float], None]) -> None:
        self.computed = on_complete


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
        "_busy",
        "_completed_spans",
        "_dropped_spans",
        "max_queue_length",
        "completion_listeners",
        "_service_cursor",
        "_lognormal_params",
        "_finish_event_name",
        "_concurrency",
        "_demand_rows",
        "_raw_demand",
        "_caps",
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

        self._queue: Deque[Work] = deque()
        self._busy = 0
        self._completed_spans = 0
        self._dropped_spans = 0
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
        #: Demand rows keyed by active count (see the module docstring).
        #: ``_limits_changed`` sets ``_concurrency``, empties the table and
        #: points ``_raw_demand``, the container's capped demand and
        #: ``_caps`` at a fresh row; the ``threads`` write below runs it.
        self._demand_rows: Dict[int, _DemandRow] = {}
        container.instance = self
        container.threads = profile.threads

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
    def in_service(self) -> int:
        return self._busy

    @property
    def in_flight(self) -> int:
        return self._busy + len(self._queue)

    def concurrency(self) -> int:
        """Parallel spans the instance can process, from its CPU quota."""
        return self._concurrency

    def _limits_changed(self) -> None:
        """Recompute the concurrency and drop the rows built against old limits.

        Called by the container's limit and ``threads`` writes; the
        instance and its container then point at a fresh row for the
        current active count, and queued spans start in any slots a
        raised concurrency freed.
        """
        self._concurrency = max(1, int(self.container._cpu_limit))
        self._demand_rows.clear()
        self._point_demand()
        self._try_dispatch()

    def _point_demand(self) -> None:
        """Point demand reads at the row for the current active count.

        Called by every population write that changes the active count and
        by every limit write; builds the row the first time its count is
        seen.  When the row's nonzero flag differs from the container's,
        the container joins or leaves its node's busy list, a plain append
        or remove.
        """
        queued = len(self._queue)
        concurrency = self._concurrency
        active = self._busy + (queued if queued < concurrency else concurrency)
        row = self._demand_rows.get(active)
        if row is None:
            row = self._demand_rows[active] = self._build_demand_row(active)
        container = self.container
        self._raw_demand, container._capped_demand, self._caps, busy = row
        if busy is not container._busy:
            container._busy = busy
            busy_list = container._busy_list
            if busy_list is not None:
                if busy:
                    busy_list.append(container)
                else:
                    busy_list.remove(container)

    def _build_demand_row(self, active: int) -> _DemandRow:
        """Raw demand, capped demand, weighted cap slowdowns and nonzero flag.

        Raw demand is ``active x demand_per_request``; the container's
        limits (CPU thread-capped) cap how much of the node it can pull;
        each weighted resource's cap slowdown follows the node's
        queueing-delay curve of demand over limit.  The flag is True when
        any capped demand is nonzero: only then does the container add
        anything to its node's contention folds.
        """
        scale = float(active)
        raw = {
            resource: value * scale
            for resource, value in self.profile.demand_per_request.values.items()
        }
        container = self.container
        limit_values = container.limits.values
        effective_cpu = container._cpu_limit
        capped: Dict[Resource, float] = {}
        for resource in RESOURCE_TYPES:
            limit = effective_cpu if resource is Resource.CPU else limit_values[resource]
            want = raw[resource]
            capped[resource] = (want if want < limit else limit) if limit > 0 else 0.0
        caps = []
        for resource, _ in self._slowdown_weights:
            want = raw[resource]
            if want <= 0:
                caps.append(1.0)
                continue
            limit = effective_cpu if resource is Resource.CPU else limit_values[resource]
            if limit <= 0:
                caps.append(Node._queueing_factor(Node.MAX_UTILIZATION))
            else:
                caps.append(Node._queueing_factor(want / limit))
        busy = any(value != 0.0 for value in capped.values())
        return raw, capped, tuple(caps), busy

    def resource_demand(self) -> ResourceVector:
        """Instantaneous resource demand driven by in-flight work."""
        return ResourceVector._from_normalized(dict(self._raw_demand))

    def utilization(self) -> ResourceVector:
        """Per-resource utilization of the hosting container."""
        return self.container.utilization()

    # -------------------------------------------------------------- execution
    def submit(self, work: Work, base_time_ms: Optional[float] = None) -> bool:
        """Queue one span of work, with a drawn service time unless given.

        ``work.computed(enqueue_time, start_time, finish_time)`` is invoked
        when the span finishes.  Returns False (and drops the span, leaving
        ``work`` untouched) when the queue is saturated.
        """
        queue = self._queue
        if len(queue) >= self.max_queue_length:
            self._dropped_spans += 1
            return False
        work.instance = self
        work.enqueue_time = self.engine._now
        work.base_time_ms = self._draw_service_time_ms() if base_time_ms is None else base_time_ms
        queue.append(work)
        # The append adds to the active count only while the queued spans
        # fit the concurrency; past that the current row is still right.
        if len(queue) <= self._concurrency:
            self._point_demand()
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
        engine = self.engine
        container = self.container
        concurrency = self._concurrency
        while queue and self._busy < concurrency:
            # A move into service adds to the active count only when more
            # spans queue than the concurrency; otherwise a queued span that
            # already counted starts, and the current row is still right.
            repoint = len(queue) > concurrency
            work = queue.popleft()
            now = engine._now
            work.start_time = now
            self._busy += 1
            if repoint:
                self._point_demand()
            duration_s = (work.base_time_ms * container.total_slowdown()) / 1000.0
            engine.schedule(now + duration_s, work.finish, name=self._finish_event_name)

    def _finish(self, work: Work) -> None:
        """Complete one span: record latency and notify the caller."""
        self._busy -= 1
        self._point_demand()
        self._completed_spans += 1
        finish_time = self.engine._now
        latency_ms = (finish_time - work.enqueue_time) * 1000.0
        work.computed(work.enqueue_time, work.start_time, finish_time)
        self._try_dispatch()
        for listener in self.completion_listeners:
            listener(self, latency_ms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroserviceInstance(name={self.name!r}, queue={self.queue_length}, "
            f"in_service={self._busy})"
        )
