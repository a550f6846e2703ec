"""Container model.

A container is the unit of resource control: it has per-resource limits
(the ``RLT`` vector FIRM's RL agent adjusts) and reports per-resource usage
(``RU``).  Its instantaneous resource *demand* is driven by the
microservice instance it hosts (how many requests are in service and what
each request consumes).

Throttle and contention factors are read for every span a replica
dispatches, so this module is a simulation hot path: the class is slotted
and the per-resource loops work on plain dicts instead of going through
:class:`~repro.cluster.resources.ResourceVector` arithmetic.
:meth:`Container.total_slowdown` is one fused pass over only the resources
the service weights: it takes each cap factor from the instance's current
demand row and asks the node for just those contention factors.
:meth:`Container.throttle_factor` and :meth:`Container.node_contention_factor`
keep the five-resource decomposition as a readable reference.

Demand is looked up, not recomputed.  The hosted instance keeps a table of
demand rows keyed by its *active* count (spans in service plus the queued
ones that fit its concurrency); each row holds the raw demand, this
container's capped demand and the cap slowdowns of the service's weighted
resources.  The writes that change what is read point at another row or
rebuild the table (nothing is re-checked on read):

* the hosted instance's queue/in-service transitions (``submit``'s append,
  the move into service, ``_finish``'s pop) point the instance and this
  container at the row for the new active count, building it the first
  time that count is seen;
* :meth:`Container.set_limit`, :meth:`Container.set_limits` and the
  ``threads`` setter update the thread-capped CPU limit and the instance's
  concurrency, empty the table and point at a fresh row, and clear the
  hosting node's partition layout;
* the ``partition_enforced`` setter clears the hosting node's layout.

A container with no instance holds one shared all-zero demand dict.
Writing ``container.limits[...]`` directly, outside :meth:`set_limit`,
bypasses all of this and is unsupported.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceLimits,
    ResourceUsage,
    ResourceVector,
    default_container_limits,
)
from repro.cluster.node import Node

_container_ids = itertools.count()

#: Node contention factors of a container no node hosts.
_NO_CONTENTION: Dict[Resource, float] = dict.fromkeys(RESOURCE_TYPES, 1.0)

#: Capped demand of every container that hosts no instance (read-only).
_NO_DEMAND: Dict[Resource, float] = dict.fromkeys(RESOURCE_TYPES, 0.0)


class Container:
    """A cgroups-limited container hosting one microservice instance replica.

    Parameters
    ----------
    service_name:
        Name of the microservice this container belongs to.
    limits:
        Initial per-resource limits; defaults to the overprovisioned
        defaults from :func:`repro.cluster.resources.default_container_limits`.
    threads:
        Number of worker threads created by the service.  The paper notes
        the effective CPU limit is the smaller of the configured limit and
        ``threads x 100%``; we model the same cap.
    tenant:
        Identity of the tenant that deployed this container, or None for
        untenanted (single-tenant) deployments.  Used by tenant-aware
        placement and per-tenant telemetry/accounting.
    """

    __slots__ = (
        "id",
        "service_name",
        "tenant",
        "limits",
        "_threads",
        "_cpu_limit",
        "node",
        "instance",
        "_started_cold",
        "_partition_enforced",
        "_capped_demand",
    )

    def __init__(
        self,
        service_name: str,
        limits: Optional[ResourceLimits] = None,
        threads: int = 8,
        tenant: Optional[str] = None,
    ) -> None:
        self.id = f"{service_name}-{next(_container_ids)}"
        self.service_name = service_name
        self.tenant = tenant
        self.limits: ResourceLimits = (
            ResourceLimits(dict(limits.values)) if limits is not None else default_container_limits()
        )
        self.node = None  # type: Optional["Node"]  # noqa: F821
        self.instance = None  # type: Optional["MicroserviceInstance"]  # noqa: F821
        self._started_cold = True
        self._partition_enforced = False
        # Capped demand: the hosted instance's current demand row points it
        # (see the module docstring); node-level contention reads it for
        # every container on the node per dispatched span.  Read-only.
        self._capped_demand: Dict[Resource, float] = _NO_DEMAND
        # Sets the thread-capped CPU limit too.
        self.threads = int(threads)

    # ------------------------------------------------------------- limits
    @property
    def threads(self) -> int:
        """Worker threads; the effective CPU limit is capped at this many cores."""
        return self._threads

    @threads.setter
    def threads(self, value: int) -> None:
        self._threads = value
        self._limits_changed()

    @property
    def partition_enforced(self) -> bool:
        """True once a controller has explicitly partitioned this container.

        Partitioning means cgroups CFS quota, Intel MBA/CAT, blkio and
        tc/HTB guarantees.  Until then the container runs best-effort and
        its limits are only caps.  Setting it clears the hosting node's
        partition layout.
        """
        return self._partition_enforced

    @partition_enforced.setter
    def partition_enforced(self, value: bool) -> None:
        self._partition_enforced = value
        if self.node is not None:
            self.node._layout = None

    def effective_cpu_limit(self) -> float:
        """CPU limit capped by the thread count (paper §3.4 footnote)."""
        return self._cpu_limit

    def _limits_changed(self) -> None:
        """Refresh the thread-capped CPU limit and everything derived from limits.

        The node's layout is cleared first: the instance may start queued
        spans, whose slowdown reads it.
        """
        self._cpu_limit = min(self.limits.values[Resource.CPU], float(self._threads))
        if self.node is not None:
            self.node._layout = None
        if self.instance is not None:
            self.instance._limits_changed()

    def set_limit(self, resource: Resource, value: float) -> None:
        """Set one resource limit, clamped to be non-negative."""
        self.limits[resource] = max(0.0, float(value))
        self._limits_changed()

    def set_limits(self, limits: ResourceVector) -> None:
        """Replace all limits at once, each clamped to be non-negative."""
        for resource in RESOURCE_TYPES:
            self.limits[resource] = max(0.0, float(limits[resource]))
        self._limits_changed()

    # ------------------------------------------------------------- demand
    def current_demand(self) -> ResourceVector:
        """Instantaneous demand, bounded by the container's own limits."""
        return ResourceVector._from_normalized(dict(self._capped_demand))

    def usage(self) -> ResourceUsage:
        """Usage sample exported to telemetry (same shape as demand)."""
        return ResourceUsage._from_normalized(dict(self._capped_demand))

    def demand_and_utilization(self) -> "tuple[Dict[Resource, float], Dict[Resource, float]]":
        """Capped demand and RU/RLT utilization from one demand pass.

        The single place that owns the effective-limit special case for
        utilization; telemetry sampling uses it so usage and utilization
        are derived from the same instant without recomputing demand.
        """
        demand = dict(self._capped_demand)
        limit_values = self.limits.values
        utilization: Dict[Resource, float] = {}
        for resource in RESOURCE_TYPES:
            limit = self._cpu_limit if resource is Resource.CPU else limit_values[resource]
            utilization[resource] = demand[resource] / limit if limit > 0 else 0.0
        return demand, utilization

    def utilization(self) -> ResourceVector:
        """Usage divided by limit for each resource (RU/RLT in the paper)."""
        return ResourceVector._from_normalized(self.demand_and_utilization()[1])

    # ---------------------------------------------------------- throttling
    def _limit_for(self, resource: Resource) -> float:
        """Effective cap for one resource (CPU is additionally thread-capped)."""
        if resource is Resource.CPU:
            return self._cpu_limit
        return self.limits.values[resource]

    def _cap_factors(self) -> Dict[Resource, float]:
        """Per-resource slowdown from the container's own limits (caps).

        cgroups CFS quota, MBA, blkio, and HTB throttle a container when it
        wants more of a resource than its limit; the slowdown follows the
        same queueing-delay curve used for node-level contention.
        """
        if self.instance is None:
            return {resource: 1.0 for resource in RESOURCE_TYPES}
        queueing_factor = Node._queueing_factor
        raw = self.instance._raw_demand
        factors: Dict[Resource, float] = {}
        for resource in RESOURCE_TYPES:
            want = raw[resource]
            limit = self._limit_for(resource)
            if want <= 0:
                factors[resource] = 1.0
            elif limit <= 0:
                factors[resource] = queueing_factor(Node.MAX_UTILIZATION)
            else:
                factors[resource] = queueing_factor(want / limit)
        return factors

    def throttle_factor(self) -> float:
        """Worst-case slowdown caused by the container's own limits.

        Per-resource cap factors are weighted by how much the service
        actually depends on each resource, and the worst weighted factor is
        returned.
        """
        if self.instance is None:
            return 1.0
        profile = self.instance.profile.resource_weights
        factors = self._cap_factors()
        worst = 1.0
        for resource in RESOURCE_TYPES:
            weight = profile.get(resource, 0.0)
            worst = max(worst, 1.0 + (factors[resource] - 1.0) * weight)
        return worst

    def node_contention_factor(self) -> float:
        """Worst-case slowdown caused by contention on the hosting node.

        Each resource's node-level contention factor (honouring this
        container's partition enforcement) is weighted by the service's
        sensitivity to that resource.
        """
        if self.node is None or self.instance is None:
            return 1.0
        factors = self.node.contention_factors(self)
        profile = self.instance.profile.resource_weights
        slowdown = 1.0
        for resource in RESOURCE_TYPES:
            weight = profile.get(resource, 0.0)
            slowdown = max(slowdown, 1.0 + (factors[resource] - 1.0) * weight)
        return slowdown

    def total_slowdown(self) -> float:
        """Combined slowdown from limits (caps) and node contention.

        For each resource the binding constraint is whichever is worse —
        the container's own cap or the node-level contention it is exposed
        to — so the per-resource factors are combined with ``max`` (not
        multiplied, which would double-count the same saturated resource)
        before being weighted by the service's sensitivity.

        Runs once per dispatched span, so it visits only the resources
        with a nonzero weight (in ``RESOURCE_TYPES`` order), asks the node
        for just those, and reads their cap factors from the instance's
        current demand row instead of recomputing them.  A zero weight
        contributes ``max(s, 1.0)``, which never changes ``s``, so the
        result equals the five-resource combination of :meth:`_cap_factors`
        and ``contention_factors``.
        """
        instance = self.instance
        if instance is None:
            return 1.0
        node = self.node
        if node is not None:
            node_factors = node.contention_factors(self, instance._slowdown_resources)
        else:
            node_factors = _NO_CONTENTION
        slowdown = 1.0
        for (resource, weight), cap in zip(instance._slowdown_weights, instance._caps):
            # ``max(cap, contention)`` and ``max(slowdown, weighted)``, spelled
            # out: each keeps its first argument unless the second is larger.
            contention = node_factors[resource]
            factor = contention if contention > cap else cap
            weighted = 1.0 + (factor - 1.0) * weight
            if weighted > slowdown:
                slowdown = weighted
        return slowdown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        node = self.node.name if self.node is not None else None
        return f"Container(id={self.id!r}, service={self.service_name!r}, node={node!r})"
