"""Physical node model.

A node has a fixed capacity for each fine-grained resource type, hosts a set
of containers, and tracks external pressure injected by the performance
anomaly injector (e.g. a memory-bandwidth stressor consuming part of the
node's bandwidth).  Contention is computed at node scope: when the sum of
container demand plus injected pressure exceeds capacity for a resource,
every container on the node experiences a slowdown proportional to the
oversubscription of the resources it actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceVector,
    default_node_capacity,
)


@dataclass
class NodeSpec:
    """Static description of a node's hardware.

    Attributes
    ----------
    name:
        Unique node name (e.g. ``"node-3"``).
    capacity:
        Per-resource capacity.
    architecture:
        ISA label; the paper's cluster mixes ``x86`` (Intel Xeon) and
        ``ppc64`` (IBM Power) nodes and Fig. 9(b) compares localization
        accuracy across the two.
    """

    name: str
    capacity: ResourceVector = field(default_factory=default_node_capacity)
    architecture: str = "x86"


class Node:
    """A simulated server hosting containers and absorbing anomaly pressure."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.containers: List["Container"] = []  # noqa: F821 - forward ref
        # External pressure from the anomaly injector, as an absolute amount
        # of each resource consumed by the interfering workload.
        self._injected_pressure = ResourceVector()

    # ------------------------------------------------------------ properties
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def capacity(self) -> ResourceVector:
        return self.spec.capacity

    @property
    def architecture(self) -> str:
        return self.spec.architecture

    # ------------------------------------------------------------ containers
    def add_container(self, container: "Container") -> None:  # noqa: F821
        """Place a container on this node."""
        if container in self.containers:
            return
        self.containers.append(container)
        container.node = self

    def remove_container(self, container: "Container") -> None:  # noqa: F821
        """Evict a container from this node."""
        if container in self.containers:
            self.containers.remove(container)
            container.node = None

    def allocated_limits(self) -> ResourceVector:
        """Sum of resource limits across all hosted containers."""
        total = ResourceVector()
        for container in self.containers:
            total = total + container.limits
        return total

    def can_fit(self, limits: ResourceVector) -> bool:
        """Whether a container with ``limits`` fits without oversubscribing limits.

        Note this checks the *limit* (reservation) headroom; actual usage may
        still contend because limits are routinely overprovisioned.
        """
        return self.capacity.dominates(self.allocated_limits() + limits)

    # --------------------------------------------------------------- pressure
    def inject_pressure(self, pressure: ResourceVector) -> None:
        """Add anomaly-injected resource pressure (absolute units)."""
        self._injected_pressure = (self._injected_pressure + pressure).clamp_nonnegative()

    def remove_pressure(self, pressure: ResourceVector) -> None:
        """Remove previously injected pressure."""
        self._injected_pressure = (self._injected_pressure - pressure).clamp_nonnegative()

    def clear_pressure(self) -> None:
        """Drop all injected pressure (end of an anomaly campaign)."""
        self._injected_pressure = ResourceVector()

    @property
    def injected_pressure(self) -> ResourceVector:
        return self._injected_pressure.copy()

    # ------------------------------------------------------------- contention
    def demand(self) -> ResourceVector:
        """Aggregate instantaneous resource demand of hosted containers."""
        total: Dict[Resource, float] = {r: 0.0 for r in RESOURCE_TYPES}
        for container in self.containers:
            demand_values = container._capped_demand_values()
            for resource in RESOURCE_TYPES:
                total[resource] = total[resource] + demand_values[resource]
        return ResourceVector._from_normalized(total)

    #: Utilization is clipped below full saturation so the queueing-delay
    #: curve stays finite even when demand nominally exceeds capacity.
    MAX_UTILIZATION = 0.97

    @staticmethod
    def _queueing_factor(rho: float) -> float:
        """Queueing-delay-like slowdown: ``1 + rho^2 / (1 - rho)``.

        Negligible at low utilization, an order of magnitude near
        saturation — which is how memory-bandwidth or LLC interference
        turns into latency spikes without any change in CPU utilization
        (the paper's Fig. 1 motivation).
        """
        rho = min(max(rho, 0.0), Node.MAX_UTILIZATION)
        return 1.0 + (rho * rho) / (1.0 - rho)

    def _enforced_containers(self) -> List["Container"]:  # noqa: F821
        """Hosted containers with an enforced partition, in hosting order."""
        return [container for container in self.containers if container.partition_enforced]

    @staticmethod
    def _reservation(enforced: List["Container"], resource: Resource) -> float:  # noqa: F821
        """Sum of ``enforced`` limits; ``sum()`` in hosting order on purpose.

        See :meth:`contention_factors` for why this is not a plain loop.
        """
        return sum(container.limits.values[resource] for container in enforced)

    def _dilution_scales(self, enforced: List["Container"]) -> Dict[Resource, float]:  # noqa: F821
        """Per-resource scale applied to guarantees of ``enforced`` containers.

        Hardware partitioning (CAT ways, MBA steps) cannot hand out more
        than physically exists; when the sum of enforced limits exceeds
        capacity every guarantee is diluted proportionally.
        """
        if not enforced:
            return dict.fromkeys(RESOURCE_TYPES, 1.0)
        capacity_values = self.capacity.values
        scales: Dict[Resource, float] = {}
        for resource in RESOURCE_TYPES:
            reservation = self._reservation(enforced, resource)
            capacity = capacity_values[resource]
            if reservation <= capacity or reservation <= 0:
                scales[resource] = 1.0
            else:
                scales[resource] = capacity / reservation
        return scales

    def _pool(
        self, resource: Resource, enforced: List["Container"], scale: float  # noqa: F821
    ) -> float:
        """:meth:`best_effort_pool` given the enforced containers and their scale."""
        capacity = self.capacity.values[resource]
        protected_usage = 0.0
        for container in enforced:
            guarantee = container.limits.values[resource] * scale
            protected_usage += min(container._capped_demand_values()[resource], guarantee)
        reserved = min(protected_usage, capacity)
        return max(capacity - reserved, 0.05 * capacity)

    def enforced_reservation(self, resource: Resource) -> float:
        """Total capacity reserved by containers with enforced partitions."""
        return self._reservation(self._enforced_containers(), resource)

    def best_effort_pool(self, resource: Resource) -> float:
        """Capacity left for unpartitioned containers and injected pressure.

        Partitioning mechanisms (CAT, MBA, CFS shares, blkio, HTB) are
        work-conserving: a protected container's unused allocation remains
        available to best-effort consumers.  The pool therefore subtracts
        the enforced containers' *usage* (capped at their diluted
        guarantee), not their nominal limits, and never drops below 5% of
        capacity.  Costs O(C) over the hosted containers; see
        :meth:`contention_factors` for why nothing is cached.
        """
        enforced = self._enforced_containers()
        scale = self._dilution_scales(enforced)[resource]
        return self._pool(resource, enforced, scale)

    def contention_factors(self, container: Optional["Container"] = None) -> Dict[Resource, float]:  # noqa: F821
        """Per-resource contention slowdown factors.

        Without a container argument, returns the best-effort pool's
        factors (what an unpartitioned container experiences): the pool's
        utilization includes every unpartitioned container's demand plus
        the anomaly-injected pressure.

        With a container argument, partition enforcement is honoured:

        * a container whose limits have been explicitly partitioned
          (``partition_enforced``) is isolated from the pool — its slowdown
          depends only on its own demand versus its (possibly diluted)
          guarantee, which is exactly what Intel CAT/MBA, cgroups CFS
          quota, blkio, and tc/HTB provide;
        * an unpartitioned container competes in the best-effort pool.

        This runs once per dispatched span, so each call costs O(C·R) for
        C hosted containers and R resource types: the enforced containers
        are collected once and the per-resource dilution scales computed
        once, then shared by the protected branch and the best-effort pool.
        Nothing is cached across calls: ``partition_enforced`` and limits
        are plain attributes the orchestrator (and tests) write directly,
        and the hosted instances' demand changes on every dispatch, so a
        stateless pass has nothing that can go stale.  With no enforced
        container on the node the pool is the raw capacity.

        The reservation stays one ``sum()`` over the enforced containers in
        hosting order, and the protected usage one ``+=`` per container in
        the same order.  CPython 3.12's ``sum()`` compensates float
        rounding where 3.10/3.11 add left to right, so a hand-written loop
        would change results on 3.12; this shape keeps pinned outputs (the
        determinism goldens, ``bench/expected.json``) byte-identical on
        every supported Python (3.10-3.12).
        """
        factors: Dict[Resource, float] = {}
        capacity_values = self.capacity.values
        queueing_factor = self._queueing_factor
        enforced = self._enforced_containers()
        scales = self._dilution_scales(enforced)

        if container is not None and container.partition_enforced:
            demand_values = container._capped_demand_values()
            limit_values = container.limits.values
            for resource in RESOURCE_TYPES:
                capacity = capacity_values[resource]
                if capacity <= 0:
                    factors[resource] = 1.0
                    continue
                guarantee = limit_values[resource] * scales[resource]
                if guarantee <= 0:
                    factors[resource] = queueing_factor(self.MAX_UTILIZATION)
                    continue
                factors[resource] = queueing_factor(demand_values[resource] / guarantee)
            return factors

        pool_demands = [
            hosted._capped_demand_values()
            for hosted in self.containers
            if not hosted.partition_enforced
        ]
        pressure_values = self._injected_pressure.values
        for resource in RESOURCE_TYPES:
            capacity = capacity_values[resource]
            if capacity <= 0:
                factors[resource] = 1.0
                continue
            # Left fold over the best-effort containers in hosting order,
            # then the pressure; reordering these additions changes results.
            pool_demand = 0.0
            for hosted_demand in pool_demands:
                pool_demand = pool_demand + hosted_demand[resource]
            pool_demand = pool_demand + pressure_values[resource]
            pool = self._pool(resource, enforced, scales[resource]) if enforced else capacity
            factors[resource] = queueing_factor(pool_demand / pool)
        return factors

    def utilization(self) -> ResourceVector:
        """Node-level utilization (demand + pressure, clipped to capacity)."""
        totals = self.demand() + self._injected_pressure
        result = {}
        for resource in RESOURCE_TYPES:
            capacity = self.capacity[resource]
            used = min(totals[resource], capacity) if capacity > 0 else 0.0
            result[resource] = used / capacity if capacity > 0 else 0.0
        return ResourceVector(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(name={self.name!r}, arch={self.architecture!r}, "
            f"containers={len(self.containers)})"
        )
