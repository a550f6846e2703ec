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

    def enforced_reservation(self, resource: Resource) -> float:
        """Total capacity reserved by containers with enforced partitions."""
        return sum(
            container.limits[resource]
            for container in self.containers
            if container.partition_enforced
        )

    def _dilution_scale(self, resource: Resource) -> float:
        """Scale applied to guarantees when reservations oversubscribe capacity.

        Hardware partitioning (CAT ways, MBA steps) cannot hand out more
        than physically exists; when the sum of enforced limits exceeds
        capacity every guarantee is diluted proportionally.
        """
        reservation = self.enforced_reservation(resource)
        capacity = self.capacity[resource]
        if reservation <= capacity or reservation <= 0:
            return 1.0
        return capacity / reservation

    def best_effort_pool(self, resource: Resource) -> float:
        """Capacity left for unpartitioned containers and injected pressure.

        Partitioning mechanisms (CAT, MBA, CFS shares, blkio, HTB) are
        work-conserving: a protected container's unused allocation remains
        available to best-effort consumers.  The pool therefore subtracts
        the enforced containers' *usage* (capped at their guarantee), not
        their nominal limits.
        """
        protected_usage = 0.0
        for container in self.containers:
            if not container.partition_enforced:
                continue
            guarantee = container.limits[resource] * self._dilution_scale(resource)
            protected_usage += min(container.current_demand()[resource], guarantee)
        reserved = min(protected_usage, self.capacity[resource])
        return max(self.capacity[resource] - reserved, 0.05 * self.capacity[resource])

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

        This runs once per dispatched span, so the pool demand is
        accumulated on plain dicts (one pass over the hosted containers)
        and the best-effort pool collapses to raw capacity when no
        container on the node has an enforced partition.
        """
        factors: Dict[Resource, float] = {}
        protected = container is not None and container.partition_enforced
        capacity_values = self.capacity.values
        queueing_factor = self._queueing_factor
        has_enforced = False
        for hosted in self.containers:
            if hosted.partition_enforced:
                has_enforced = True
                break

        if protected:
            demand_values = container._capped_demand_values()
            limit_values = container.limits.values
            for resource in RESOURCE_TYPES:
                capacity = capacity_values[resource]
                if capacity <= 0:
                    factors[resource] = 1.0
                    continue
                guarantee = limit_values[resource] * self._dilution_scale(resource)
                if guarantee <= 0:
                    factors[resource] = queueing_factor(self.MAX_UTILIZATION)
                    continue
                factors[resource] = queueing_factor(demand_values[resource] / guarantee)
            return factors

        pool_demand: Dict[Resource, float] = {r: 0.0 for r in RESOURCE_TYPES}
        for hosted in self.containers:
            if not hosted.partition_enforced:
                hosted_demand = hosted._capped_demand_values()
                for resource in RESOURCE_TYPES:
                    pool_demand[resource] = (
                        pool_demand[resource] + hosted_demand[resource]
                    )
        pressure_values = self._injected_pressure.values
        for resource in RESOURCE_TYPES:
            pool_demand[resource] = pool_demand[resource] + pressure_values[resource]

        for resource in RESOURCE_TYPES:
            capacity = capacity_values[resource]
            if capacity <= 0:
                factors[resource] = 1.0
                continue
            # With no enforced partitions anywhere on the node, the
            # best-effort pool is the full capacity (reserved usage is 0).
            pool = self.best_effort_pool(resource) if has_enforced else capacity
            factors[resource] = queueing_factor(pool_demand[resource] / pool)
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
