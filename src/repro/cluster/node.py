"""Physical node model.

A node has a fixed capacity for each fine-grained resource type, hosts a set
of containers, and tracks external pressure injected by the performance
anomaly injector (e.g. a memory-bandwidth stressor consuming part of the
node's bandwidth).  Contention is computed at node scope: when the sum of
container demand plus injected pressure exceeds capacity for a resource,
every container on the node experiences a slowdown proportional to the
oversubscription of the resources it actually uses.

How the hosted containers split into best-effort and enforced partitions
changes only on orchestrator actions, so the node keeps that split as a
cached partition layout (see :meth:`Node.contention_factors`) that the
writes changing it clear.  Each hosted container's capped demand is a
plain attribute that its instance's demand row points at (see
:mod:`repro.cluster.instance`), so contention reads it without a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceVector,
    default_node_capacity,
)

#: One container's per-resource limits or demand, as a plain dict.
_Values = Dict[Resource, float]


class _PartitionLayout(NamedTuple):
    """The hosted containers split by partition enforcement, in hosting order."""

    best_effort: List["Container"]  # noqa: F821 - forward ref
    enforced: List["Container"]  # noqa: F821
    #: The enforced containers' limit dicts, parallel to ``enforced``.
    enforced_limits: List[_Values]
    #: Per-resource scale applied to every enforced guarantee.
    scales: _Values


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
        # Partition layout, or None once a write that changes it has
        # cleared it (see contention_factors).
        self._layout: Optional[_PartitionLayout] = None

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
        """Place a container on this node (a no-op if it is already here).

        Raises ``ValueError`` if another node hosts the container: its
        demand would otherwise count in both nodes' contention.
        """
        if container.node is self:
            return
        if container.node is not None:
            raise ValueError(
                f"container {container.id!r} is already hosted on node {container.node.name!r}"
            )
        self.containers.append(container)
        container.node = self
        self._layout = None

    def remove_container(self, container: "Container") -> None:  # noqa: F821
        """Evict a container from this node."""
        if container in self.containers:
            self.containers.remove(container)
            container.node = None
            self._layout = None

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
            demand_values = container._capped_demand
            for resource in RESOURCE_TYPES:
                total[resource] = total[resource] + demand_values[resource]
        return ResourceVector._from_normalized(total)

    #: Utilization is clipped below full saturation so the queueing-delay
    #: curve stays finite even when demand nominally exceeds capacity.  The
    #: per-span loops in ``contention_factors`` and
    #: ``Container.total_slowdown`` inline this value.
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

    @staticmethod
    def _reservation(enforced_limits: List[_Values], resource: Resource) -> float:
        """Sum of enforced limits; ``sum()`` in hosting order on purpose.

        See :meth:`contention_factors` for why this is not a plain loop.
        """
        return sum(limit_values[resource] for limit_values in enforced_limits)

    @staticmethod
    def _dilution_scale(
        enforced_limits: List[_Values], resource: Resource, capacity: float
    ) -> float:
        """Scale applied to every enforced guarantee of ``resource``.

        Hardware partitioning (CAT ways, MBA steps) cannot hand out more
        than physically exists; when the sum of enforced limits exceeds
        capacity every guarantee is diluted proportionally.
        """
        reservation = Node._reservation(enforced_limits, resource)
        if reservation <= capacity or reservation <= 0:
            return 1.0
        return capacity / reservation

    @staticmethod
    def _pool(
        resource: Resource,
        capacity: float,
        scale: float,
        enforced_limits: List[_Values],
        enforced_demands: List[_Values],
    ) -> float:
        """:meth:`best_effort_pool` from the enforced limits and demands."""
        protected_usage = 0.0
        for limit_values, demand_values in zip(enforced_limits, enforced_demands):
            # ``min(demand, guarantee)``, spelled out for the per-span path.
            demand = demand_values[resource]
            guarantee = limit_values[resource] * scale
            protected_usage += guarantee if guarantee < demand else demand
        reserved = min(protected_usage, capacity)
        return max(capacity - reserved, 0.05 * capacity)

    def _partition_layout(self) -> _PartitionLayout:
        """The cached partition layout, rebuilt if a write has cleared it."""
        layout = self._layout
        if layout is not None:
            return layout
        best_effort = []
        enforced = []
        for hosted in self.containers:
            (enforced if hosted._partition_enforced else best_effort).append(hosted)
        enforced_limits = [hosted.limits.values for hosted in enforced]
        capacity_values = self.capacity.values
        scales = {
            resource: self._dilution_scale(enforced_limits, resource, capacity_values[resource])
            for resource in RESOURCE_TYPES
        }
        layout = self._layout = _PartitionLayout(best_effort, enforced, enforced_limits, scales)
        return layout

    def enforced_reservation(self, resource: Resource) -> float:
        """Total capacity reserved by containers with enforced partitions."""
        return self._reservation(self._partition_layout().enforced_limits, resource)

    def best_effort_pool(self, resource: Resource) -> float:
        """Capacity left for unpartitioned containers and injected pressure.

        Partitioning mechanisms (CAT, MBA, CFS shares, blkio, HTB) are
        work-conserving: a protected container's unused allocation remains
        available to best-effort consumers.  The pool therefore subtracts
        the enforced containers' *usage* (capped at their diluted
        guarantee), not their nominal limits, and never drops below 5% of
        capacity.  Costs O(C_enf) over the enforced containers.
        """
        _, enforced, enforced_limits, scales = self._partition_layout()
        capacity = self.capacity.values[resource]
        enforced_demands = [hosted._capped_demand for hosted in enforced]
        return self._pool(resource, capacity, scales[resource], enforced_limits, enforced_demands)

    def contention_factors(
        self,
        container: Optional["Container"] = None,  # noqa: F821
        resources: Sequence[Resource] = RESOURCE_TYPES,
    ) -> Dict[Resource, float]:
        """Per-resource contention slowdown factors for ``resources``.

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

        ``resources`` restricts the result to a subset (each factor is the
        same as in the full dict); ``Container.total_slowdown`` passes only
        the resources its service weights.

        This runs once per dispatched span, so nothing it reads is
        recomputed on read:

        * the partition layout — best-effort and enforced containers in
          hosting order, the enforced limits and the per-resource dilution
          scales — is cleared by ``add_container``, ``remove_container``,
          ``Container.set_limit`` (and ``set_limits``, ``threads``) on a
          hosted container, and the ``partition_enforced`` setter;
        * each hosted container's capped demand is a dict its instance's
          demand row holds, repointed by the instance's queue/in-service
          transitions and the container's own limit writes (see
          :mod:`repro.cluster.instance`).

        An enforced container's call is O(R_w) for the R_w requested
        resources and never walks the node.  A best-effort call reads the
        capped demand of each hosted container once and folds it per
        resource, O(R_w·C); with no enforced container on the node the
        pool is the raw capacity.  Writing ``container.limits[...]``
        directly bypasses all of this and is unsupported.

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
        layout = self._layout
        if layout is None:
            layout = self._partition_layout()
        best_effort, enforced, enforced_limits, scales = layout

        if container is not None and container._partition_enforced:
            demand_values = container._capped_demand
            limit_values = container.limits.values
            for resource in resources:
                capacity = capacity_values[resource]
                if capacity <= 0:
                    factors[resource] = 1.0
                    continue
                guarantee = limit_values[resource] * scales[resource]
                if guarantee <= 0:
                    factors[resource] = self._queueing_factor(self.MAX_UTILIZATION)
                    continue
                # _queueing_factor(demand / guarantee), inlined.
                rho = demand_values[resource] / guarantee
                if rho < 0.0:
                    rho = 0.0
                if rho > 0.97:
                    rho = 0.97
                factors[resource] = 1.0 + (rho * rho) / (1.0 - rho)
            return factors

        pool_demands = [hosted._capped_demand for hosted in best_effort]
        if enforced:
            enforced_demands = [hosted._capped_demand for hosted in enforced]
        pressure_values = self._injected_pressure.values
        for resource in resources:
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
            if enforced:
                pool = self._pool(
                    resource, capacity, scales[resource], enforced_limits, enforced_demands
                )
            else:
                pool = capacity
            # _queueing_factor(pool_demand / pool), inlined.
            rho = pool_demand / pool
            if rho < 0.0:
                rho = 0.0
            if rho > 0.97:
                rho = 0.97
            factors[resource] = 1.0 + (rho * rho) / (1.0 - rho)
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
