"""Physical node model.

A node has a fixed capacity for each fine-grained resource type, hosts a set
of containers, and tracks external pressure injected by the performance
anomaly injector (e.g. a memory-bandwidth stressor consuming part of the
node's bandwidth).  Contention is computed at node scope: when the sum of
container demand plus injected pressure exceeds capacity for a resource,
every container on the node experiences a slowdown proportional to the
oversubscription of the resources it actually uses.

The enforced containers' limits change only on orchestrator actions, so
the node keeps their reservation as a cached partition layout (see
:meth:`Node.contention_factors`) that the writes changing it clear.  Each
hosted container's capped demand is a plain attribute that its instance's
demand row points at (see :mod:`repro.cluster.instance`), so contention
reads it without a call.

A node FIRM has scaled out hosts dozens of containers, almost all idle
at any instant, and an idle container adds exactly nothing to a
contention fold.  So the node keeps its *busy* containers, those with any
nonzero capped demand, in two lists, best-effort and enforced, and the
per-span folds walk only those: O(R_w·B) for B busy containers, not
O(R_w·C) for C hosted ones.  Four writers keep the lists in step:
``add_container`` (which also stamps the container's hosting sequence),
``remove_container``, the ``partition_enforced`` setter, and the demand
repoint that changes a container's nonzero flag.  A transition is a plain
append or remove, so a list is in transition order; a read sorts it in
place by hosting sequence when it holds more than two containers (with
two or fewer the fold's sum does not depend on order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceVector,
    default_node_capacity,
)

#: One container's per-resource limits or demand, as a plain dict.
_Values = Dict[Resource, float]


#: Sort key putting a busy list in hosting order.
_HOSTING_ORDER = attrgetter("_host_seq")


class _PartitionLayout(NamedTuple):
    """The enforced containers' reservation, idle ones included."""

    #: Every hosted enforced container's limit dict, in hosting order.
    enforced_limits: List[_Values]
    #: Per-resource scale applied to every enforced guarantee.
    scales: _Values


def _in_hosting_order(busy: List["Container"]) -> List["Container"]:  # noqa: F821
    """Sort a busy list in place by hosting sequence, if order can matter.

    Float addition is commutative, so a fold over at most two nonzero
    terms (after the exact ``0.0``) gives the same sum in either order.
    """
    if len(busy) > 2:
        busy.sort(key=_HOSTING_ORDER)
    return busy


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
        # Hosted containers with nonzero capped demand, by partition (see
        # the module docstring), and the hosting sequence stamped on each.
        self._busy_best_effort: List["Container"] = []  # noqa: F821
        self._busy_enforced: List["Container"] = []  # noqa: F821
        self._host_seq = itertools.count()

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
        container._host_seq = next(self._host_seq)
        busy_list = container._busy_list = self._busy_list_for(container)
        if container._busy:
            busy_list.append(container)
        self._layout = None

    def remove_container(self, container: "Container") -> None:  # noqa: F821
        """Evict a container from this node."""
        if container in self.containers:
            self.containers.remove(container)
            if container._busy:
                container._busy_list.remove(container)
            container._busy_list = None
            container.node = None
            self._layout = None

    def _busy_list_for(self, container: "Container") -> List["Container"]:  # noqa: F821
        """The busy list ``container`` belongs on, by its partition enforcement."""
        return self._busy_enforced if container._partition_enforced else self._busy_best_effort

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
        busy_enforced: List["Container"],  # noqa: F821
    ) -> float:
        """:meth:`best_effort_pool` from the busy enforced containers.

        ``busy_enforced`` must be in hosting order; an idle enforced
        container's protected usage, ``min(guarantee, 0.0)``, is ``0.0``.
        """
        protected_usage = 0.0
        for hosted in busy_enforced:
            # ``min(demand, guarantee)``, spelled out for the per-span path.
            demand = hosted._capped_demand[resource]
            guarantee = hosted.limits.values[resource] * scale
            protected_usage += guarantee if guarantee < demand else demand
        reserved = min(protected_usage, capacity)
        return max(capacity - reserved, 0.05 * capacity)

    def _partition_layout(self) -> _PartitionLayout:
        """The cached partition layout, rebuilt if a write has cleared it."""
        layout = self._layout
        if layout is not None:
            return layout
        enforced_limits = [
            hosted.limits.values for hosted in self.containers if hosted._partition_enforced
        ]
        capacity_values = self.capacity.values
        scales = {
            resource: self._dilution_scale(enforced_limits, resource, capacity_values[resource])
            for resource in RESOURCE_TYPES
        }
        layout = self._layout = _PartitionLayout(enforced_limits, scales)
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
        capacity.  Costs O(B_enf) over the busy enforced containers.
        """
        scale = self._partition_layout().scales[resource]
        capacity = self.capacity.values[resource]
        return self._pool(resource, capacity, scale, _in_hosting_order(self._busy_enforced))

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

        * the partition layout — every enforced container's limits, idle
          ones included, and the per-resource dilution scales — is cleared
          by ``add_container``, ``remove_container``, ``Container.set_limit``
          (and ``set_limits``, ``threads``) on a hosted container, and the
          ``partition_enforced`` setter;
        * the busy lists — hosted containers with any nonzero capped
          demand, best-effort and enforced — are appended to or removed
          from by ``add_container``, ``remove_container``, the
          ``partition_enforced`` setter, and a demand repoint that changes
          the container's nonzero flag;
        * each hosted container's capped demand is a dict its instance's
          demand row holds, repointed by the instance's queue/in-service
          transitions and the container's own limit writes (see
          :mod:`repro.cluster.instance`).

        An enforced container's call is O(R_w) for the R_w requested
        resources and never walks the node.  A best-effort call folds, per
        resource, the capped demand of the B busy containers, O(R_w·B):
        the pool demand over the busy best-effort list and the protected
        usage over the busy enforced list; with no busy enforced container
        the pool is the raw capacity.  An idle container would add exactly
        ``0.0`` to either fold, so skipping it changes no result.  Writing
        ``container.limits[...]`` directly bypasses all of this and is
        unsupported.

        Each fold runs in hosting order, the order of ``containers``: a
        busy list holding more than two containers is sorted in place by
        hosting sequence first.  The reservation stays one ``sum()`` over all
        enforced limits in hosting order.  CPython 3.12's ``sum()``
        compensates float rounding where 3.10/3.11 add left to right, so a
        hand-written loop would change results on 3.12; this shape keeps
        pinned outputs (the determinism goldens, ``bench/expected.json``)
        byte-identical on every supported Python (3.10-3.12).
        """
        factors: Dict[Resource, float] = {}
        capacity_values = self.capacity.values
        layout = self._layout
        if layout is None:
            layout = self._partition_layout()
        scales = layout.scales

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

        # _in_hosting_order(...) on both busy lists, inlined.
        busy = self._busy_best_effort
        if len(busy) > 2:
            busy.sort(key=_HOSTING_ORDER)
        busy_enforced = self._busy_enforced
        if len(busy_enforced) > 2:
            busy_enforced.sort(key=_HOSTING_ORDER)
        pressure_values = self._injected_pressure.values
        for resource in resources:
            capacity = capacity_values[resource]
            if capacity <= 0:
                factors[resource] = 1.0
                continue
            # Left fold over the busy best-effort containers in hosting
            # order, then the pressure; reordering these additions changes
            # results.
            pool_demand = 0.0
            for hosted in busy:
                pool_demand = pool_demand + hosted._capped_demand[resource]
            pool_demand = pool_demand + pressure_values[resource]
            if busy_enforced:
                pool = self._pool(resource, capacity, scales[resource], busy_enforced)
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
