"""Cluster: the collection of nodes, containers, and microservice replica sets.

The cluster is the substrate equivalent of the paper's 15-node Kubernetes
deployment.  It owns node placement, tracks the replica sets of every
deployed microservice, and offers the aggregate queries the orchestrator,
telemetry collector, and experiment harness rely on.

One cluster can host **multiple tenants**: each deployed service may carry
the identity of the tenant that owns it, containers inherit that identity,
and per-tenant aggregate queries sit next to the cluster-wide ones.
:class:`TenantClusterView` narrows the cluster API to one tenant so that
per-tenant controllers and orchestrators operate on their own services
while contention still flows through the shared nodes.

Request routing is delegated to a pluggable
:class:`~repro.routing.router.RequestRouter`: :meth:`Cluster.route`
resolves each service to a registered load-balancing policy —
per-service override, then tenant default, then the cluster default
``least_in_flight`` — so experiments can swap balancers without touching
the cluster or the runtimes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import Resource, ResourceLimits, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG


class Cluster:
    """A set of nodes hosting microservice replica sets.

    Parameters
    ----------
    engine:
        Shared simulation engine.
    rng:
        Seeded RNG family for service-time draws and placement tie-breaking.
    node_specs:
        Hardware description of each node.  Defaults to a 15-node cluster
        matching the paper's scale (9 x86 nodes + 6 ppc64 nodes).
    routing:
        Default load-balancing policy name (see :mod:`repro.routing`);
        None keeps ``least_in_flight``, the pre-subsystem behaviour.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        rng: SeededRNG,
        node_specs: Optional[List[NodeSpec]] = None,
        scheduler: Optional["Scheduler"] = None,  # noqa: F821 - forward reference
        routing: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.rng = rng
        if node_specs is None:
            node_specs = self.default_node_specs()
        self.nodes: List[Node] = [Node(spec) for spec in node_specs]
        self._replicas: Dict[str, List[MicroserviceInstance]] = defaultdict(list)
        self._profiles: Dict[str, ServiceProfile] = {}
        #: Tenant owning each deployed service (None = untenanted).
        self._service_tenants: Dict[str, Optional[str]] = {}
        if scheduler is None:
            from repro.cluster.scheduler import Scheduler

            scheduler = Scheduler(rng=rng)
        self.scheduler = scheduler
        from repro.routing.base import DEFAULT_POLICY
        from repro.routing.router import RequestRouter

        #: Pluggable request router (policy resolution + decision audit).
        self.router = RequestRouter(self, default_policy=routing or DEFAULT_POLICY)
        #: Scale listeners, invoked as ``listener(service_name, instance,
        #: added)`` after every replica addition (deploys and scale-outs
        #: alike) and removal.  The anomaly injector uses this channel to
        #: re-resolve multi-node injection targets as replica sets change,
        #: the same way the router re-reads the live replica set.
        self._scale_listeners: List[Callable[[str, MicroserviceInstance, bool], None]] = []

    # ------------------------------------------------------------- topology
    @staticmethod
    def default_node_specs(x86_nodes: int = 9, ppc64_nodes: int = 6) -> List[NodeSpec]:
        """Node specs mirroring the paper's mixed x86 / ppc64 testbed."""
        specs: List[NodeSpec] = []
        for index in range(x86_nodes):
            specs.append(NodeSpec(name=f"x86-{index}", architecture="x86"))
        for index in range(ppc64_nodes):
            specs.append(NodeSpec(name=f"ppc64-{index}", architecture="ppc64"))
        return specs

    def node_by_name(self, name: str) -> Node:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    def all_containers(self) -> List[Container]:
        """Every container currently placed on any node."""
        containers: List[Container] = []
        for node in self.nodes:
            containers.extend(node.containers)
        return containers

    # ------------------------------------------------------------ deployment
    def deploy_service(
        self,
        profile: ServiceProfile,
        replicas: int = 1,
        limits: Optional[ResourceLimits] = None,
        node: Optional[Node] = None,
        tenant: Optional[str] = None,
    ) -> List[MicroserviceInstance]:
        """Deploy ``replicas`` instances of a microservice.

        Placement uses a least-allocated heuristic (the Kubernetes default
        scheduler's spreading behaviour) unless a node is pinned explicitly.
        ``tenant`` records which tenant owns the service; its containers are
        tagged with the same identity so tenant-aware placement and
        per-tenant accounting can tell co-located tenants apart.  Scaling a
        service re-uses the tenant it was first deployed under; an explicit
        different tenant re-assigns the service, and the router drops its
        policy instance so the next route resolves the new tenant's policy.
        """
        self._profiles[profile.name] = profile
        previous = self._service_tenants.get(profile.name)
        if tenant is None:
            tenant = previous
        elif tenant != previous:
            self.router.forget(profile.name)
        self._service_tenants[profile.name] = tenant
        instances: List[MicroserviceInstance] = []
        for _ in range(replicas):
            instances.append(self._deploy_one(profile, limits, node, tenant))
        return instances

    def _deploy_one(
        self,
        profile: ServiceProfile,
        limits: Optional[ResourceLimits],
        node: Optional[Node],
        tenant: Optional[str] = None,
    ) -> MicroserviceInstance:
        target = (
            node
            if node is not None
            else self.scheduler.place(
                self.nodes, limits, service_name=profile.name, tenant=tenant
            )
        )
        container = Container(profile.name, limits=limits, threads=profile.threads, tenant=tenant)
        target.add_container(container)
        replica_index = len(self._replicas[profile.name])
        instance = MicroserviceInstance(
            profile, container, self.engine, self.rng, replica_index=replica_index
        )
        self._replicas[profile.name].append(instance)
        self.router.instrument(instance)
        for listener in self._scale_listeners:
            listener(profile.name, instance, True)
        return instance

    def remove_instance(self, instance: MicroserviceInstance) -> None:
        """Scale down: remove one replica and free its container."""
        replicas = self._replicas.get(instance.profile.name, [])
        if instance in replicas:
            replicas.remove(instance)
        node = instance.container.node
        if node is not None:
            node.remove_container(instance.container)
        for listener in self._scale_listeners:
            listener(instance.profile.name, instance, False)

    # ------------------------------------------------------- scale listeners
    def add_scale_listener(
        self, listener: Callable[[str, MicroserviceInstance, bool], None]
    ) -> None:
        """Register a hook fired after every replica addition or removal."""
        if listener not in self._scale_listeners:
            self._scale_listeners.append(listener)

    def remove_scale_listener(
        self, listener: Callable[[str, MicroserviceInstance, bool], None]
    ) -> None:
        """Deregister a previously added scale listener (no-op if absent)."""
        if listener in self._scale_listeners:
            self._scale_listeners.remove(listener)

    # --------------------------------------------------------------- queries
    def services(self, tenant: Optional[str] = None) -> List[str]:
        """Names of deployed microservices (optionally one tenant's only)."""
        names = sorted(name for name, replicas in self._replicas.items() if replicas)
        if tenant is None:
            return names
        return [name for name in names if self._service_tenants.get(name) == tenant]

    def tenants(self) -> List[str]:
        """Identities of all tenants with at least one deployed service."""
        return sorted(
            {
                tenant
                for name, tenant in self._service_tenants.items()
                if tenant is not None and self._replicas.get(name)
            }
        )

    def tenant_of(self, service_name: str) -> Optional[str]:
        """The tenant owning a deployed service (None when untenanted)."""
        return self._service_tenants.get(service_name)

    def replicas_of(self, service_name: str) -> List[MicroserviceInstance]:
        """All replicas of a service (empty list if not deployed)."""
        return list(self._replicas.get(service_name, []))

    def live_replicas(self, service_name: str) -> Optional[List[MicroserviceInstance]]:
        """The *internal* replica list, for the per-span routing hot path.

        Unlike :meth:`replicas_of` this does not copy: the returned list
        is the cluster's own bookkeeping and mutates on scale events.
        Callers must treat it as read-only and must not retain it across
        events.  Returns None when the service was never deployed.
        """
        return self._replicas.get(service_name)

    def profile_of(self, service_name: str) -> ServiceProfile:
        """The registered profile of a deployed service."""
        return self._profiles[service_name]

    def instance_by_name(self, instance_name: str) -> MicroserviceInstance:
        """Look up an instance by its ``service#replica`` name."""
        service = instance_name.split("#", 1)[0]
        for instance in self._replicas.get(service, []):
            if instance.name == instance_name:
                return instance
        raise KeyError(f"no instance named {instance_name!r}")

    def route(self, service_name: str) -> MicroserviceInstance:
        """Load-balance: choose a replica through the configured policy.

        The default policy is ``least_in_flight`` (fewest in-flight spans,
        ties broken by lowest replica index); see :meth:`set_routing_policy`
        for swapping it per cluster, tenant, or service.  Raises
        ``KeyError`` when the service has no live replica.
        """
        return self.router.route(service_name)

    def set_routing_policy(
        self,
        name: str,
        service: Optional[str] = None,
        tenant: Optional[str] = None,
        **kwargs,
    ) -> None:
        """Configure the load-balancing policy at some scope.

        With ``service`` given, pins that one service; with ``tenant``
        given, sets the default for every service the tenant owns; with
        neither, sets the cluster-wide default.  ``kwargs`` are forwarded
        to the policy factory (e.g. ``alpha=0.2`` for ``ewma_latency``).
        """
        if service is not None and tenant is not None:
            raise ValueError("pass at most one of service/tenant")
        if service is not None:
            self.router.set_service_policy(service, name, **kwargs)
        elif tenant is not None:
            self.router.set_tenant_policy(tenant, name, **kwargs)
        else:
            self.router.set_default_policy(name, **kwargs)

    def total_requested_cpu(self, tenant: Optional[str] = None) -> float:
        """Sum of CPU limits across containers (Fig. 10(b)'s metric).

        With ``tenant`` given, only that tenant's containers are counted.
        """
        return sum(
            container.limits[Resource.CPU]
            for container in self.all_containers()
            if tenant is None or container.tenant == tenant
        )

    def total_capacity(self) -> ResourceVector:
        """Aggregate capacity across all nodes."""
        total = ResourceVector()
        for node in self.nodes:
            total = total + node.capacity
        return total

    def cluster_cpu_utilization(self) -> float:
        """Mean CPU utilization across nodes (Fig. 10 discussion metric)."""
        if not self.nodes:
            return 0.0
        values = [node.utilization()[Resource.CPU] for node in self.nodes]
        return float(sum(values) / len(values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(nodes={len(self.nodes)}, services={len(self.services())}, "
            f"containers={len(self.all_containers())})"
        )


class TenantClusterView:
    """One tenant's view of a shared cluster.

    The view exposes the :class:`Cluster` API with every service-level query
    scoped to the tenant's own services, while node-level state (topology,
    capacity, utilization) stays shared — so a controller handed a view can
    only see and act on its tenant's containers, yet still experiences the
    contention generated by everyone co-located on the same nodes.

    Controllers, orchestrators, runtimes, and injectors accept a view
    anywhere they accept a cluster; deployments made through the view are
    automatically tagged with the tenant's identity.
    """

    def __init__(self, cluster: Cluster, tenant: str) -> None:
        self.cluster = cluster
        self.tenant = tenant

    # ------------------------------------------------------- shared topology
    @property
    def engine(self) -> SimulationEngine:
        return self.cluster.engine

    @property
    def rng(self) -> SeededRNG:
        return self.cluster.rng

    @property
    def nodes(self) -> List[Node]:
        return self.cluster.nodes

    @property
    def scheduler(self):
        return self.cluster.scheduler

    def node_by_name(self, name: str) -> Node:
        return self.cluster.node_by_name(name)

    def add_scale_listener(self, listener) -> None:
        """Scale events are cluster-wide; listeners filter by service name."""
        self.cluster.add_scale_listener(listener)

    def remove_scale_listener(self, listener) -> None:
        self.cluster.remove_scale_listener(listener)

    def total_capacity(self) -> ResourceVector:
        return self.cluster.total_capacity()

    def cluster_cpu_utilization(self) -> float:
        """Cluster-wide utilization: contention is shared, so is this view."""
        return self.cluster.cluster_cpu_utilization()

    # ------------------------------------------------------- scoped queries
    def _owns(self, service_name: str) -> bool:
        return self.cluster.tenant_of(service_name) == self.tenant

    def all_containers(self) -> List[Container]:
        """Only the tenant's containers (in shared-cluster placement order)."""
        return [
            container
            for container in self.cluster.all_containers()
            if container.tenant == self.tenant
        ]

    def services(self) -> List[str]:
        return self.cluster.services(tenant=self.tenant)

    def replicas_of(self, service_name: str) -> List[MicroserviceInstance]:
        if not self._owns(service_name):
            return []
        return self.cluster.replicas_of(service_name)

    def profile_of(self, service_name: str) -> ServiceProfile:
        if not self._owns(service_name):
            raise KeyError(f"service {service_name!r} is not owned by tenant {self.tenant!r}")
        return self.cluster.profile_of(service_name)

    def instance_by_name(self, instance_name: str) -> MicroserviceInstance:
        service = instance_name.split("#", 1)[0]
        if not self._owns(service):
            raise KeyError(f"instance {instance_name!r} is not owned by tenant {self.tenant!r}")
        return self.cluster.instance_by_name(instance_name)

    def route(self, service_name: str) -> MicroserviceInstance:
        """Route within the tenant's own replicas (ownership enforced)."""
        if not self._owns(service_name):
            raise KeyError(f"service {service_name!r} is not owned by tenant {self.tenant!r}")
        return self.cluster.route(service_name)

    @property
    def router(self):
        """The shared cluster's request router."""
        return self.cluster.router

    def set_routing_policy(
        self, name: str, service: Optional[str] = None, **kwargs
    ) -> None:
        """Configure routing for this tenant (or one of its services).

        Without ``service``, sets the tenant-wide default; per-tenant
        policies coexist on one shared cluster because policy resolution
        is per (tenant-namespaced) service.
        """
        if service is not None:
            if not self._owns(service):
                raise KeyError(
                    f"service {service!r} is not owned by tenant {self.tenant!r}"
                )
            self.cluster.set_routing_policy(name, service=service, **kwargs)
        else:
            self.cluster.set_routing_policy(name, tenant=self.tenant, **kwargs)

    def total_requested_cpu(self) -> float:
        return self.cluster.total_requested_cpu(tenant=self.tenant)

    # ---------------------------------------------------- scoped deployment
    def deploy_service(
        self,
        profile: ServiceProfile,
        replicas: int = 1,
        limits: Optional[ResourceLimits] = None,
        node: Optional[Node] = None,
        tenant: Optional[str] = None,
    ) -> List[MicroserviceInstance]:
        """Deploy on the shared cluster, tagged with this view's tenant."""
        if tenant is not None and tenant != self.tenant:
            raise ValueError(
                f"tenant view {self.tenant!r} cannot deploy for tenant {tenant!r}"
            )
        return self.cluster.deploy_service(
            profile, replicas=replicas, limits=limits, node=node, tenant=self.tenant
        )

    def remove_instance(self, instance: MicroserviceInstance) -> None:
        if not self._owns(instance.profile.name):
            raise KeyError(
                f"instance {instance.name!r} is not owned by tenant {self.tenant!r}"
            )
        self.cluster.remove_instance(instance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantClusterView(tenant={self.tenant!r}, "
            f"services={len(self.services())}, containers={len(self.all_containers())})"
        )
