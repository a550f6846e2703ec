"""Service dependency graph and request-type model.

A deployment of microservices is described by a :class:`ServiceGraph`:
vertices are microservices, edges are RPC dependencies.  Each
:class:`RequestType` (e.g. ``post-compose``) traverses a subset of the graph
following a *call plan*, a small tree describing which downstream services a
service invokes and whether those invocations are sequential, parallel, or
background (fire-and-forget) — the three workflow patterns the paper's
critical-path extractor must handle.
"""

from __future__ import annotations

import enum
import graphlib
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.cluster.instance import ServiceProfile
from repro.cluster.resources import Resource, ResourceVector


class CallPattern(str, enum.Enum):
    """Workflow pattern of a set of child calls (paper §3.2)."""

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    BACKGROUND = "background"


@dataclass
class CallEdge:
    """One RPC dependency in a request's call plan.

    Attributes
    ----------
    callee:
        Name of the downstream service being invoked.
    pattern:
        Whether the call is part of a sequential chain, a parallel fan-out,
        or a background (no-reply) workflow.
    children:
        Nested calls the callee makes while serving this RPC.
    """

    callee: str
    pattern: CallPattern = CallPattern.SEQUENTIAL
    children: List["CallEdge"] = field(default_factory=list)

    def walk(self) -> Iterable["CallEdge"]:
        """Depth-first iteration over this edge and all nested calls."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class RequestType:
    """A user-visible request type (e.g. ``post-compose``).

    Attributes
    ----------
    name:
        Request type name.
    entry_service:
        The frontend service that receives the request (e.g. ``nginx``).
    call_plan:
        Calls made by the entry service, with nesting describing the full
        execution structure.
    slo_latency_ms:
        End-to-end latency SLO for this request type.
    weight:
        Relative frequency in the application's default request mix.
    """

    name: str
    entry_service: str
    call_plan: List[CallEdge] = field(default_factory=list)
    slo_latency_ms: float = 500.0
    weight: float = 1.0

    def services(self) -> List[str]:
        """All services touched by this request type (entry first, no dupes)."""
        seen: List[str] = [self.entry_service]
        for edge in self.call_plan:
            for nested in edge.walk():
                if nested.callee not in seen:
                    seen.append(nested.callee)
        return seen


@dataclass
class ServiceNode:
    """A microservice in the dependency graph with its performance profile."""

    profile: ServiceProfile
    initial_replicas: int = 1

    @property
    def name(self) -> str:
        return self.profile.name


class ServiceGraph:
    """A complete application: services, dependencies, and request types."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._services: Dict[str, ServiceNode] = {}
        self._request_types: Dict[str, RequestType] = {}

    # --------------------------------------------------------------- builders
    def add_service(
        self,
        profile: ServiceProfile,
        replicas: int = 1,
    ) -> ServiceNode:
        """Register a microservice.  Re-adding an existing name is an error."""
        if profile.name in self._services:
            raise ValueError(f"service {profile.name!r} already registered in {self.name!r}")
        node = ServiceNode(profile=profile, initial_replicas=replicas)
        self._services[profile.name] = node
        return node

    def add_request_type(self, request_type: RequestType) -> RequestType:
        """Register a request type; all referenced services must exist."""
        missing = [
            service
            for service in request_type.services()
            if service not in self._services
        ]
        if missing:
            raise ValueError(
                f"request type {request_type.name!r} references unknown services {missing}"
            )
        self._request_types[request_type.name] = request_type
        return request_type

    # ---------------------------------------------------------------- queries
    # Read-only live views, not copies: the admission gate reads a request
    # type per admitted request.
    @property
    def services(self) -> Mapping[str, ServiceNode]:
        return MappingProxyType(self._services)

    @property
    def request_types(self) -> Mapping[str, RequestType]:
        return MappingProxyType(self._request_types)

    def service_names(self) -> List[str]:
        return sorted(self._services)

    def request_mix(self) -> List[Tuple[str, float]]:
        """Normalized (request type, probability) pairs from the weights."""
        total = sum(rt.weight for rt in self._request_types.values())
        if total <= 0:
            raise ValueError(f"application {self.name!r} has no weighted request types")
        return [
            (name, self._request_types[name].weight / total)
            for name in sorted(self._request_types)
        ]

    def dependency_graph(self) -> Dict[str, List[str]]:
        """Caller -> callees (each once) over all request types; every service is a key."""
        graph: Dict[str, List[str]] = {service: [] for service in self._services}
        for request_type in self._request_types.values():
            _add_edges(graph, request_type.entry_service, request_type.call_plan)
        return graph

    # ------------------------------------------------------------ namespacing
    def namespaced(self, prefix: str) -> "ServiceGraph":
        """A copy of this graph with every service name prefixed ``prefix/``.

        Used by multi-tenant deployments: two tenants running the same
        application must not collide in the shared cluster's replica sets,
        so each tenant deploys ``tenant/nginx``, ``tenant/composePost``, ...
        Request-type *names* are left untouched (SLO accounting is per
        tenant already), but their entry services and call plans are
        rewritten to the prefixed service names.  The application name
        becomes ``prefix/name`` so seeded RNG substreams (workload arrivals,
        service times) decouple between tenants automatically.
        """
        def _rename(service: str) -> str:
            return f"{prefix}/{service}"

        def _rewrite(edge: CallEdge) -> CallEdge:
            return CallEdge(
                callee=_rename(edge.callee),
                pattern=edge.pattern,
                children=[_rewrite(child) for child in edge.children],
            )

        clone = ServiceGraph(f"{prefix}/{self.name}")
        for node in self._services.values():
            profile = replace(
                node.profile,
                name=_rename(node.profile.name),
                resource_weights=dict(node.profile.resource_weights),
            )
            clone.add_service(profile, replicas=node.initial_replicas)
        for request_type in self._request_types.values():
            clone.add_request_type(
                RequestType(
                    name=request_type.name,
                    entry_service=_rename(request_type.entry_service),
                    call_plan=[_rewrite(edge) for edge in request_type.call_plan],
                    slo_latency_ms=request_type.slo_latency_ms,
                    weight=request_type.weight,
                )
            )
        return clone

    def validate(self) -> None:
        """Sanity checks: at least one request type, acyclic dependencies."""
        if not self._request_types:
            raise ValueError(f"application {self.name!r} defines no request types")
        try:
            graphlib.TopologicalSorter(self.dependency_graph()).prepare()
        except graphlib.CycleError as error:  # values read as predecessors: callee -> caller
            cycle = " -> ".join(reversed(error.args[1]))
            raise ValueError(f"application {self.name!r} has a cyclic dependency: {cycle}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceGraph(name={self.name!r}, services={len(self._services)}, "
            f"request_types={len(self._request_types)})"
        )


def _add_edges(graph: Dict[str, List[str]], caller: str, calls: Sequence[CallEdge]) -> None:
    for edge in calls:
        if edge.callee not in graph[caller]:
            graph[caller].append(edge.callee)
        _add_edges(graph, edge.callee, edge.children)


# --------------------------------------------------------------------------
# Profile helpers shared by the four benchmark applications
# --------------------------------------------------------------------------

def frontend_profile(name: str, base_ms: float = 2.0) -> ServiceProfile:
    """An nginx-like frontend: light CPU, network-sensitive."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=0.2,
        resource_weights={Resource.CPU: 0.5, Resource.NETWORK: 0.8},
        demand_per_request=ResourceVector.from_kwargs(cpu=0.2, network=0.05),
        threads=16,
    )


def logic_profile(name: str, base_ms: float = 8.0, cv: float = 0.3) -> ServiceProfile:
    """A business-logic service: CPU-bound."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=cv,
        resource_weights={Resource.CPU: 0.9, Resource.MEMORY_BANDWIDTH: 0.3},
        demand_per_request=ResourceVector.from_kwargs(cpu=0.6, memory_bandwidth=0.4),
        threads=8,
    )


def cache_profile(name: str, base_ms: float = 1.5) -> ServiceProfile:
    """A memcached-like cache: memory-bandwidth and LLC sensitive."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=0.35,
        resource_weights={
            Resource.CPU: 0.3,
            Resource.MEMORY_BANDWIDTH: 0.9,
            Resource.LLC: 0.8,
        },
        demand_per_request=ResourceVector.from_kwargs(
            cpu=0.2, memory_bandwidth=1.2, llc=0.3
        ),
        threads=4,
    )


def database_profile(name: str, base_ms: float = 6.0) -> ServiceProfile:
    """A mongoDB-like store: disk-I/O sensitive, moderate CPU."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=0.4,
        resource_weights={
            Resource.CPU: 0.4,
            Resource.DISK_IO: 0.9,
            Resource.MEMORY_BANDWIDTH: 0.4,
        },
        demand_per_request=ResourceVector.from_kwargs(
            cpu=0.3, disk_io=15.0, memory_bandwidth=0.5
        ),
        threads=8,
    )


def media_profile(name: str, base_ms: float = 12.0) -> ServiceProfile:
    """A video/image processing service: CPU and memory-bandwidth heavy."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=0.45,
        resource_weights={
            Resource.CPU: 0.8,
            Resource.MEMORY_BANDWIDTH: 0.7,
            Resource.NETWORK: 0.4,
        },
        demand_per_request=ResourceVector.from_kwargs(
            cpu=0.9, memory_bandwidth=1.5, network=0.1
        ),
        threads=8,
    )


def background_profile(name: str, base_ms: float = 20.0) -> ServiceProfile:
    """A background worker (e.g. write-timeline fan-out)."""
    return ServiceProfile(
        name=name,
        base_service_time_ms=base_ms,
        service_time_cv=0.5,
        resource_weights={Resource.CPU: 0.6, Resource.DISK_IO: 0.5},
        demand_per_request=ResourceVector.from_kwargs(cpu=0.4, disk_io=5.0),
        threads=4,
        background=True,
    )
