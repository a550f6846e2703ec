"""Unit tests for the node model (placement, pressure, contention)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceLimits, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG


@pytest.fixture
def node() -> Node:
    return Node(NodeSpec(name="test-node"))


def _instance_on(node, engine, rng, profile=None, limits=None):
    """Helper: place a container+instance on a node."""
    if profile is None:
        profile = ServiceProfile(
            name="svc",
            base_service_time_ms=5.0,
            resource_weights={Resource.CPU: 1.0},
            demand_per_request=ResourceVector.from_kwargs(cpu=1.0),
        )
    container = Container(profile.name, limits=limits)
    node.add_container(container)
    return MicroserviceInstance(profile, container, engine, rng)


class TestPlacement:
    def test_add_container_sets_backlink(self, node):
        container = Container("svc")
        node.add_container(container)
        assert container.node is node
        assert container in node.containers

    def test_add_container_idempotent(self, node):
        container = Container("svc")
        node.add_container(container)
        node.add_container(container)
        assert node.containers.count(container) == 1
        assert container.node is node

    def test_add_container_hosted_elsewhere_rejected(self, node):
        other = Node(NodeSpec(name="other-node"))
        container = Container("svc")
        other.add_container(container)
        with pytest.raises(ValueError, match="other-node"):
            node.add_container(container)
        assert container.node is other
        assert container in other.containers
        assert container not in node.containers

    def test_add_container_after_removal_elsewhere(self, node):
        other = Node(NodeSpec(name="other-node"))
        container = Container("svc")
        other.add_container(container)
        other.remove_container(container)
        node.add_container(container)
        assert container.node is node
        assert node.containers == [container]
        assert other.containers == []

    def test_remove_container(self, node):
        container = Container("svc")
        node.add_container(container)
        node.remove_container(container)
        assert container.node is None
        assert container not in node.containers

    def test_allocated_limits_sums_containers(self, node):
        node.add_container(Container("a", limits=ResourceLimits.from_kwargs(cpu=2.0)))
        node.add_container(Container("b", limits=ResourceLimits.from_kwargs(cpu=3.0)))
        assert node.allocated_limits()[Resource.CPU] == pytest.approx(5.0)

    def test_can_fit_respects_capacity(self, node):
        huge = ResourceLimits.from_kwargs(cpu=node.capacity[Resource.CPU] + 1)
        assert not node.can_fit(huge)
        small = ResourceLimits.from_kwargs(cpu=1.0)
        assert node.can_fit(small)

    def test_architecture_label(self):
        assert Node(NodeSpec(name="p", architecture="ppc64")).architecture == "ppc64"


class TestPressure:
    def test_inject_and_remove_pressure(self, node):
        pressure = ResourceVector.from_kwargs(memory_bandwidth=50.0)
        node.inject_pressure(pressure)
        assert node.injected_pressure[Resource.MEMORY_BANDWIDTH] == pytest.approx(50.0)
        node.remove_pressure(pressure)
        assert node.injected_pressure[Resource.MEMORY_BANDWIDTH] == pytest.approx(0.0)

    def test_pressure_never_negative(self, node):
        node.remove_pressure(ResourceVector.from_kwargs(cpu=10.0))
        assert node.injected_pressure[Resource.CPU] == 0.0

    def test_clear_pressure(self, node):
        node.inject_pressure(ResourceVector.from_kwargs(cpu=10.0))
        node.clear_pressure()
        assert node.injected_pressure.total() == 0.0

    def test_pressure_accumulates(self, node):
        node.inject_pressure(ResourceVector.from_kwargs(cpu=10.0))
        node.inject_pressure(ResourceVector.from_kwargs(cpu=5.0))
        assert node.injected_pressure[Resource.CPU] == pytest.approx(15.0)


class TestContention:
    def test_no_pressure_no_contention(self, node):
        factors = node.contention_factors()
        assert all(factor == pytest.approx(1.0) for factor in factors.values())

    def test_queueing_factor_monotone(self):
        assert Node._queueing_factor(0.2) < Node._queueing_factor(0.5) < Node._queueing_factor(0.9)

    def test_queueing_factor_bounded_at_saturation(self):
        assert Node._queueing_factor(5.0) == Node._queueing_factor(1.0)

    def test_queueing_factor_at_zero_is_one(self):
        assert Node._queueing_factor(0.0) == pytest.approx(1.0)

    def test_high_pressure_creates_contention(self, node):
        capacity = node.capacity[Resource.MEMORY_BANDWIDTH]
        node.inject_pressure(ResourceVector.from_kwargs(memory_bandwidth=0.9 * capacity))
        factors = node.contention_factors()
        assert factors[Resource.MEMORY_BANDWIDTH] > 3.0
        assert factors[Resource.CPU] == pytest.approx(1.0)

    def test_enforced_container_isolated_from_pressure(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        container = instance.container
        capacity = node.capacity[Resource.CPU]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.95 * capacity))
        # Not enforced: suffers the pool contention.
        unprotected = node.contention_factors(container)[Resource.CPU]
        assert unprotected > 3.0
        # Enforced: isolated (demand is zero, so the factor collapses to ~1).
        container.partition_enforced = True
        protected = node.contention_factors(container)[Resource.CPU]
        assert protected == pytest.approx(1.0, abs=0.05)

    def test_best_effort_pool_shrinks_with_protected_usage(self, node, engine, rng):
        instance = _instance_on(
            node, engine, rng, limits=ResourceLimits.from_kwargs(cpu=8.0)
        )
        container = instance.container
        full_pool = node.best_effort_pool(Resource.CPU)
        container.partition_enforced = True
        # Give the instance some in-flight work so it has demand.
        instance.submit("r1", "svc", lambda *a: None)
        shrunk_pool = node.best_effort_pool(Resource.CPU)
        assert shrunk_pool <= full_pool

    def test_best_effort_pool_never_below_five_percent(self, node, engine, rng):
        instance = _instance_on(
            node, engine, rng, limits=ResourceLimits.from_kwargs(cpu=1000.0)
        )
        instance.container.partition_enforced = True
        for index in range(50):
            instance.submit(f"r{index}", "svc", lambda *a: None)
        pool = node.best_effort_pool(Resource.CPU)
        assert pool >= 0.05 * node.capacity[Resource.CPU] - 1e-9

    def test_enforced_reservation_counts_only_enforced(self, node):
        plain = Container("a", limits=ResourceLimits.from_kwargs(cpu=2.0))
        enforced = Container("b", limits=ResourceLimits.from_kwargs(cpu=3.0))
        enforced.partition_enforced = True
        node.add_container(plain)
        node.add_container(enforced)
        assert node.enforced_reservation(Resource.CPU) == pytest.approx(3.0)

    def test_dilution_when_oversubscribed(self, node):
        capacity = node.capacity[Resource.CPU]
        a = Container("a", limits=ResourceLimits.from_kwargs(cpu=capacity))
        b = Container("b", limits=ResourceLimits.from_kwargs(cpu=capacity))
        a.partition_enforced = True
        b.partition_enforced = True
        node.add_container(a)
        node.add_container(b)
        assert node.enforced_reservation(Resource.CPU) == pytest.approx(2 * capacity)
        scale = Node._dilution_scale(node._enforced_limits(), Resource.CPU, capacity)
        assert scale == pytest.approx(0.5)

    def test_utilization_clipped_to_one(self, node):
        capacity = node.capacity[Resource.CPU]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=5 * capacity))
        assert node.utilization()[Resource.CPU] <= 1.0

    def test_demand_sums_hosted_instances(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        instance.submit("r1", "svc", lambda *a: None)
        assert node.demand()[Resource.CPU] > 0.0


# ----------------------------------------------------------------------------
# Reference copy of the quadratic contention formulas the linear-time
# ``Node.contention_factors`` replaced: every enforced container re-sums the
# reservation over all hosted containers.  The rewrite must agree bit for bit.


def _reference_dilution_scale(node, resource):
    reservation = sum(
        container.limits[resource]
        for container in node.containers
        if container.partition_enforced
    )
    capacity = node.capacity[resource]
    if reservation <= capacity or reservation <= 0:
        return 1.0
    return capacity / reservation


def _reference_best_effort_pool(node, resource):
    protected_usage = 0.0
    for container in node.containers:
        if not container.partition_enforced:
            continue
        guarantee = container.limits[resource] * _reference_dilution_scale(node, resource)
        protected_usage += min(container.current_demand()[resource], guarantee)
    reserved = min(protected_usage, node.capacity[resource])
    return max(node.capacity[resource] - reserved, 0.05 * node.capacity[resource])


def _reference_contention_factors(node, container=None):
    factors = {}
    if container is not None and container.partition_enforced:
        demand = container.current_demand()
        for resource in RESOURCE_TYPES:
            if node.capacity[resource] <= 0:
                factors[resource] = 1.0
                continue
            guarantee = container.limits[resource] * _reference_dilution_scale(node, resource)
            if guarantee <= 0:
                factors[resource] = Node._queueing_factor(Node.MAX_UTILIZATION)
                continue
            factors[resource] = Node._queueing_factor(demand[resource] / guarantee)
        return factors
    has_enforced = any(hosted.partition_enforced for hosted in node.containers)
    pool_demand = {resource: 0.0 for resource in RESOURCE_TYPES}
    for hosted in node.containers:
        if not hosted.partition_enforced:
            hosted_demand = hosted.current_demand()
            for resource in RESOURCE_TYPES:
                pool_demand[resource] = pool_demand[resource] + hosted_demand[resource]
    for resource in RESOURCE_TYPES:
        pool_demand[resource] = pool_demand[resource] + node.injected_pressure[resource]
    for resource in RESOURCE_TYPES:
        capacity = node.capacity[resource]
        if capacity <= 0:
            factors[resource] = 1.0
            continue
        pool = _reference_best_effort_pool(node, resource) if has_enforced else capacity
        factors[resource] = Node._queueing_factor(pool_demand[resource] / pool)
    return factors


_EQUIVALENCE_PROFILE = ServiceProfile(
    name="svc",
    demand_per_request=ResourceVector.from_kwargs(
        cpu=1.5, memory_bandwidth=9.0, llc=4.0, disk_io=150.0, network=0.8
    ),
)

# A limit as a fraction of node capacity: exactly zero, or up to 1.5x, so a
# few enforced containers oversubscribe the node and dilute guarantees.
_limit_fractions = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5))

_hosted = st.fixed_dictionaries(
    {
        "limits": st.lists(_limit_fractions, min_size=5, max_size=5),
        "enforced": st.booleans(),
        # None: a bare container with no instance (zero demand).  Otherwise
        # the number of spans submitted; a low CPU limit leaves some queued
        # behind the ones in service.
        "spans": st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    }
)


def _build_node(hosted, pressure):
    node = Node(NodeSpec(name="prop-node"))
    engine = SimulationEngine()
    rng = SeededRNG(7)
    for index, draw in enumerate(hosted):
        limits = ResourceLimits(
            {
                resource: fraction * node.capacity[resource]
                for resource, fraction in zip(RESOURCE_TYPES, draw["limits"])
            }
        )
        container = Container(f"svc{index}", limits=limits)
        node.add_container(container)
        if draw["spans"] is not None:
            instance = MicroserviceInstance(_EQUIVALENCE_PROFILE, container, engine, rng)
            for span in range(draw["spans"]):
                instance.submit(f"r{span}", "svc", lambda *a: None)
        # Enforce after submitting so dispatch ran without partitions; the
        # contention below is read with the drawn enforcement in place.
        container.partition_enforced = draw["enforced"]
    node.inject_pressure(
        ResourceVector(
            {
                resource: fraction * node.capacity[resource]
                for resource, fraction in zip(RESOURCE_TYPES, pressure)
            }
        )
    )
    return node


class TestContentionEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_hosted, min_size=0, max_size=8),
        st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=5, max_size=5),
    )
    def test_matches_quadratic_reference(self, hosted, pressure):
        node = _build_node(hosted, pressure)
        assert node.contention_factors() == _reference_contention_factors(node)
        for container in node.containers:
            expected = _reference_contention_factors(node, container)
            assert node.contention_factors(container) == expected
        for resource in RESOURCE_TYPES:
            expected_pool = _reference_best_effort_pool(node, resource)
            assert node.best_effort_pool(resource) == expected_pool
            scale = Node._dilution_scale(
                node._enforced_limits(), resource, node.capacity[resource]
            )
            assert scale == _reference_dilution_scale(node, resource)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_hosted, min_size=0, max_size=8),
        st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=5, max_size=5),
    )
    def test_factors_and_pools_bounded(self, hosted, pressure):
        node = _build_node(hosted, pressure)
        for subject in [None, *node.containers]:
            for factor in node.contention_factors(subject).values():
                assert math.isfinite(factor)
                assert factor >= 1.0
        for resource in RESOURCE_TYPES:
            assert node.best_effort_pool(resource) >= 0.05 * node.capacity[resource]
