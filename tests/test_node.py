"""Unit tests for the node model (placement, pressure, contention)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile, SpanWork
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
        instance.submit(SpanWork(lambda *a: None))
        shrunk_pool = node.best_effort_pool(Resource.CPU)
        assert shrunk_pool <= full_pool

    def test_best_effort_pool_never_below_five_percent(self, node, engine, rng):
        instance = _instance_on(
            node, engine, rng, limits=ResourceLimits.from_kwargs(cpu=1000.0)
        )
        instance.container.partition_enforced = True
        for index in range(50):
            instance.submit(SpanWork(lambda *a: None))
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
        assert node._partition_layout().scales[Resource.CPU] == pytest.approx(0.5)

    def test_utilization_clipped_to_one(self, node):
        capacity = node.capacity[Resource.CPU]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=5 * capacity))
        assert node.utilization()[Resource.CPU] <= 1.0

    def test_demand_sums_hosted_instances(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        instance.submit(SpanWork(lambda *a: None))
        assert node.demand()[Resource.CPU] > 0.0


class _UnreadDemand:
    """A capped-demand stand-in that fails any read."""

    def __getitem__(self, resource):
        raise AssertionError(f"an idle container's {resource} demand was read")


class TestBusyOnlyFold:
    """Contention walks the busy containers, never the idle ones FIRM scaled out."""

    def test_idle_containers_are_never_read(self, engine, rng):
        node = Node(NodeSpec(name="fleet-node"))
        idle = []
        for index in range(100):
            container = Container(f"idle{index}")
            node.add_container(container)
            if index % 2:
                # Half host an instance with no spans, half are bare.
                MicroserviceInstance(ServiceProfile(name="idle"), container, engine, rng)
            container.partition_enforced = index % 3 == 0
            idle.append(container)
        busy = []
        for index in range(3):
            instance = _instance_on(node, engine, rng)
            instance.container.partition_enforced = index == 2
            instance.submit(SpanWork(lambda *a: None))
            busy.append(instance.container)
        node.inject_pressure(ResourceVector.from_kwargs(cpu=10.0))
        assert len(node._busy_best_effort) == 2 and len(node._busy_enforced) == 1

        def reads():
            return (
                node.contention_factors(),
                [node.contention_factors(container) for container in busy],
                [container.total_slowdown() for container in busy],
                [node.best_effort_pool(resource) for resource in RESOURCE_TYPES],
            )

        expected = reads()
        for container in idle:
            container._capped_demand = _UnreadDemand()
        assert reads() == expected


# ----------------------------------------------------------------------------
# Reference copy of the quadratic contention formulas the linear-time
# ``Node.contention_factors`` replaced: every enforced container re-sums the
# reservation over all hosted containers.  The rewrite must agree bit for bit.
# The reference is stateless: it recomputes every container's demand from
# its instance's queue and in-service lengths, so it cannot see a cache.


def _reference_cpu_limit(container):
    return min(container.limits[Resource.CPU], float(container.threads))


def _reference_limit(container, resource):
    if resource is Resource.CPU:
        return _reference_cpu_limit(container)
    return container.limits[resource]


def _reference_raw_demand(instance):
    queued = len(instance._queue)
    concurrency = max(1, int(_reference_cpu_limit(instance.container)))
    active = instance.in_service + (queued if queued < concurrency else concurrency)
    return {
        resource: value * float(active)
        for resource, value in instance.profile.demand_per_request.values.items()
    }


def _reference_demand(container):
    if container.instance is None:
        return {resource: 0.0 for resource in RESOURCE_TYPES}
    raw = _reference_raw_demand(container.instance)
    capped = {}
    for resource in RESOURCE_TYPES:
        limit = _reference_limit(container, resource)
        want = raw[resource]
        capped[resource] = (want if want < limit else limit) if limit > 0 else 0.0
    return capped


def _reference_utilization(container):
    demand = _reference_demand(container)
    utilization = {}
    for resource in RESOURCE_TYPES:
        limit = _reference_limit(container, resource)
        utilization[resource] = demand[resource] / limit if limit > 0 else 0.0
    return utilization


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
        protected_usage += min(_reference_demand(container)[resource], guarantee)
    reserved = min(protected_usage, node.capacity[resource])
    return max(node.capacity[resource] - reserved, 0.05 * node.capacity[resource])


def _reference_contention_factors(node, container=None):
    factors = {}
    if container is not None and container.partition_enforced:
        demand = _reference_demand(container)
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
            hosted_demand = _reference_demand(hosted)
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
                instance.submit(SpanWork(lambda *a: None))
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
            scale = node._partition_layout().scales[resource]
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


# ----------------------------------------------------------------------------
# Invalidation contract: contention, slowdown and demand reads go through
# demand rows and a cached partition layout, which the writes that change them
# repoint or clear.  Random interleavings of every such write must leave the
# cached reads equal to the stateless reference after each step.


def _reference_total_slowdown(container):
    instance = container.instance
    if instance is None:
        return 1.0
    if container.node is not None:
        node_factors = _reference_contention_factors(container.node, container)
    else:
        node_factors = {resource: 1.0 for resource in RESOURCE_TYPES}
    raw = _reference_raw_demand(instance)
    weights = instance.profile.resource_weights
    slowdown = 1.0
    for resource in RESOURCE_TYPES:
        want = raw[resource]
        limit = _reference_limit(container, resource)
        if want <= 0:
            cap = 1.0
        elif limit <= 0:
            cap = Node._queueing_factor(Node.MAX_UTILIZATION)
        else:
            cap = Node._queueing_factor(want / limit)
        factor = max(cap, node_factors[resource])
        slowdown = max(slowdown, 1.0 + (factor - 1.0) * weights.get(resource, 0.0))
    return slowdown


_ORACLE_WEIGHTS = (
    {Resource.CPU: 1.0},
    {Resource.MEMORY_BANDWIDTH: 0.8, Resource.LLC: 0.5},
    dict.fromkeys(RESOURCE_TYPES, 0.5),
    {Resource.DISK_IO: 0.7, Resource.NETWORK: 0.6, Resource.CPU: 0.2},
)
#: Containers 0-3 host an instance; container 4 is bare (zero demand).
_ORACLE_CONTAINERS = len(_ORACLE_WEIGHTS) + 1

_container_index = st.integers(min_value=0, max_value=_ORACLE_CONTAINERS - 1)
_oracle_op = st.one_of(
    # A burst of spans, so some queue behind the ones in service.
    st.tuples(
        st.just("submit"),
        st.integers(min_value=0, max_value=len(_ORACLE_WEIGHTS) - 1),
        st.integers(min_value=1, max_value=4),
    ),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=3)),
    st.tuples(
        st.just("set_limit"), _container_index, st.sampled_from(RESOURCE_TYPES), _limit_fractions
    ),
    # A few cores: moves concurrency, and with it how many queued spans count.
    st.tuples(st.just("cpu"), _container_index, st.floats(min_value=0.0, max_value=6.0)),
    st.tuples(
        st.just("set_limits"),
        _container_index,
        st.lists(_limit_fractions, min_size=5, max_size=5),
    ),
    st.tuples(st.just("threads"), _container_index, st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("enforce"), _container_index, st.booleans()),
    # Move to node 0 or 1, or (None) evict.
    st.tuples(st.just("place"), _container_index, st.sampled_from([0, 1, None])),
    st.tuples(
        st.just("pressure"),
        st.integers(min_value=0, max_value=1),
        st.booleans(),
        st.lists(st.floats(min_value=0.0, max_value=0.6), min_size=5, max_size=5),
    ),
)


def _unsort_busy_lists(node):
    for busy_list in (node._busy_best_effort, node._busy_enforced):
        busy_list.sort(key=lambda container: container._host_seq, reverse=True)


class _OracleCluster:
    """Two nodes, four instances and one bare container, driven op by op."""

    def __init__(self):
        self.engine = SimulationEngine()
        rng = SeededRNG(5)
        self.nodes = [Node(NodeSpec(name="oracle-a")), Node(NodeSpec(name="oracle-b"))]
        capacity = self.nodes[0].capacity
        self.capacity = capacity
        self.containers = []
        for index in range(_ORACLE_CONTAINERS):
            # From a few spans' worth of each resource up to the whole node,
            # and two cores, so demand meets some limits and not others, and
            # spans queue behind the ones in service.
            fraction = (0.15, 0.5, 1.0, 0.3, 0.15)[index]
            limits = ResourceLimits(
                {resource: fraction * capacity[resource] for resource in RESOURCE_TYPES}
            )
            limits[Resource.CPU] = 2.0
            container = Container(f"svc{index}", limits=limits)
            container.partition_enforced = index in (1, 2)
            if index != 3:
                self.nodes[index % 2].add_container(container)
            if index < len(_ORACLE_WEIGHTS):
                profile = ServiceProfile(
                    name=f"svc{index}",
                    resource_weights=_ORACLE_WEIGHTS[index],
                    demand_per_request=_EQUIVALENCE_PROFILE.demand_per_request,
                )
                MicroserviceInstance(profile, container, self.engine, rng)
            self.containers.append(container)

    def apply(self, op):
        kind = op[0]
        if kind == "submit":
            for _ in range(op[2]):
                self.containers[op[1]].instance.submit(SpanWork(lambda *a: None))
        elif kind == "step":
            for _ in range(op[1]):
                self.engine.step()
        elif kind == "set_limit":
            _, index, resource, fraction = op
            self.containers[index].set_limit(resource, fraction * self.capacity[resource])
        elif kind == "cpu":
            self.containers[op[1]].set_limit(Resource.CPU, op[2])
        elif kind == "set_limits":
            _, index, fractions = op
            self.containers[index].set_limits(
                ResourceVector(
                    {
                        resource: fraction * self.capacity[resource]
                        for resource, fraction in zip(RESOURCE_TYPES, fractions)
                    }
                )
            )
        elif kind == "threads":
            self.containers[op[1]].threads = op[2]
        elif kind == "enforce":
            self.containers[op[1]].partition_enforced = op[2]
        elif kind == "place":
            container = self.containers[op[1]]
            if container.node is not None:
                container.node.remove_container(container)
            if op[2] is not None:
                self.nodes[op[2]].add_container(container)
        elif kind == "pressure":
            _, index, inject, fractions = op
            pressure = ResourceVector(
                {
                    resource: fraction * self.capacity[resource]
                    for resource, fraction in zip(RESOURCE_TYPES, fractions)
                }
            )
            node = self.nodes[index]
            (node.inject_pressure if inject else node.remove_pressure)(pressure)

    def check(self, subset):
        for node in self.nodes:
            # Each busy list holds exactly the hosted containers of its
            # partition with nonzero capped demand, once each; contention
            # reads sort it into hosting order, so compare it sorted.
            busy = [
                container
                for container in node.containers
                if any(value != 0.0 for value in _reference_demand(container).values())
            ]
            for busy_list, enforced in (
                (node._busy_best_effort, False),
                (node._busy_enforced, True),
            ):
                assert sorted(busy_list, key=lambda container: container._host_seq) == [
                    container for container in busy if container.partition_enforced == enforced
                ]
            # A busy list is in transition order, which no read may depend
            # on: put both against hosting order before each kind of read.
            _unsort_busy_lists(node)
            for resource in RESOURCE_TYPES:
                expected_pool = _reference_best_effort_pool(node, resource)
                assert node.best_effort_pool(resource) == expected_pool
            _unsort_busy_lists(node)
            assert node.contention_factors() == _reference_contention_factors(node)
            for container in node.containers:
                expected = _reference_contention_factors(node, container)
                assert node.contention_factors(container) == expected
                restricted = {resource: expected[resource] for resource in subset}
                assert node.contention_factors(container, subset) == restricted
        for container in self.containers:
            assert container.total_slowdown() == _reference_total_slowdown(container)
            # The demand reads telemetry samples through.
            expected = _reference_demand(container)
            assert container.current_demand().values == expected
            assert container.usage().values == expected
            demand, utilization = container.demand_and_utilization()
            assert demand == expected
            assert utilization == _reference_utilization(container)
            instance = container.instance
            if instance is not None:
                assert instance.resource_demand().values == _reference_raw_demand(instance)


class TestInvalidationOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_oracle_op, min_size=1, max_size=50),
        st.lists(st.sampled_from(RESOURCE_TYPES), unique=True),
    )
    # Each example leaves a cache stale unless one invalidation runs, so
    # dropping that invalidation fails deterministically.  ``_finish``'s pop
    # with nothing queued behind it:
    @example(ops=[("submit", 0, 1), ("step", 1)], subset=[])
    # Enforcing a best-effort container that has demand:
    @example(ops=[("submit", 0, 1), ("enforce", 0, True)], subset=[])
    # Raising an enforced limit past capacity, which dilutes its guarantee:
    @example(ops=[("submit", 2, 1), ("set_limit", 2, Resource.LLC, 1.5)], subset=[])
    # Evicting a best-effort container that has demand, and placing one:
    @example(ops=[("submit", 0, 2), ("place", 0, None)], subset=[])
    @example(ops=[("submit", 3, 2), ("place", 3, 0)], subset=[])
    # One dispatch that moves several spans into service: raising the CPU
    # quota frees three slots while more spans queue than the new quota, so
    # each move changes demand and must clear it before the next read.
    @example(
        ops=[("cpu", 2, 1.0), ("submit", 2, 8), ("cpu", 2, 4.0), ("submit", 2, 1)],
        subset=[],
    )
    # A finish that frees a slot while more spans queue than the concurrency:
    # the move into service behind it raises the active count again.
    @example(ops=[("submit", 0, 5), ("step", 1)], subset=[])
    # A CPU-limit write while spans are queued: concurrency, and with it the
    # active count, moves without a population write.
    @example(ops=[("cpu", 0, 1.0), ("submit", 0, 4), ("cpu", 0, 3.0)], subset=[])
    # A ``threads`` write on an instance whose table already holds rows: the
    # active count stays 2, but the row at 2 was built against the old cap.
    @example(ops=[("submit", 0, 3), ("step", 1), ("threads", 0, 1)], subset=[])
    # Three best-effort containers on node 0 turn busy against hosting order
    # (3, then 2, then 0); their LLC demands 9.6, 16.0 and 4.8 sum to
    # different floats in the two orders, and the pool runs near saturation,
    # so the pool demand must fold in hosting order.
    @example(
        ops=[
            ("place", 3, 0),
            ("enforce", 2, False),
            ("submit", 3, 4),
            ("submit", 2, 4),
            ("submit", 0, 4),
        ],
        subset=[],
    )
    # The same three enforced, under network pressure: the protected usage
    # that shrinks the pool must fold in hosting order too.
    @example(
        ops=[
            ("place", 3, 0),
            ("enforce", 0, True),
            ("enforce", 3, True),
            ("pressure", 0, True, [0.0, 0.0, 0.0, 0.0, 0.5]),
            ("submit", 3, 2),
            ("submit", 2, 3),
            ("submit", 0, 1),
        ],
        subset=[],
    )
    def test_cached_reads_match_stateless_reference(self, ops, subset):
        cluster = _OracleCluster()
        cluster.check(subset)
        for op in ops:
            cluster.apply(op)
            cluster.check(subset)
