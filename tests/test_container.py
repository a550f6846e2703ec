"""Unit tests for the container model (limits, demand, slowdown)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile, SpanWork
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceLimits, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG


@pytest.fixture
def cpu_instance(engine, rng):
    """A CPU-bound instance on its own node."""
    node = Node(NodeSpec(name="n0"))
    profile = ServiceProfile(
        name="svc",
        base_service_time_ms=5.0,
        resource_weights={Resource.CPU: 1.0},
        demand_per_request=ResourceVector.from_kwargs(cpu=1.0),
        threads=8,
    )
    container = Container(profile.name, limits=ResourceLimits.from_kwargs(
        cpu=4.0, memory_bandwidth=10.0, llc=4.0, disk_io=200.0, network=1.0
    ))
    node.add_container(container)
    instance = MicroserviceInstance(profile, container, engine, rng)
    return instance


class TestLimits:
    def test_default_limits_applied(self):
        container = Container("svc")
        assert container.limits[Resource.CPU] > 0

    def test_unique_ids(self):
        a = Container("svc")
        b = Container("svc")
        assert a.id != b.id

    def test_effective_cpu_limit_capped_by_threads(self):
        container = Container("svc", limits=ResourceLimits.from_kwargs(cpu=100.0), threads=4)
        assert container.effective_cpu_limit() == 4.0

    def test_effective_cpu_limit_not_raised_by_threads(self):
        container = Container("svc", limits=ResourceLimits.from_kwargs(cpu=2.0), threads=16)
        assert container.effective_cpu_limit() == 2.0

    def test_set_limit_clamps_negative(self):
        container = Container("svc")
        container.set_limit(Resource.CPU, -5.0)
        assert container.limits[Resource.CPU] == 0.0

    def test_set_limits_replaces_all(self):
        container = Container("svc")
        container.set_limits(ResourceVector.uniform(2.0))
        assert all(container.limits[resource] == 2.0 for resource in container.limits)

    def test_limits_are_copied_not_shared(self):
        limits = ResourceLimits.from_kwargs(cpu=2.0)
        container = Container("svc", limits=limits)
        limits[Resource.CPU] = 99.0
        assert container.limits[Resource.CPU] == 2.0

    def test_partition_not_enforced_by_default(self):
        assert Container("svc").partition_enforced is False


class TestDemandAndUtilization:
    def test_no_instance_no_demand(self):
        container = Container("svc")
        assert container.current_demand().total() == 0.0

    def test_demand_grows_with_in_flight_work(self, cpu_instance):
        idle_demand = cpu_instance.container.current_demand()[Resource.CPU]
        cpu_instance.submit(SpanWork(lambda *a: None))
        busy_demand = cpu_instance.container.current_demand()[Resource.CPU]
        assert busy_demand > idle_demand

    def test_demand_capped_by_limit(self, cpu_instance):
        for index in range(100):
            cpu_instance.submit(SpanWork(lambda *a: None))
        demand = cpu_instance.container.current_demand()[Resource.CPU]
        assert demand <= cpu_instance.container.effective_cpu_limit() + 1e-9

    def test_utilization_between_zero_and_demand_ratio(self, cpu_instance):
        cpu_instance.submit(SpanWork(lambda *a: None))
        utilization = cpu_instance.container.utilization()[Resource.CPU]
        assert 0.0 < utilization <= 1.0

    def test_usage_matches_demand_shape(self, cpu_instance):
        cpu_instance.submit(SpanWork(lambda *a: None))
        usage = cpu_instance.container.usage()
        demand = cpu_instance.container.current_demand()
        assert usage[Resource.CPU] == pytest.approx(demand[Resource.CPU])


class TestSlowdown:
    def test_no_work_no_slowdown(self, cpu_instance):
        assert cpu_instance.container.total_slowdown() == pytest.approx(1.0)

    def test_throttle_when_demand_exceeds_limit(self, engine, rng):
        node = Node(NodeSpec(name="n0"))
        profile = ServiceProfile(
            name="tight",
            resource_weights={Resource.CPU: 1.0},
            demand_per_request=ResourceVector.from_kwargs(cpu=2.0),
            threads=8,
        )
        container = Container("tight", limits=ResourceLimits.from_kwargs(cpu=1.0))
        node.add_container(container)
        instance = MicroserviceInstance(profile, container, engine, rng)
        for index in range(4):
            instance.submit(SpanWork(lambda *a: None))
        assert container.throttle_factor() > 1.5

    def test_node_pressure_slows_unprotected_container(self, cpu_instance):
        node = cpu_instance.container.node
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.9 * node.capacity[Resource.CPU]))
        cpu_instance.submit(SpanWork(lambda *a: None))
        assert cpu_instance.container.node_contention_factor() > 2.0

    def test_enforced_partition_isolates_from_pressure(self, cpu_instance):
        node = cpu_instance.container.node
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.9 * node.capacity[Resource.CPU]))
        cpu_instance.submit(SpanWork(lambda *a: None))
        before = cpu_instance.container.total_slowdown()
        cpu_instance.container.partition_enforced = True
        after = cpu_instance.container.total_slowdown()
        assert after < before

    def test_insensitive_resource_pressure_has_no_effect(self, cpu_instance):
        node = cpu_instance.container.node
        node.inject_pressure(
            ResourceVector.from_kwargs(disk_io=0.95 * node.capacity[Resource.DISK_IO])
        )
        cpu_instance.submit(SpanWork(lambda *a: None))
        # The service has no disk-I/O weight, so disk pressure must not slow it.
        assert cpu_instance.container.total_slowdown() == pytest.approx(
            cpu_instance.container.throttle_factor(), rel=0.01
        )

    def test_total_slowdown_at_least_one(self, cpu_instance):
        assert cpu_instance.container.total_slowdown() >= 1.0

    def test_total_slowdown_does_not_double_count(self, engine, rng):
        """max-combination: cap and node factors on the same resource do not multiply."""
        node = Node(NodeSpec(name="n0"))
        profile = ServiceProfile(
            name="svc",
            resource_weights={Resource.CPU: 1.0},
            demand_per_request=ResourceVector.from_kwargs(cpu=2.0),
        )
        container = Container("svc", limits=ResourceLimits.from_kwargs(cpu=1.0))
        node.add_container(container)
        instance = MicroserviceInstance(profile, container, engine, rng)
        for index in range(4):
            instance.submit(SpanWork(lambda *a: None))
        total = container.total_slowdown()
        throttle = container.throttle_factor()
        contention = container.node_contention_factor()
        assert total <= throttle * contention + 1e-9
        assert total >= max(throttle, contention) - 1e-9


# ----------------------------------------------------------------------------
# Reference copy of the five-resource ``total_slowdown`` formula the fused,
# weighted-resources-only pass replaced.  The two must agree bit for bit.


def _reference_total_slowdown(container):
    if container.instance is None:
        return 1.0
    cap = container._cap_factors()
    node = container.node
    if node is not None:
        node_factors = node.contention_factors(container)
    else:
        node_factors = {resource: 1.0 for resource in RESOURCE_TYPES}
    profile = container.instance.profile.resource_weights
    slowdown = 1.0
    for resource in RESOURCE_TYPES:
        weight = profile.get(resource, 0.0)
        factor = max(cap[resource], node_factors[resource])
        slowdown = max(slowdown, 1.0 + (factor - 1.0) * weight)
    return slowdown


_DEMAND_PER_REQUEST = ResourceVector.from_kwargs(
    cpu=1.5, memory_bandwidth=9.0, llc=4.0, disk_io=150.0, network=0.8
)

_fraction = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5))

_slowdown_container = st.fixed_dictionaries(
    {
        # Zero weights and missing keys both leave a resource unweighted.
        "weights": st.dictionaries(
            st.sampled_from(RESOURCE_TYPES),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        ),
        # Limits as fractions of node capacity, plus an optional CPU limit of
        # a few cores at most so spans queue behind the ones in service.
        "limits": st.lists(_fraction, min_size=5, max_size=5),
        "cpu_cores": st.one_of(st.none(), st.floats(min_value=0.0, max_value=3.0)),
        "enforced": st.booleans(),
        "hosted": st.booleans(),
        # None: a bare container with no instance.
        "spans": st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    }
)


def _build_slowdown_node(draws, pressure):
    node = Node(NodeSpec(name="prop-node"))
    engine = SimulationEngine()
    rng = SeededRNG(11)
    containers = []
    for index, draw in enumerate(draws):
        values = {
            resource: fraction * node.capacity[resource]
            for resource, fraction in zip(RESOURCE_TYPES, draw["limits"])
        }
        if draw["cpu_cores"] is not None:
            values[Resource.CPU] = draw["cpu_cores"]
        container = Container(f"svc{index}", limits=ResourceLimits(values))
        if draw["hosted"]:
            node.add_container(container)
        if draw["spans"] is not None:
            profile = ServiceProfile(
                name=f"svc{index}",
                resource_weights=draw["weights"],
                demand_per_request=_DEMAND_PER_REQUEST,
            )
            instance = MicroserviceInstance(profile, container, engine, rng)
            for span in range(draw["spans"]):
                instance.submit(SpanWork(lambda *a: None))
        container.partition_enforced = draw["enforced"]
        containers.append(container)
    node.inject_pressure(
        ResourceVector(
            {
                resource: fraction * node.capacity[resource]
                for resource, fraction in zip(RESOURCE_TYPES, pressure)
            }
        )
    )
    return node, containers


class TestFusedSlowdownEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_slowdown_container, min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=5, max_size=5),
        st.lists(st.sampled_from(RESOURCE_TYPES), unique=True),
    )
    def test_matches_five_resource_reference(self, draws, pressure, subset):
        node, containers = _build_slowdown_node(draws, pressure)
        for container in containers:
            assert container.total_slowdown() == _reference_total_slowdown(container)
        for subject in [None, *node.containers]:
            full = node.contention_factors(subject)
            restricted = {resource: full[resource] for resource in subset}
            assert node.contention_factors(subject, subset) == restricted


# ----------------------------------------------------------------------------
# Demand-row guards: a span builds a demand row only at an active count its
# instance has not seen since the last limit write, a limit write builds one
# row, and an enforced call re-sums no reservation until the node's partition
# layout changes.


class TestSlowdownDemandReads:
    @pytest.fixture
    def mixed_node(self, engine, rng):
        """10 best-effort and 10 enforced instances, every resource weighted."""
        node = Node(NodeSpec(name="n0"))
        profile = ServiceProfile(
            name="svc",
            resource_weights=dict.fromkeys(RESOURCE_TYPES, 0.5),
            demand_per_request=_DEMAND_PER_REQUEST,
        )
        for index in range(20):
            container = Container(f"svc{index}")
            node.add_container(container)
            instance = MicroserviceInstance(profile, container, engine, rng)
            instance.submit(SpanWork(lambda *a: None))
            container.partition_enforced = index % 2 == 1
        return node

    @pytest.fixture
    def row_builds(self, monkeypatch):
        """``(instance, active)`` for every demand row built, in order."""
        built = []
        original = MicroserviceInstance._build_demand_row

        def counted(instance, active):
            built.append((instance, active))
            return original(instance, active)

        monkeypatch.setattr(MicroserviceInstance, "_build_demand_row", counted)
        return built

    @staticmethod
    def _two_core_instance(engine, rng):
        container = Container("svc", limits=ResourceLimits.from_kwargs(cpu=2.0))
        Node(NodeSpec(name="n1")).add_container(container)
        profile = ServiceProfile(name="svc", demand_per_request=_DEMAND_PER_REQUEST)
        return MicroserviceInstance(profile, container, engine, rng)

    def test_seen_active_counts_build_no_row(self, mixed_node, engine, row_builds):
        # Every instance has been at 0 and 1 active since its last limit write.
        engine.run()
        for container in mixed_node.containers:
            container.instance.submit(SpanWork(lambda *a: None))
            container.total_slowdown()
        engine.run()
        assert row_builds == []

    def test_dispatch_at_unchanged_active_count_builds_nothing(self, engine, rng, row_builds):
        instance = self._two_core_instance(engine, rng)
        row_builds.clear()
        for span in range(5):
            instance.submit(SpanWork(lambda *a: None))
        # Each append to an idle slot moves straight into service at the same
        # count; the last append's count (2 in service + 2 queued) was seen.
        assert [active for _, active in row_builds] == [1, 2, 3, 4]
        assert (instance.in_service, instance.queue_length) == (2, 3)
        # A finish pops to 1 + 2 = 3 and its dispatch moves back to 2 + 2 = 4.
        engine.step()
        assert (instance.in_service, instance.queue_length) == (2, 2)
        assert len(row_builds) == 4

    def test_set_limit_makes_next_transition_build_one_row(
        self, mixed_node, engine, row_builds
    ):
        changed = mixed_node.containers[0]
        changed.set_limit(Resource.CPU, 0.5)
        assert row_builds == [(changed.instance, 1)]
        assert changed._capped_demand[Resource.CPU] == 0.5
        engine.run()
        # Every instance finishes its span; only the changed one had its
        # table emptied, so only it builds the row for 0 active.
        assert row_builds == [(changed.instance, 1), (changed.instance, 0)]

    def test_set_limits_builds_one_row(self, mixed_node, row_builds):
        container = mixed_node.containers[0]
        container.set_limits(container.limits * 0.5)
        assert row_builds == [(container.instance, 1)]
        assert container.limits[Resource.CPU] == 4.0

    def test_enforced_calls_skip_reservation_between_layout_changes(
        self, mixed_node, monkeypatch
    ):
        summed = []
        original = Node._reservation

        def counted(enforced_limits, resource):
            summed.append(resource)
            return original(enforced_limits, resource)

        monkeypatch.setattr(Node, "_reservation", staticmethod(counted))
        enforced = next(c for c in mixed_node.containers if c.partition_enforced)
        enforced.total_slowdown()
        summed.clear()
        for _ in range(10):
            enforced.total_slowdown()
        assert summed == []
        # A limit write clears the layout; the next call rebuilds it once.
        enforced.set_limit(Resource.CPU, enforced.limits[Resource.CPU])
        enforced.total_slowdown()
        enforced.total_slowdown()
        assert sorted(summed) == sorted(RESOURCE_TYPES)
