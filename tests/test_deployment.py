"""Unit tests for the deployment module (action validation and actuation)."""

from __future__ import annotations

import pytest

from repro.cluster.instance import SpanWork
from repro.cluster.resources import Resource, ResourceVector
from repro.core.deployment import DeploymentModule


@pytest.fixture
def setup(cluster, engine, cpu_profile, orchestrator):
    instance = cluster.deploy_service(cpu_profile, replicas=1)[0]
    module = DeploymentModule(orchestrator)
    return module, instance, cluster, engine, orchestrator


class TestValidation:
    def test_limits_applied_after_latency(self, setup):
        module, instance, _, engine, _ = setup
        module.apply_limits(instance, ResourceVector.from_kwargs(
            cpu=2.0, memory_bandwidth=5.0, llc=2.0, disk_io=100.0, network=0.5
        ))
        engine.run_until(engine.now + 1.0)
        assert instance.container.limits[Resource.CPU] == pytest.approx(2.0)
        assert instance.container.partition_enforced

    def test_cpu_capped_by_threads(self, setup):
        module, instance, _, engine, _ = setup
        decision = module.apply_limits(instance, ResourceVector.from_kwargs(cpu=100.0))
        assert decision.applied_limits[Resource.CPU] <= instance.profile.threads

    def test_demand_floor_raises_low_requests(self, setup):
        module, instance, _, engine, _ = setup
        # Put work in flight so demand is nonzero, then request a tiny limit.
        for index in range(8):
            instance.submit(SpanWork(lambda *a: None))
        demand = instance.resource_demand()[Resource.CPU]
        decision = module.apply_limits(instance, ResourceVector.from_kwargs(cpu=0.01))
        assert decision.applied_limits[Resource.CPU] >= demand / module.demand_headroom - 1e-9

    def test_demand_floor_disabled(self, setup):
        module, instance, _, engine, orchestrator = setup
        module_no_floor = DeploymentModule(orchestrator, demand_headroom=0.0)
        for index in range(8):
            instance.submit(SpanWork(lambda *a: None))
        decision = module_no_floor.apply_limits(instance, ResourceVector.from_kwargs(cpu=0.01))
        assert decision.applied_limits[Resource.CPU] == pytest.approx(0.01)

    def test_oversubscription_triggers_scale_out(self, setup):
        module, instance, cluster, engine, _ = setup
        capacity = instance.container.node.capacity[Resource.MEMORY_BANDWIDTH]
        decision = module.apply_limits(
            instance, ResourceVector.from_kwargs(memory_bandwidth=capacity * 2)
        )
        assert decision.scaled_out
        engine.run_until(engine.now + 5.0)
        assert len(cluster.replicas_of("cpu-service")) == 2

    def test_within_capacity_no_scale_out(self, setup):
        module, instance, cluster, engine, _ = setup
        decision = module.apply_limits(instance, ResourceVector.from_kwargs(
            cpu=2.0, memory_bandwidth=5.0, llc=2.0, disk_io=100.0, network=0.5
        ))
        assert not decision.scaled_out

    def test_limit_clamped_to_remaining_node_capacity(self, setup):
        module, instance, cluster, engine, _ = setup
        node = instance.container.node
        # Deploy a sibling with large limits on the same node.
        sibling_profile = instance.profile
        sibling = cluster.deploy_service(sibling_profile, replicas=1, node=node)[0]
        sibling.container.set_limit(Resource.MEMORY_BANDWIDTH, node.capacity[Resource.MEMORY_BANDWIDTH] * 0.8)
        decision = module.apply_limits(
            instance,
            ResourceVector.from_kwargs(memory_bandwidth=node.capacity[Resource.MEMORY_BANDWIDTH]),
        )
        available = node.capacity[Resource.MEMORY_BANDWIDTH] * 0.2
        assert decision.applied_limits[Resource.MEMORY_BANDWIDTH] <= available + 1e-6

    def test_decisions_recorded(self, setup):
        module, instance, *_ = setup
        module.apply_limits(instance, ResourceVector.uniform(1.0))
        assert module.last_decision_for(instance.name) is not None
        assert module.last_decision_for("ghost#0") is None

    def test_explicit_scale_out_and_in(self, setup):
        module, instance, cluster, engine, _ = setup
        module.scale_out("cpu-service")
        engine.run_until(engine.now + 5.0)
        assert len(cluster.replicas_of("cpu-service")) == 2
        module.scale_in("cpu-service")
        assert len(cluster.replicas_of("cpu-service")) == 1
