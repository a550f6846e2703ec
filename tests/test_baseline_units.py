"""Unit tests for baseline controller configuration and formulas."""

from __future__ import annotations

import pytest

from repro.baselines.aimd import AIMDConfig, AIMDController
from repro.baselines.kubernetes_hpa import HPAConfig, KubernetesAutoscaler
from repro.cluster.instance import SpanWork
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.resources import RESOURCE_TYPES, Resource
from repro.tracing.coordinator import TracingCoordinator


@pytest.fixture
def wiring(cluster, engine, rng, cpu_profile):
    cluster.deploy_service(cpu_profile, replicas=2)
    coordinator = TracingCoordinator(engine)
    coordinator.register_slo("main", 100.0)
    orchestrator = Orchestrator(cluster, engine, rng)
    return cluster, coordinator, orchestrator, engine


class TestHPAConfig:
    def test_defaults(self):
        config = HPAConfig()
        assert config.target_cpu_utilization == pytest.approx(0.5)
        assert config.min_replicas == 1
        assert config.max_replicas >= config.min_replicas
        assert config.max_step >= 1

    def test_default_interval_is_thirty_seconds(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        hpa = KubernetesAutoscaler(cluster, coordinator, orchestrator, engine)
        assert hpa.control_interval_s == pytest.approx(30.0)

    def test_no_scaling_inside_tolerance(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        hpa = KubernetesAutoscaler(
            cluster, coordinator, orchestrator, engine,
            config=HPAConfig(target_cpu_utilization=0.0001, tolerance=1e9),
        )
        before = len(cluster.replicas_of("cpu-service"))
        hpa.control_round()
        assert len(cluster.replicas_of("cpu-service")) == before

    def test_scale_in_when_idle(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        hpa = KubernetesAutoscaler(cluster, coordinator, orchestrator, engine)
        hpa.control_round()
        # Idle replicas: utilization ~0 -> desired replicas shrink toward the minimum,
        # at most max_step at a time.
        assert len(cluster.replicas_of("cpu-service")) == 1

    def test_scale_out_capped_by_max_step(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        instances = cluster.replicas_of("cpu-service")
        for instance in instances:
            for index in range(50):
                instance.submit(SpanWork(lambda *a: None))
        hpa = KubernetesAutoscaler(
            cluster, coordinator, orchestrator, engine,
            config=HPAConfig(target_cpu_utilization=0.01, max_step=1),
        )
        hpa.control_round()
        engine.run_until(engine.now + 5.0)
        # Started with 2, grew by at most max_step.
        assert len(cluster.replicas_of("cpu-service")) == 3


class TestAIMDConfig:
    def test_defaults(self):
        config = AIMDConfig()
        assert 0.0 < config.multiplicative_decrease < 1.0
        assert config.additive_increase > 0.0
        assert all(config.floor[resource] > 0 for resource in RESOURCE_TYPES)

    def test_never_increases_without_violation_signal(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        aimd = AIMDController(cluster, coordinator, orchestrator, engine)
        before = {c.id: c.limits[Resource.CPU] for c in cluster.all_containers()}
        aimd.control_round()
        engine.run_until(engine.now + 1.0)
        after = {c.id: c.limits[Resource.CPU] for c in cluster.all_containers()}
        # Without any violation the additive-increase branch must not fire;
        # an idle cluster may be (multiplicatively) scaled down.
        assert all(after[cid] <= before[cid] for cid in before)

    def test_additive_increase_on_violation(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        trace = coordinator.begin_trace("r1", "main", arrival_time=engine.now)
        engine.run_until(engine.now + 10.0)
        coordinator.complete_trace(trace, engine.now)  # gross violation
        engine.run_until(engine.now + 1.0)
        aimd = AIMDController(cluster, coordinator, orchestrator, engine)
        before = cluster.all_containers()[0].limits[Resource.CPU]
        aimd.control_round()
        engine.run_until(engine.now + 1.0)
        after = cluster.all_containers()[0].limits[Resource.CPU]
        assert after > before

    def test_multiplicative_decrease_when_comfortable(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        trace = coordinator.begin_trace("r1", "main", arrival_time=engine.now)
        coordinator.complete_trace(trace, engine.now + 0.001)  # 1 ms, far inside SLO
        engine.run_until(engine.now + 1.0)
        aimd = AIMDController(cluster, coordinator, orchestrator, engine)
        before = cluster.all_containers()[0].limits[Resource.CPU]
        aimd.control_round()
        engine.run_until(engine.now + 1.0)
        after = cluster.all_containers()[0].limits[Resource.CPU]
        assert after < before

    def test_floor_respected(self, wiring):
        cluster, coordinator, orchestrator, engine = wiring
        config = AIMDConfig(multiplicative_decrease=0.01)
        aimd = AIMDController(cluster, coordinator, orchestrator, engine, config=config)
        trace = coordinator.begin_trace("r1", "main", arrival_time=engine.now)
        coordinator.complete_trace(trace, engine.now + 0.001)
        engine.run_until(engine.now + 1.0)
        for _ in range(10):
            aimd.control_round()
            engine.run_until(engine.now + 1.0)
        for container in cluster.all_containers():
            for resource in RESOURCE_TYPES:
                assert container.limits[resource] >= config.floor[resource] - 1e-9
