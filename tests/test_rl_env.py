"""Unit tests for the RL environment wrapper (state, actions, reward)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.resources import RESOURCE_TYPES, Resource
from repro.core.rl.env import MicroserviceEnvironment, ResourceBounds
from repro.tracing.coordinator import TracingCoordinator


@pytest.fixture
def environment(cluster, engine, cpu_profile):
    instance = cluster.deploy_service(cpu_profile, replicas=1)[0]
    coordinator = TracingCoordinator(engine)
    coordinator.register_slo("main", 100.0)
    env = MicroserviceEnvironment(instance, coordinator, slo_latency_ms=100.0)
    return env, coordinator, instance, engine


class TestState:
    def test_state_vector_has_eight_dimensions(self, environment):
        env, *_ = environment
        assert env.observe().as_vector().shape == (8,)

    def test_state_defaults_when_no_traffic(self, environment):
        env, *_ = environment
        state = env.observe()
        assert state.slo_violation_ratio == 1.0
        assert state.workload_change == pytest.approx(0.25)  # ratio 1.0 scaled by /4

    def test_sv_drops_under_violation(self, environment):
        env, coordinator, _, engine = environment
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.4)  # 400 ms >> 100 ms SLO
        engine.run_until(1.0)
        state = env.observe(is_culprit=True)
        assert state.slo_violation_ratio < 0.5

    def test_sv_stays_one_for_non_culprit(self, environment):
        env, coordinator, _, engine = environment
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.4)
        engine.run_until(1.0)
        assert env.observe(is_culprit=False).slo_violation_ratio == 1.0

    def test_workload_change_tracks_rate_ratio(self, environment):
        env, coordinator, _, engine = environment
        for index in range(5):
            coordinator.begin_trace(f"a{index}", "main", arrival_time=0.0)
        engine.run_until(1.0)
        env.observe()
        for index in range(20):
            coordinator.begin_trace(f"b{index}", "main", arrival_time=engine.now)
        engine.run_until(2.0)
        state = env.observe()
        assert state.workload_change > 0.25  # rate increased

    def test_request_composition_encoding_deterministic(self):
        encode = MicroserviceEnvironment._encode_request_composition
        a = encode({"x": 0.5, "y": 0.5})
        b = encode({"x": 0.5, "y": 0.5})
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_request_composition_empty_is_zero(self):
        assert MicroserviceEnvironment._encode_request_composition({}) == 0.0

    def test_request_composition_distinguishes_mixes(self):
        encode = MicroserviceEnvironment._encode_request_composition
        assert encode({"x": 0.9, "y": 0.1}) != encode({"x": 0.1, "y": 0.9})

    def test_utilization_in_state(self, environment):
        env, _, instance, _ = environment
        instance.submit("r1", "cpu-service", lambda *a: None)
        state = env.observe()
        assert state.utilization[Resource.CPU] > 0.0


class TestActions:
    def test_action_to_limits_bounds(self, environment):
        env, *_ = environment
        low = env.action_to_limits(np.full(5, -1.0))
        high = env.action_to_limits(np.full(5, 1.0))
        for resource in RESOURCE_TYPES:
            assert low[resource] == pytest.approx(env.bounds.lower[resource])
            assert high[resource] == pytest.approx(env.bounds.upper[resource])

    def test_action_midpoint(self, environment):
        env, *_ = environment
        mid = env.action_to_limits(np.zeros(5))
        for resource in RESOURCE_TYPES:
            expected = 0.5 * (env.bounds.lower[resource] + env.bounds.upper[resource])
            assert mid[resource] == pytest.approx(expected)

    def test_action_clipped(self, environment):
        env, *_ = environment
        limits = env.action_to_limits(np.full(5, 10.0))
        assert limits[Resource.CPU] == pytest.approx(env.bounds.upper[Resource.CPU])

    def test_wrong_action_dimension_rejected(self, environment):
        env, *_ = environment
        with pytest.raises(ValueError):
            env.action_to_limits(np.zeros(3))

    def test_limits_to_action_roundtrip(self, environment):
        env, *_ = environment
        action = np.array([0.2, -0.4, 0.6, 0.0, -1.0])
        limits = env.action_to_limits(action)
        recovered = env.limits_to_action(limits)
        np.testing.assert_allclose(recovered, action, atol=1e-9)

    def test_default_bounds_ordering(self):
        bounds = ResourceBounds.default()
        assert bounds.upper.dominates(bounds.lower)


class TestReward:
    def test_reward_positive(self, environment):
        env, *_ = environment
        assert env.reward() > 0.0

    def test_reward_lower_under_violation(self, environment):
        env, coordinator, _, engine = environment
        healthy = env.reward()
        trace = coordinator.begin_trace("r1", "main", arrival_time=engine.now)
        engine.run_until(engine.now + 10.0)
        coordinator.complete_trace(trace, engine.now)
        engine.run_until(engine.now + 1.0)
        violating = env.reward()
        assert violating < healthy
