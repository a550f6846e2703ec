"""Unit tests for replay buffer, exploration noise, reward, and transfer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.noise import OrnsteinUhlenbeckNoise
from repro.core.rl.replay_buffer import ReplayBuffer, Transition
from repro.core.rl.reward import RewardConfig, compute_reward, slo_violation_ratio
from repro.core.rl.transfer import transfer_agent


class TestReplayBuffer:
    def test_push_and_len(self):
        buffer = ReplayBuffer(capacity=10)
        buffer.push(np.zeros(3), np.zeros(2), 1.0, np.zeros(3))
        assert len(buffer) == 1

    def test_capacity_eviction(self):
        buffer = ReplayBuffer(capacity=5)
        for index in range(12):
            buffer.push(np.full(2, index), np.zeros(1), float(index), np.zeros(2))
        assert len(buffer) == 5
        assert buffer.is_full

    def test_sample_shapes(self):
        buffer = ReplayBuffer(capacity=100, seed=1)
        for index in range(20):
            buffer.push(np.zeros(4), np.zeros(3), 0.5, np.ones(4), done=bool(index % 2))
        states, actions, rewards, next_states, dones = buffer.sample(8)
        assert states.shape == (8, 4)
        assert actions.shape == (8, 3)
        assert rewards.shape == (8,)
        assert next_states.shape == (8, 4)
        assert dones.shape == (8,)

    def test_sample_more_than_stored_raises(self):
        buffer = ReplayBuffer(capacity=10)
        buffer.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            buffer.sample(5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_clear(self):
        buffer = ReplayBuffer(capacity=10)
        buffer.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(2))
        buffer.clear()
        assert len(buffer) == 0

    def test_transitions_preserved(self):
        buffer = ReplayBuffer(capacity=10, seed=0)
        buffer.add(Transition(np.array([1.0]), np.array([2.0]), 3.0, np.array([4.0]), True))
        states, actions, rewards, next_states, dones = buffer.sample(1)
        assert states[0, 0] == 1.0
        assert actions[0, 0] == 2.0
        assert rewards[0] == 3.0
        assert dones[0] == 1.0


class TestNoise:
    def test_ou_noise_shape_and_determinism(self):
        a = OrnsteinUhlenbeckNoise(size=5, seed=3)
        b = OrnsteinUhlenbeckNoise(size=5, seed=3)
        np.testing.assert_allclose(a.sample(), b.sample())
        assert a.sample().shape == (5,)

    def test_ou_noise_reset(self):
        noise = OrnsteinUhlenbeckNoise(size=3, mu=0.0, seed=0)
        noise.sample()
        noise.reset()
        assert np.allclose(noise._state, 0.0)

    def test_ou_noise_mean_reversion(self):
        noise = OrnsteinUhlenbeckNoise(size=1, mu=0.0, theta=0.5, sigma=0.05, seed=0)
        samples = [noise.sample()[0] for _ in range(2000)]
        assert abs(np.mean(samples)) < 0.2

    def test_scaled_sample(self):
        noise = OrnsteinUhlenbeckNoise(size=2, seed=1)
        assert np.allclose(noise.scaled_sample(0.0), 0.0)


class TestReward:
    def test_reward_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=1.5)
        with pytest.raises(ValueError):
            RewardConfig(num_resources=0)

    def test_reward_increases_with_slo_compliance(self):
        low = compute_reward(0.2, [0.5] * 5)
        high = compute_reward(1.0, [0.5] * 5)
        assert high > low

    def test_reward_increases_with_utilization(self):
        low = compute_reward(1.0, [0.1] * 5)
        high = compute_reward(1.0, [0.9] * 5)
        assert high > low

    def test_reward_formula(self):
        config = RewardConfig(alpha=0.5, num_resources=5)
        value = compute_reward(0.8, [0.5] * 5, config)
        assert value == pytest.approx(0.5 * 0.8 * 5 + 0.5 * 2.5)

    def test_reward_clips_inputs(self):
        assert compute_reward(5.0, [2.0] * 5) == compute_reward(1.0, [1.0] * 5)

    def test_slo_violation_ratio_no_violation(self):
        assert slo_violation_ratio(200.0, 100.0) == 1.0

    def test_slo_violation_ratio_violation(self):
        assert slo_violation_ratio(100.0, 400.0) == pytest.approx(0.25)

    def test_slo_violation_ratio_no_traffic(self):
        assert slo_violation_ratio(100.0, 0.0) == 1.0


class TestTransfer:
    def test_transfer_copies_policy(self):
        source = DDPGAgent(DDPGConfig(seed=1))
        state = np.random.default_rng(0).normal(size=8)
        transferred = transfer_agent(source)
        np.testing.assert_allclose(
            transferred.act(state, explore=False), source.act(state, explore=False)
        )

    def test_transfer_reduces_exploration(self):
        source = DDPGAgent(DDPGConfig(seed=1))
        transferred = transfer_agent(source, exploration_scale=0.3)
        assert transferred.exploration_scale == pytest.approx(0.3)
        assert transferred.exploration_scale < source.exploration_scale

    def test_transfer_dimension_mismatch_rejected(self):
        source = DDPGAgent(DDPGConfig(seed=1))
        with pytest.raises(ValueError):
            transfer_agent(source, config=DDPGConfig(state_dim=4))

    def test_transfer_keep_replay(self):
        source = DDPGAgent(DDPGConfig(seed=1))
        source.remember(np.zeros(8), np.zeros(5), 1.0, np.zeros(8))
        transferred = transfer_agent(source, keep_replay=True)
        assert len(transferred.replay_buffer) == 1

    def test_transfer_without_replay(self):
        source = DDPGAgent(DDPGConfig(seed=1))
        source.remember(np.zeros(8), np.zeros(5), 1.0, np.zeros(8))
        transferred = transfer_agent(source)
        assert len(transferred.replay_buffer) == 0

    def test_transferred_agent_trains_independently(self):
        source = DDPGAgent(DDPGConfig(seed=1, batch_size=4))
        transferred = transfer_agent(source, config=DDPGConfig(seed=2, batch_size=4))
        rng = np.random.default_rng(0)
        for _ in range(10):
            transferred.remember(rng.normal(size=8), rng.normal(size=5), 1.0, rng.normal(size=8))
        assert transferred.train_step() is not None
        state = rng.normal(size=8)
        # After training the transferred policy has diverged from the source.
        assert not np.allclose(
            transferred.act(state, explore=False), source.act(state, explore=False)
        )
