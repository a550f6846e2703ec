"""RL environment wrapper around one managed microservice instance.

The environment converts telemetry and tracing observations into the RL
state vector of Table 3 and converts the agent's normalized actions back
into resource limits actuated through the deployment module.

State (8 inputs to the actor):
    SLO violation ratio (SV), workload change (WC), request composition
    (RC, encoded), and per-resource utilization (RU, 5 values).

Action (5 outputs): new resource limits, one per managed resource type,
normalized to [-1, 1] and mapped to each resource's [lower, upper] range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cluster.instance import MicroserviceInstance
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceVector
from repro.core.rl.reward import RewardConfig, compute_reward, slo_violation_ratio
from repro.tracing.coordinator import TracingCoordinator


@dataclass
class RLState:
    """The structured state of Table 3 plus its flat vector form."""

    slo_violation_ratio: float
    workload_change: float
    request_composition: float
    utilization: Dict[Resource, float]

    def as_vector(self) -> np.ndarray:
        """Flatten to the 8-dimensional actor input."""
        values = [
            self.slo_violation_ratio,
            self.workload_change,
            self.request_composition,
        ] + [self.utilization[resource] for resource in RESOURCE_TYPES]
        return np.array(values, dtype=float)


@dataclass
class ResourceBounds:
    """Per-resource action range [lower, upper] for limit setting."""

    lower: ResourceVector
    upper: ResourceVector

    @classmethod
    def default(cls) -> "ResourceBounds":
        """Bounds spanning a small fraction to the node-scale maximum."""
        return cls(
            lower=ResourceVector.from_kwargs(
                cpu=2.0, memory_bandwidth=4.0, llc=2.0, disk_io=100.0, network=0.5
            ),
            upper=ResourceVector.from_kwargs(
                cpu=16.0, memory_bandwidth=40.0, llc=16.0, disk_io=800.0, network=4.0
            ),
        )


class MicroserviceEnvironment:
    """Environment exposing one microservice instance to a DDPG agent.

    Parameters
    ----------
    instance:
        The (critical) microservice instance being managed.
    coordinator:
        Tracing coordinator supplying latency / workload observations.
    slo_latency_ms:
        The SLO applied to this instance's end-to-end request type.
    bounds:
        Action range per resource type.
    observation_window_s:
        Time window used for latency and arrival-rate statistics.
    reward_config:
        Reward weights.
    """

    def __init__(
        self,
        instance: MicroserviceInstance,
        coordinator: TracingCoordinator,
        slo_latency_ms: float,
        bounds: Optional[ResourceBounds] = None,
        observation_window_s: float = 10.0,
        reward_config: Optional[RewardConfig] = None,
    ) -> None:
        self.instance = instance
        self.coordinator = coordinator
        self.slo_latency_ms = float(slo_latency_ms)
        self.bounds = bounds or ResourceBounds.default()
        self.observation_window_s = float(observation_window_s)
        self.reward_config = reward_config or RewardConfig()
        self._previous_arrival_rate: Optional[float] = None

    # ------------------------------------------------------------ observation
    def observe(self, is_culprit: bool = True) -> RLState:
        """Build the Table-3 state from current telemetry and traces."""
        current_latency = self.coordinator.latency_percentile_ms(
            99.0, self.observation_window_s
        )
        if is_culprit:
            sv = slo_violation_ratio(self.slo_latency_ms, current_latency)
        else:
            sv = 1.0

        arrival_rate = self.coordinator.arrival_rate(self.observation_window_s)
        if self._previous_arrival_rate is None or self._previous_arrival_rate <= 0:
            wc = 1.0
        else:
            wc = arrival_rate / self._previous_arrival_rate
        self._previous_arrival_rate = arrival_rate

        rc = self._encode_request_composition(
            self.coordinator.request_composition(self.observation_window_s)
        )

        utilization = self.instance.utilization()
        util_map = {resource: float(utilization[resource]) for resource in RESOURCE_TYPES}
        return RLState(
            slo_violation_ratio=sv,
            workload_change=min(wc, 4.0) / 4.0,
            request_composition=rc,
            utilization=util_map,
        )

    @staticmethod
    def _encode_request_composition(composition: Dict[str, float]) -> float:
        """Encode the request-type mix into a single scalar in [0, 1].

        The paper encodes the percentage array with
        ``numpy.ravel_multi_index``; we use an equivalent deterministic
        encoding: quantize each fraction to 10 bins and ravel the bins into
        a single index, normalized by the index space size.
        """
        if not composition:
            return 0.0
        fractions = [composition[key] for key in sorted(composition)]
        bins = np.minimum((np.array(fractions) * 10).astype(int), 9)
        dims = tuple([10] * len(bins))
        index = int(np.ravel_multi_index(tuple(int(b) for b in bins), dims))
        max_index = int(np.prod(dims)) - 1
        return index / max_index if max_index > 0 else 0.0

    # ----------------------------------------------------------------- action
    def action_to_limits(self, action: np.ndarray) -> ResourceVector:
        """Map a normalized action in [-1, 1]^5 to absolute resource limits."""
        action = np.clip(np.asarray(action, dtype=float).reshape(-1), -1.0, 1.0)
        if action.shape[0] != len(RESOURCE_TYPES):
            raise ValueError(
                f"expected {len(RESOURCE_TYPES)} action dimensions, got {action.shape[0]}"
            )
        limits: Dict[Resource, float] = {}
        for index, resource in enumerate(RESOURCE_TYPES):
            low = self.bounds.lower[resource]
            high = self.bounds.upper[resource]
            fraction = (action[index] + 1.0) / 2.0
            limits[resource] = low + fraction * (high - low)
        return ResourceVector(limits)

    # ----------------------------------------------------------------- reward
    def reward(self, is_culprit: bool = True) -> float:
        """Compute the current reward for the managed instance."""
        state = self.observe(is_culprit=is_culprit)
        utilizations = [state.utilization[resource] for resource in RESOURCE_TYPES]
        return compute_reward(state.slo_violation_ratio, utilizations, self.reward_config)
