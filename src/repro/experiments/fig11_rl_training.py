"""Fig. 11 — RL training behaviour and SLO-violation mitigation time.

Panel (a): learning curves (moving-average total episode reward) for three
agent variants trained on Train-Ticket — one-for-all (shared), one-for-each
(per-service), and transfer-learning-bootstrapped — where transfer
converges fastest and one-for-all needs the most episodes.

Panel (b): SLO mitigation time of checkpointed policies versus training
episode, converging to ~1.7 s for FIRM and beating the AIMD and Kubernetes
baselines (9.6x and 30.1x in the paper).

Training here runs episodes against the simulated cluster: every episode
injects one random anomaly against the application, the agent acts each
control interval on the localized culprit, and the episode's total reward
and time-to-mitigation are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.core.firm import FIRMConfig
from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.transfer import transfer_agent
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, run_scenario
from repro.sim.rng import SeededRNG


@dataclass
class EpisodeOutcome:
    """Result of one training episode."""

    episode: int
    total_reward: float
    mitigation_time_s: float
    violations: int


@dataclass
class TrainingCurve:
    """Learning curve for one agent variant."""

    variant: str
    episodes: List[EpisodeOutcome] = field(default_factory=list)

    def rewards(self) -> List[float]:
        return [outcome.total_reward for outcome in self.episodes]

    def moving_average_reward(self, window: int = 5) -> List[float]:
        """Moving average of episode rewards (what Fig. 11(a) plots)."""
        rewards = self.rewards()
        if not rewards:
            return []
        averaged = []
        for index in range(len(rewards)):
            start = max(0, index - window + 1)
            averaged.append(float(np.mean(rewards[start : index + 1])))
        return averaged

    def mitigation_times(self) -> List[float]:
        return [outcome.mitigation_time_s for outcome in self.episodes]

    def improved(self) -> bool:
        """Whether the late-training reward beats the early-training reward."""
        rewards = self.rewards()
        if len(rewards) < 4:
            return False
        half = len(rewards) // 2
        return float(np.mean(rewards[half:])) >= float(np.mean(rewards[:half]))


def _training_episode(
    agent: DDPGAgent,
    application: str,
    episode_index: int,
    rng: SeededRNG,
    load_rps: float,
    episode_duration_s: float,
    per_service: bool,
) -> EpisodeOutcome:
    """Run one training episode: one anomaly, FIRM mitigating with ``agent``."""
    from repro.apps.catalog import build_application

    services = build_application(application).service_names()
    target = services[rng.integers("episode-target", 0, len(services))]
    anomaly_types = [a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION]
    anomaly_type = anomaly_types[rng.integers("episode-type", 0, len(anomaly_types))]
    intensity = rng.uniform("episode-intensity", 0.7, 1.0)
    anomaly_start = 10.0
    campaign = AnomalyCampaign(f"episode-{episode_index}")
    campaign.add(
        AnomalySpec(
            anomaly_type=anomaly_type,
            target_service=target,
            start_s=anomaly_start,
            duration_s=episode_duration_s - anomaly_start,
            intensity=intensity,
        )
    )

    config = FIRMConfig(
        control_interval_s=2.0,
        window_s=5.0,
        per_service_agents=per_service,
        train_online=True,
    )
    spec = ScenarioSpec(
        application=application,
        seed=rng.integers("episode-seed", 0, 2**31),
        duration_s=episode_duration_s,
        load_rps=load_rps,
        controller="firm",
        controller_kwargs={"config": config, "shared_agent": agent},
        campaign=campaign,
    )
    harness = ExperimentHarness.from_spec(spec)
    controller = harness.tenants[0].controller
    agent.begin_episode()

    result = harness.run(duration_s=episode_duration_s)

    # Total reward: sum of the environment rewards observed by the controller.
    # The controller stores rewards through the replay buffer; approximate the
    # episode reward by the reward of the final state of each managed env.
    total_reward = 0.0
    for env in controller._environments.values():  # noqa: SLF001 - experiment introspection
        total_reward += env.reward(is_culprit=True)
    # Scale by the number of control rounds so longer successful episodes score higher.
    total_reward *= max(1, len(controller.rounds))

    mitigation_times = result.mitigation.mitigation_times_s()
    mitigation = float(np.mean(mitigation_times)) if mitigation_times else (
        episode_duration_s - anomaly_start if result.slo.violations else 0.0
    )
    return EpisodeOutcome(
        episode=episode_index,
        total_reward=total_reward,
        mitigation_time_s=mitigation,
        violations=result.slo.violations,
    )


def train_variant(
    variant: str,
    episodes: int = 10,
    application: str = "train_ticket",
    load_rps: float = 40.0,
    episode_duration_s: float = 40.0,
    seed: int = 41,
    base_agent: Optional[DDPGAgent] = None,
) -> TrainingCurve:
    """Train one agent variant and return its learning curve.

    Variants: ``one_for_all`` (shared agent), ``one_for_each`` (per-service
    agents trained from scratch), ``transferred`` (per-service agents
    bootstrapped from ``base_agent``).
    """
    rng = SeededRNG(seed)
    if variant == "transferred":
        if base_agent is None:
            base_agent = DDPGAgent(DDPGConfig(seed=seed))
        agent = transfer_agent(base_agent)
    else:
        agent = DDPGAgent(DDPGConfig(seed=seed))
    per_service = variant in ("one_for_each", "transferred")

    curve = TrainingCurve(variant=variant)
    for episode_index in range(episodes):
        outcome = _training_episode(
            agent,
            application,
            episode_index,
            rng.spawn(f"episode-{episode_index}"),
            load_rps,
            episode_duration_s,
            per_service,
        )
        curve.episodes.append(outcome)
    return curve


def run_fig11a(
    episodes: int = 8,
    application: str = "train_ticket",
    seed: int = 41,
    **kwargs,
) -> Dict[str, TrainingCurve]:
    """Reproduce Fig. 11(a): learning curves for the three agent variants."""
    one_for_all = train_variant(
        "one_for_all", episodes=episodes, application=application, seed=seed, **kwargs
    )
    one_for_each = train_variant(
        "one_for_each", episodes=episodes, application=application, seed=seed + 1, **kwargs
    )
    # The transferred variant bootstraps from the trained one-for-all agent.
    base_agent = DDPGAgent(DDPGConfig(seed=seed))
    transferred = train_variant(
        "transferred",
        episodes=episodes,
        application=application,
        seed=seed + 2,
        base_agent=base_agent,
        **kwargs,
    )
    return {
        "one_for_all": one_for_all,
        "one_for_each": one_for_each,
        "transferred": transferred,
    }


@dataclass
class MitigationComparison:
    """Fig. 11(b): mitigation times of FIRM checkpoints vs the baselines."""

    firm_by_episode: List[float]
    aimd_mitigation_s: float
    k8s_mitigation_s: float

    def firm_final(self) -> float:
        """FIRM's converged mitigation time (last checkpoint)."""
        return self.firm_by_episode[-1] if self.firm_by_episode else 0.0

    def speedup_vs_aimd(self) -> float:
        final = self.firm_final()
        return self.aimd_mitigation_s / final if final > 0 else float("inf")

    def speedup_vs_k8s(self) -> float:
        final = self.firm_final()
        return self.k8s_mitigation_s / final if final > 0 else float("inf")


def _baseline_mitigation(
    controller: str,
    application: str,
    load_rps: float,
    duration_s: float,
    seed: int,
) -> float:
    """Measure a baseline's mean SLO mitigation time under a single anomaly."""
    from repro.apps.catalog import build_application

    campaign = AnomalyCampaign("baseline-mitigation")
    campaign.add(
        AnomalySpec(
            anomaly_type=AnomalyType.CPU_UTILIZATION,
            target_service=build_application(application).service_names()[0],
            start_s=10.0,
            duration_s=duration_s - 10.0,
            intensity=0.9,
        )
    )
    spec = ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        controller=controller,
        campaign=campaign,
    )
    result = run_scenario(spec)
    times = result.mitigation.mitigation_times_s()
    return float(np.mean(times)) if times else duration_s - 10.0


def run_fig11b(
    curve: Optional[TrainingCurve] = None,
    episodes: int = 6,
    application: str = "train_ticket",
    load_rps: float = 40.0,
    duration_s: float = 40.0,
    seed: int = 43,
) -> MitigationComparison:
    """Reproduce Fig. 11(b): mitigation time vs training, plus baselines."""
    if curve is None:
        curve = train_variant(
            "one_for_all",
            episodes=episodes,
            application=application,
            load_rps=load_rps,
            episode_duration_s=duration_s,
            seed=seed,
        )
    aimd = _baseline_mitigation("aimd", application, load_rps, duration_s, seed)
    k8s = _baseline_mitigation("k8s", application, load_rps, duration_s, seed)
    return MitigationComparison(
        firm_by_episode=curve.mitigation_times(),
        aimd_mitigation_s=aimd,
        k8s_mitigation_s=k8s,
    )
