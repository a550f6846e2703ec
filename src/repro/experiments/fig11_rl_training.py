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
    mitigation_time_s: Optional[float]
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

    def mitigation_times(self) -> List[Optional[float]]:
        return [outcome.mitigation_time_s for outcome in self.episodes]

    def improved(self) -> bool:
        """Whether the late-training reward beats the early-training reward."""
        rewards = self.rewards()
        if len(rewards) < 4:
            return False
        half = len(rewards) // 2
        return float(np.mean(rewards[half:])) >= float(np.mean(rewards[:half]))


def mitigation_time_s(times: List[float], violated: bool, window_s: float) -> Optional[float]:
    """One run's SLO mitigation time, the same rule for FIRM and the baselines.

    The mean of the closed violation episodes if any; the whole anomaly
    window if requests violated the SLO but no episode cleared; ``None`` if
    nothing violated the SLO, since there was nothing to mitigate.
    """
    if times:
        return float(np.mean(times))
    return window_s if violated else None


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

    return EpisodeOutcome(
        episode=episode_index,
        total_reward=total_reward,
        mitigation_time_s=mitigation_time_s(
            result.mitigation.mitigation_times_s(),
            result.slo.violations > 0,
            episode_duration_s - anomaly_start,
        ),
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
    """Fig. 11(b): mitigation times of FIRM checkpoints vs the baselines.

    Every time is :func:`mitigation_time_s`, so ``None`` means that run saw
    no violation.  A speedup is ``None`` when either side is (or FIRM's time
    is 0 s): it is undefined, never infinite.
    """

    firm_by_episode: List[Optional[float]]
    #: Mitigation time per baseline controller (``"aimd"``, ``"k8s"``).
    baselines_s: Dict[str, Optional[float]]

    def firm_final(self) -> Optional[float]:
        """FIRM's converged mitigation time (last checkpoint)."""
        return self.firm_by_episode[-1] if self.firm_by_episode else None

    def episodes_without_violation(self) -> int:
        return sum(time is None for time in self.firm_by_episode)

    def speedup(self, baseline: str) -> Optional[float]:
        final, baseline_s = self.firm_final(), self.baselines_s[baseline]
        return None if baseline_s is None or not final else baseline_s / final


def _baseline_mitigation(
    controller: str,
    application: str,
    load_rps: float,
    duration_s: float,
    seed: int,
) -> Optional[float]:
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
    return mitigation_time_s(
        result.mitigation.mitigation_times_s(), result.slo.violations > 0, duration_s - 10.0
    )


def run_fig11b(
    episodes: int = 6,
    application: str = "train_ticket",
    load_rps: float = 40.0,
    duration_s: float = 40.0,
    seed: int = 43,
) -> MitigationComparison:
    """Reproduce Fig. 11(b): mitigation time vs training, plus baselines."""
    curve = train_variant(
        "one_for_all",
        episodes=episodes,
        application=application,
        load_rps=load_rps,
        episode_duration_s=duration_s,
        seed=seed,
    )
    return MitigationComparison(
        firm_by_episode=curve.mitigation_times(),
        baselines_s={
            name: _baseline_mitigation(name, application, load_rps, duration_s, seed)
            for name in ("aimd", "k8s")
        },
    )
