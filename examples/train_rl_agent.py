#!/usr/bin/env python3
"""Train FIRM's DDPG resource estimator and inspect the learning curve.

Reproduces a miniature Fig. 11(a)/(b): trains the shared ("one-for-all")
agent on the Train-Ticket benchmark with per-episode anomaly injections,
prints the reward trend and the mitigation time per episode, and then
bootstraps a per-service agent from it via transfer learning.

Usage::

    python examples/train_rl_agent.py [--episodes 6]
"""

from __future__ import annotations

import argparse

from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.transfer import transfer_agent
from repro.experiments.fig11_rl_training import train_variant


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=6, help="training episodes")
    parser.add_argument("--application", default="train_ticket", help="benchmark application")
    args = parser.parse_args()

    print(f"Training the one-for-all agent on {args.application} for {args.episodes} episodes ...")
    curve = train_variant(
        "one_for_all",
        episodes=args.episodes,
        application=args.application,
        load_rps=35.0,
        episode_duration_s=35.0,
    )

    print(f"\n{'episode':>8} {'total reward':>13} {'mitigation (s)':>15} {'violations':>11}")
    for outcome in curve.episodes:
        # No mitigation time when the episode saw no violation.
        time = outcome.mitigation_time_s
        mitigation = "-" if time is None else f"{time:.1f}"
        print(
            f"{outcome.episode:>8} {outcome.total_reward:>13.1f} "
            f"{mitigation:>15} {outcome.violations:>11}"
        )
    moving = curve.moving_average_reward()
    print(f"\nmoving-average reward: {' '.join(f'{r:.1f}' for r in moving)}")
    print(f"reward improved over training: {curve.improved()}")

    # Transfer the trained policy into a fresh per-service agent.
    source = DDPGAgent(DDPGConfig(seed=0))
    specialized = transfer_agent(source, exploration_scale=0.3)
    print(
        "\nTransfer learning: specialized agent initialized from the shared policy "
        f"(exploration scale {specialized.exploration_scale:.2f} vs {source.exploration_scale:.2f})."
    )


if __name__ == "__main__":
    main()
