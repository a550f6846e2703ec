"""Benchmark: routing-policy comparison under one anomaly campaign.

Runs the same replicated application + resource-anomaly campaign once per
load-balancing policy (identical seed, arrivals, service times, and
campaign — routing is the only difference) and measures how fast the
harness sweeps the policy set.  Prints per-policy tail latencies so a
policy regression (a load-aware balancer losing its edge over the
load-blind ones) is visible next to the timing.
"""

from __future__ import annotations

import pytest

from conftest import save_result

from repro.experiments.routing import run_routing

pytestmark = [pytest.mark.smoke]

#: Simulated seconds per scenario; one scenario runs per policy.
DURATION_S = 25.0

#: Policy set spanning the design space: the default, a load-blind
#: baseline, the two-probe sampler, and the latency-feedback balancer.
POLICIES = (
    "least_in_flight",
    "round_robin",
    "power_of_two_choices",
    "ewma_latency",
)


def test_bench_routing_policy_comparison(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_routing(
            preset="anomaly",
            policies=POLICIES,
            seed=0,
            duration_s=DURATION_S,
        ),
        rounds=1,
        iterations=1,
    )

    wall_s = benchmark.stats.stats.mean
    scenarios = len(POLICIES)
    sim_rate = scenarios * DURATION_S / wall_s if wall_s > 0 else float("inf")

    print("\n=== Routing policies under one anomaly campaign ===")
    print(f"wall time:       {wall_s:>8.2f} s for {scenarios} x {DURATION_S:.0f} simulated s")
    print(f"simulation rate: {sim_rate:>8.1f} sim-s / wall-s")
    for policy, summary in result.policies.items():
        print(
            f"  {policy:22s} p50={summary['p50_ms']:7.1f} ms "
            f"p99={summary['p99_ms']:8.1f} ms violations={summary['violations']:4.0f}"
        )
    print(f"p99 spread (worst/best): {result.p99_spread():.2f}x")

    save_result(
        results_dir,
        "routing",
        {
            "duration_s": DURATION_S,
            "p99_spread": result.p99_spread(),
            "policies": result.policies,
        },
    )

    # Shape checks: every policy ran the identical scenario and served
    # traffic.  Arrivals are identical across policies; completions within
    # the window may differ by the handful of requests a slower policy
    # leaves in flight at the end, nothing more.
    assert set(result.policies) == set(POLICIES)
    completed = [s["completed"] for s in result.policies.values()]
    assert min(completed) > 0
    assert max(completed) - min(completed) <= 0.01 * max(completed)
    assert result.p99_spread() >= 1.0
