"""Fig. 10 — end-to-end performance: FIRM vs AIMD vs Kubernetes autoscaling.

Three CDF panels over a DeathStarBench validation run with continuous
random anomaly injection:

* (a) end-to-end latency — FIRM's tail is up to 6.9x/11.5x lower, i.e.
  9.8x/16.7x fewer SLO violations than AIMD / K8s autoscaling;
* (b) requested CPU limit — FIRM lowers the total requested CPU by
  29.1-62.3%;
* (c) dropped requests — FIRM reduces drops by up to 8.6x.

FIRM is evaluated both with a single shared agent (one-for-all) and with
per-microservice agents (one-for-each); the paper finds the two perform
equally, which the experiment also reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder, run_scenario
from repro.metrics.latency import cdf_points


@dataclass
class Fig10Result:
    """Per-controller results for the Fig. 10 comparison."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    def latency_cdfs(self, points: int = 50) -> Dict[str, List]:
        """CDF of end-to-end latency per controller (panel (a))."""
        return {
            name: cdf_points(result.slo.latencies_ms, points)
            for name, result in self.results.items()
        }


def run_fig10(
    application: str = "social_network",
    duration_s: float = 120.0,
    load_rps: float = 60.0,
    anomaly_rate_per_s: float = 0.33,
    min_intensity: float = 0.7,
    seed: int = 31,
    include_multi_rl: bool = True,
    controllers: Optional[Sequence[str]] = None,
) -> Fig10Result:
    """Reproduce the Fig. 10 comparison on one application.

    Each controller sees an identically seeded workload and anomaly
    campaign.  ``firm_single`` is the one-for-all agent; ``firm_multi`` the
    one-for-each (transfer-learning) variant.
    """
    if controllers is None:
        controllers = ["k8s", "aimd", "firm_single"]
        if include_multi_rl:
            controllers.append("firm_multi")

    result = Fig10Result()
    for controller in controllers:
        spec = ScenarioSpec(
            application=application,
            seed=seed,
            duration_s=duration_s,
            load_rps=load_rps,
            controller=controller,
            campaign_builder=partial(
                random_campaign_builder,
                duration_s=duration_s,
                rate_per_s=anomaly_rate_per_s,
                min_intensity=min_intensity,
                resource_only=True,
            ),
        )
        result.results[controller] = run_scenario(spec)
    return result
