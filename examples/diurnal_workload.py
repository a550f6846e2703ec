#!/usr/bin/env python3
"""Drive the Media Service benchmark with a diurnal + spike workload under FIRM.

Demonstrates the workload-generation substrate: a diurnal base load with a
flash-crowd spike, managed by FIRM, reporting per-interval throughput,
tail latency, and total requested CPU (FIRM right-sizes idle services
during the trough and re-provisions during the spike).

Usage::

    python examples/diurnal_workload.py
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec
from repro.workload.patterns import DiurnalPattern, SpikePattern


class DiurnalWithSpike(DiurnalPattern):
    """Diurnal base load plus a flash-crowd spike."""

    def __init__(self) -> None:
        super().__init__(base_rate=45.0, amplitude=25.0, period_s=240.0, phase_s=0.0)
        self._spike = SpikePattern(base_rate=0.0, spikes=[(150.0, 25.0, 80.0)])

    def rate_at(self, time_s: float) -> float:
        return super().rate_at(time_s) + self._spike.rate_at(time_s)


def main() -> None:
    spec = ScenarioSpec(
        application="media_service",
        seed=11,
        duration_s=240.0,
        pattern=DiurnalWithSpike(),
        controller="firm",
    )
    harness = ExperimentHarness.from_spec(spec)
    tenant = harness.tenants[0]

    timeline = []

    def sample(engine) -> None:
        timeline.append(
            {
                "t": engine.now,
                "rate": tenant.workload.pattern.rate_at(engine.now),
                "p99_ms": tenant.coordinator.latency_percentile_ms(99.0, 15.0),
                "requested_cpu": harness.cluster.total_requested_cpu(),
            }
        )

    harness.engine.schedule_recurring(15.0, sample, name="diurnal-sample")
    print("Running the Media Service under a diurnal + spike workload with FIRM ...")
    result = harness.run(duration_s=240.0)

    print(f"\n{'t(s)':>6} {'load (rps)':>11} {'p99 (ms)':>10} {'requested CPU':>14}")
    for row in timeline:
        print(f"{row['t']:>6.0f} {row['rate']:>11.1f} {row['p99_ms']:>10.1f} {row['requested_cpu']:>14.1f}")

    print(f"\ncompleted requests: {result.slo.completed}")
    print(f"SLO violations:     {result.slo.violations_including_drops}")
    print(f"mean requested CPU: {result.mean_requested_cpu:.1f} cores "
          f"(initial allocation was {timeline[0]['requested_cpu']:.1f})")


if __name__ == "__main__":
    main()
