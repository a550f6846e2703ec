"""End-to-end integration tests across the whole stack.

These scenarios exercise the full pipeline (workload -> runtime -> cluster
-> tracing -> FIRM -> orchestrator) and assert the paper's qualitative
claims at a small scale.
"""

from __future__ import annotations

import pytest

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.apps.catalog import APPLICATIONS
from repro.cluster.resources import Resource
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec


def _harness(application, seed, load_rps, **fields):
    return ExperimentHarness.from_spec(
        ScenarioSpec(application=application, seed=seed, load_rps=load_rps, **fields)
    )


@pytest.mark.parametrize("application", sorted(APPLICATIONS))
def test_every_application_serves_requests_end_to_end(application):
    """All four benchmark applications deploy and serve traffic."""
    result = _harness(application, 1, 30.0).run(duration_s=20.0)
    assert result.slo.completed > 100
    assert result.latency.p99 > result.latency.median > 0


def test_contention_inflates_latency_without_controller():
    """Anomaly injection visibly inflates tail latency (the problem FIRM solves)."""
    quiet_result = _harness("social_network", 3, 50.0).run(duration_s=45.0)

    campaign = AnomalyCampaign("contention")
    campaign.add(
        AnomalySpec(AnomalyType.CPU_UTILIZATION, "composePost", start_s=10.0, duration_s=30.0, intensity=0.95)
    )
    noisy_result = _harness("social_network", 3, 50.0, campaign=campaign).run(duration_s=45.0)

    assert noisy_result.latency.p99 > quiet_result.latency.p99 * 1.5


def test_firm_mitigates_contention_end_to_end():
    """With FIRM attached, the same contention produces a lower tail and fewer violations."""
    def scenario(with_firm: bool):
        campaign = AnomalyCampaign("contention")
        campaign.add(
            AnomalySpec(AnomalyType.CPU_UTILIZATION, "composePost", start_s=10.0, duration_s=60.0, intensity=0.95)
        )
        campaign.add(
            AnomalySpec(AnomalyType.MEMORY_BANDWIDTH, "user-timeline-memcached", start_s=30.0, duration_s=40.0, intensity=0.95)
        )
        controller = "firm" if with_firm else "none"
        harness = _harness("social_network", 4, 50.0, campaign=campaign, controller=controller)
        return harness.run(duration_s=80.0)

    unmanaged = scenario(False)
    managed = scenario(True)
    # At this miniature scale single-seed tails are noisy, so the robust
    # checks are the bulk of the distribution and the violation count; the
    # tail-latency claim is exercised at full scale by the Fig. 10 benchmark.
    assert managed.latency.mean < unmanaged.latency.mean
    assert managed.latency.median < unmanaged.latency.median
    assert (
        managed.slo.violations_including_drops
        <= unmanaged.slo.violations_including_drops
    )


def test_firm_actions_respect_node_capacity():
    """No container limit ever exceeds its node's physical capacity."""
    campaign = AnomalyCampaign("stress")
    campaign.add(
        AnomalySpec(AnomalyType.CPU_UTILIZATION, "composeReview", start_s=5.0, duration_s=40.0, intensity=0.95)
    )
    harness = _harness("media_service", 5, 40.0, campaign=campaign, controller="firm")
    harness.run(duration_s=50.0)
    for container in harness.cluster.all_containers():
        node = container.node
        assert node is not None
        for resource in Resource:
            assert container.limits[resource] <= node.capacity[resource] + 1e-6


def test_firm_does_not_degrade_a_healthy_cluster():
    """With no anomalies, FIRM's management keeps violations near zero."""
    harness = _harness("train_ticket", 6, 40.0, controller="firm")
    result = harness.run(duration_s=90.0)
    assert result.slo.violation_rate < 0.05
    # ...while right-sizing reduces the requested CPU below the initial allocation.
    assert harness.cluster.total_requested_cpu() < 8.0 * len(harness.cluster.all_containers())


def test_mitigation_episodes_tracked():
    campaign = AnomalyCampaign("episode")
    campaign.add(
        AnomalySpec(AnomalyType.CPU_UTILIZATION, "composePost", start_s=10.0, duration_s=20.0, intensity=0.95)
    )
    harness = _harness("social_network", 7, 50.0, campaign=campaign, controller="firm")
    result = harness.run(duration_s=60.0)
    # The violation episode opened by the anomaly is eventually closed.
    assert result.mitigation.mean_mitigation_time_s() >= 0.0


def test_scale_out_replicas_share_load():
    """After a scale-out both replicas serve spans."""
    harness = _harness("hotel_reservation", 8, 60.0)
    harness.tenants[0].orchestrator.scale_out("search")
    harness.run(duration_s=30.0)
    replicas = harness.cluster.replicas_of("search")
    assert len(replicas) == 2
    assert all(replica.completed_spans > 0 for replica in replicas)
