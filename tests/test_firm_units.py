"""Unit tests for FIRM controller internals (verification, relief, right-sizing)."""

from __future__ import annotations

import pytest

from repro.cluster.resources import Resource, ResourceVector
from repro.core.firm import FIRMConfig
from repro.experiments.fig9_localization import DEFAULT_SWEEP_TARGETS
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec


def _firm_harness(config: FIRMConfig) -> ExperimentHarness:
    return ExperimentHarness.from_spec(
        ScenarioSpec(
            application="social_network",
            seed=9,
            load_rps=40.0,
            controller="firm",
            controller_kwargs={"config": config},
        )
    )


@pytest.fixture
def firm_setup():
    harness = _firm_harness(FIRMConfig(train_online=False))
    firm = harness.tenants[0].controller
    firm.stop()  # drive rounds manually
    return harness, firm


class TestActionVerification:
    def test_limits_raised_to_recent_peak(self, firm_setup):
        harness, firm = firm_setup
        harness.run(duration_s=40.0)
        instance = harness.cluster.replicas_of("composePost")[0]
        tiny = ResourceVector.from_kwargs(
            cpu=0.01, memory_bandwidth=0.01, llc=0.01, disk_io=0.01, network=0.01
        )
        verified = firm._verify_action_limits(instance, tiny)
        peak = firm._windowed_peak_usage(instance.container, harness.telemetry)
        assert peak is not None
        for resource in Resource:
            assert verified[resource] >= 1.2 * peak[resource] - 1e-9

    def test_generous_limits_unchanged(self, firm_setup):
        harness, firm = firm_setup
        harness.run(duration_s=40.0)
        instance = harness.cluster.replicas_of("composePost")[0]
        generous = ResourceVector.uniform(1000.0)
        verified = firm._verify_action_limits(instance, generous)
        for resource in Resource:
            assert verified[resource] == pytest.approx(1000.0)

    def test_no_telemetry_history_passthrough(self, firm_setup):
        harness, firm = firm_setup
        # No simulation time has elapsed, so there are not enough samples.
        instance = harness.cluster.replicas_of("composePost")[0]
        proposed = ResourceVector.uniform(3.0)
        verified = firm._verify_action_limits(instance, proposed)
        assert verified[Resource.CPU] == pytest.approx(3.0)


class TestSaturationRelief:
    def test_saturated_enforced_partition_is_relieved(self, firm_setup):
        harness, firm = firm_setup
        harness.run(duration_s=20.0)
        instance = harness.cluster.replicas_of("composePost")[0]
        container = instance.container
        # Simulate a bad earlier action: a tiny enforced partition while work is queued.
        container.set_limits(ResourceVector.from_kwargs(
            cpu=0.5, memory_bandwidth=0.5, llc=0.5, disk_io=10.0, network=0.1
        ))
        container.partition_enforced = True
        for index in range(8):
            instance.submit(f"r{index}", "composePost", lambda *a: None)
        assert max(instance.utilization()[r] for r in Resource) >= firm.config.saturation_threshold
        relieved = firm._relieve_saturated_partitions(set())
        assert relieved >= 1
        harness.engine.run_until(harness.engine.now + 1.0)
        assert container.limits[Resource.CPU] > 0.5

    def test_unenforced_containers_not_touched(self, firm_setup):
        harness, firm = firm_setup
        harness.run(duration_s=10.0)
        instance = harness.cluster.replicas_of("text")[0]
        for index in range(8):
            instance.submit(f"r{index}", "text", lambda *a: None)
        before = instance.container.limits[Resource.CPU]
        firm._relieve_saturated_partitions(set())
        harness.engine.run_until(harness.engine.now + 1.0)
        assert instance.container.limits[Resource.CPU] == pytest.approx(before)

    def test_already_acted_instances_skipped(self, firm_setup):
        harness, firm = firm_setup
        harness.run(duration_s=10.0)
        instance = harness.cluster.replicas_of("composePost")[0]
        instance.container.partition_enforced = True
        instance.container.set_limits(ResourceVector.from_kwargs(cpu=0.5))
        for index in range(8):
            instance.submit(f"r{index}", "composePost", lambda *a: None)
        relieved = firm._relieve_saturated_partitions({instance.name})
        assert relieved == 0


class TestRightSizing:
    def test_windowed_peak_requires_history(self, firm_setup):
        harness, firm = firm_setup
        container = harness.cluster.all_containers()[0]
        assert firm._windowed_peak_usage(container, harness.telemetry) is None

    @pytest.fixture
    def idle_firm(self):
        """A harness whose control loop never right-sizes on its own."""
        harness = _firm_harness(FIRMConfig(train_online=False, scale_down_when_idle=False))
        firm = harness.tenants[0].controller
        harness.run(duration_s=70.0)
        return harness, firm

    def test_reclaim_shrinks_overprovisioned_idle_containers(self, idle_firm):
        harness, firm = idle_firm
        before = harness.cluster.total_requested_cpu()
        reclaimed = firm._reclaim_idle_resources()
        harness.engine.run_until(harness.engine.now + 1.0)
        assert reclaimed > 0
        assert harness.cluster.total_requested_cpu() < before

    def test_reclaim_rate_limited_per_container(self, idle_firm):
        harness, firm = idle_firm
        first = firm._reclaim_idle_resources()
        harness.engine.run_until(harness.engine.now + 1.0)
        second = firm._reclaim_idle_resources()
        assert first > 0
        assert second == 0  # within reclaim_interval_s of the first pass


class TestSweepTargets:
    def test_default_sweep_targets_exist_in_social_network(self):
        from repro.apps.catalog import social_network

        services = set(social_network().service_names())
        for targets in DEFAULT_SWEEP_TARGETS.values():
            for target in targets:
                assert target in services
