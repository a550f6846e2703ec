"""Integration tests for the Extractor, FIRM controller, and baselines."""

from __future__ import annotations


from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.baselines.aimd import AIMDController
from repro.baselines.kubernetes_hpa import KubernetesAutoscaler
from repro.cluster.resources import Resource
from repro.core.extractor import Extractor
from repro.core.firm import FIRMConfig
from repro.experiments.harness import ExperimentHarness


def _harness_with_anomaly(controller=None, seed=5, intensity=0.95, duration_s=60.0,
                          target="composePost",
                          anomaly=AnomalyType.CPU_UTILIZATION):
    harness = ExperimentHarness.build("social_network", seed=seed)
    harness.attach_workload(load_rps=50.0)
    campaign = AnomalyCampaign("test")
    campaign.add(
        AnomalySpec(anomaly, target, start_s=10.0, duration_s=duration_s - 15.0, intensity=intensity)
    )
    harness.attach_injector(campaign)
    if controller == "firm":
        harness.attach_firm()
    elif controller == "aimd":
        harness.attach_aimd()
    elif controller == "k8s":
        harness.attach_kubernetes_autoscaler()
    return harness


class TestExtractor:
    def test_no_violation_no_candidates(self):
        harness = ExperimentHarness.build("social_network", seed=3)
        harness.attach_workload(load_rps=30.0)
        firm = harness.attach_firm()
        harness.run(duration_s=30.0)
        result = firm.extractor.analyse()
        assert not result.slo_violated
        assert result.candidates == []

    def test_detects_violation_under_anomaly(self):
        harness = _harness_with_anomaly(controller=None)
        extractor = Extractor(harness.coordinator)  # detection only; no mitigation
        harness.run(duration_s=40.0)
        assert harness.orchestrator.history == []
        assert extractor.detect()

    def test_analyse_returns_critical_paths(self):
        harness = _harness_with_anomaly(controller=None)
        extractor = Extractor(harness.coordinator)
        harness.run(duration_s=40.0)
        assert harness.orchestrator.history == []
        result = extractor.analyse(force=True)
        assert len(result.critical_paths) > 0

    def test_localizes_culprit_service(self):
        harness = _harness_with_anomaly(controller=None, intensity=0.95)
        extractor = Extractor(harness.coordinator)
        harness.run(duration_s=40.0)
        assert harness.orchestrator.history == []
        result = extractor.analyse(force=True)
        # The anomaly targets the post-storage memcached's node; the flagged
        # services should include a service hosted there (often the target
        # itself or a co-located memory-sensitive service).
        assert result.candidates, "expected at least one candidate under heavy contention"


class TestFIRMController:
    def test_firm_reduces_tail_latency_vs_none(self):
        unmanaged = _harness_with_anomaly(controller=None)
        result_none = unmanaged.run(duration_s=60.0)
        managed = _harness_with_anomaly(controller="firm")
        result_firm = managed.run(duration_s=60.0)
        assert result_firm.latency.p99 < result_none.latency.p99

    def test_firm_acts_on_violations(self):
        harness = _harness_with_anomaly(controller="firm")
        firm = harness.controller
        harness.run(duration_s=60.0)
        assert any(round_.actions_applied > 0 for round_ in firm.rounds)

    def test_firm_partitions_enforced_after_actions(self):
        harness = _harness_with_anomaly(controller="firm")
        harness.run(duration_s=60.0)
        enforced = [c for c in harness.cluster.all_containers() if c.partition_enforced]
        assert enforced

    def test_one_for_each_creates_per_service_agents(self):
        harness = _harness_with_anomaly(controller=None)
        firm = harness.attach_firm(FIRMConfig(per_service_agents=True))
        harness.run(duration_s=60.0)
        if any(round_.actions_applied > 0 for round_ in firm.rounds):
            assert len(firm._per_service_agents) > 0

    def test_shared_agent_mode_uses_single_agent(self):
        harness = _harness_with_anomaly(controller=None)
        firm = harness.attach_firm(FIRMConfig(per_service_agents=False))
        harness.run(duration_s=40.0)
        assert firm._per_service_agents == {}
        assert firm.agent_for("anything") is firm.shared_agent

    def test_firm_reclaims_requested_cpu_when_idle(self):
        harness = ExperimentHarness.build("social_network", seed=4)
        harness.attach_workload(load_rps=30.0)
        harness.attach_firm()
        before = harness.cluster.total_requested_cpu()
        harness.run(duration_s=120.0)
        after = harness.cluster.total_requested_cpu()
        assert after < before

    def test_firm_training_populates_replay_buffer(self):
        harness = _harness_with_anomaly(controller=None)
        firm = harness.attach_firm(FIRMConfig(train_online=True))
        harness.run(duration_s=60.0)
        if any(round_.actions_applied > 0 for round_ in firm.rounds):
            assert len(firm.shared_agent.replay_buffer) > 0

    def test_svm_training_from_ground_truth(self):
        harness = _harness_with_anomaly(controller="firm")
        firm = harness.controller
        harness.run(duration_s=40.0)
        loss = firm.train_svm_from_ground_truth(["post-storage-memcached"])
        assert loss >= 0.0
        assert firm.svm.is_trained


class TestBaselines:
    def test_k8s_scales_out_under_cpu_pressure(self):
        harness = _harness_with_anomaly(
            controller="k8s", target="composePost", anomaly=AnomalyType.CPU_UTILIZATION,
            intensity=0.95,
        )
        harness.run(duration_s=90.0, load_rps=80.0)
        # The HPA baseline should at least have executed control rounds.
        assert isinstance(harness.controller, KubernetesAutoscaler)
        assert harness.controller.rounds_executed > 0

    def test_aimd_raises_limits_under_violation(self):
        harness = _harness_with_anomaly(controller="aimd", intensity=0.95)
        container_before = {
            c.id: c.limits[Resource.CPU] for c in harness.cluster.all_containers()
        }
        harness.run(duration_s=60.0)
        raised = [
            c for c in harness.cluster.all_containers()
            if c.id in container_before and c.limits[Resource.CPU] > container_before[c.id]
        ]
        assert isinstance(harness.controller, AIMDController)
        assert raised, "AIMD should have additively increased limits during violations"

    def test_aimd_decays_limits_when_comfortable(self):
        harness = ExperimentHarness.build("social_network", seed=6)
        harness.attach_workload(load_rps=20.0)
        harness.attach_aimd()
        before = harness.cluster.total_requested_cpu()
        harness.run(duration_s=90.0)
        assert harness.cluster.total_requested_cpu() < before

    def test_baseline_round_counter(self):
        harness = ExperimentHarness.build("social_network", seed=6)
        harness.attach_workload(load_rps=20.0)
        controller = harness.attach_aimd(control_interval_s=10.0)
        harness.run(duration_s=45.0)
        assert controller.rounds_executed >= 3
