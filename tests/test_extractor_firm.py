"""Integration tests for the Extractor, FIRM controller, and baselines."""

from __future__ import annotations

from functools import partial

import pytest

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.baselines.aimd import AIMDController
from repro.baselines.kubernetes_hpa import KubernetesAutoscaler
from repro.cluster.resources import Resource
from repro.core.extractor import Extractor
from repro.core.firm import FIRMConfig
from repro.experiments.harness import ExperimentHarness
from repro.experiments.resilience import LocalizationScorer
from repro.experiments.scenario import ScenarioSpec, TenantSpec, random_campaign_builder
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.instance_sketch import InstanceSketches


def _social_network(seed, load_rps, **fields):
    return ExperimentHarness.from_spec(
        ScenarioSpec(application="social_network", seed=seed, load_rps=load_rps, **fields)
    )


def _harness_with_anomaly(controller="none", seed=5, intensity=0.95, duration_s=60.0,
                          target="composePost",
                          anomaly=AnomalyType.CPU_UTILIZATION, load_rps=50.0, **controller_kwargs):
    campaign = AnomalyCampaign("test")
    campaign.add(
        AnomalySpec(anomaly, target, start_s=10.0, duration_s=duration_s - 15.0, intensity=intensity)
    )
    return _social_network(
        seed, load_rps, campaign=campaign, controller=controller,
        controller_kwargs=controller_kwargs,
    )


class TestExtractor:
    def test_no_violation_no_candidates(self):
        harness = _social_network(3, 30.0, controller="firm")
        firm = harness.tenants[0].controller
        harness.run(duration_s=30.0)
        result = firm.extractor.analyse()
        assert not result.slo_violated
        assert result.candidates == []

    def test_detects_violation_under_anomaly(self):
        harness = _harness_with_anomaly()
        tenant = harness.tenants[0]
        extractor = Extractor(tenant.coordinator)  # detection only; no mitigation
        harness.run(duration_s=40.0)
        assert tenant.orchestrator.history == []
        assert extractor.detect()

    def test_analyse_returns_critical_paths(self):
        harness = _harness_with_anomaly()
        tenant = harness.tenants[0]
        extractor = Extractor(tenant.coordinator)
        harness.run(duration_s=40.0)
        assert tenant.orchestrator.history == []
        result = extractor.analyse(force=True)
        assert len(result.critical_paths) > 0

    def test_localizes_culprit_service(self):
        harness = _harness_with_anomaly(intensity=0.95)
        tenant = harness.tenants[0]
        extractor = Extractor(tenant.coordinator)
        harness.run(duration_s=40.0)
        assert tenant.orchestrator.history == []
        result = extractor.analyse(force=True)
        # The anomaly targets the post-storage memcached's node; the flagged
        # services should include a service hosted there (often the target
        # itself or a co-located memory-sensitive service).
        assert result.candidates, "expected at least one candidate under heavy contention"


#: FIRM's windowed (instance, service, RI, CI, samples) features on the
#: 40 s ``_harness_with_anomaly(controller="firm")`` run, pinned from the
#: coordinator-owned sketches that preceded ``InstanceSketches``.
_PINNED_FIRM_FEATURES = [
    ("composePost#0", "composePost", 0.5247998522366234, 1.5868743229440005, 105),
    ("followUser#0", "followUser", 0.7574492969347224, 1.8509302102818823, 17),
    ("image#0", "image", -0.06888808023357307, 2.51817011681898, 105),
    ("media-memcached#0", "media-memcached", 0.25007893053784197, 1.8509302102818823, 105),
    ("media-mongodb#0", "media-mongodb", 0.1747605538547012, 2.158924997272788, 105),
    ("nginx#0", "nginx", 1.0, 1.36048896, 216),
    ("nginx#1", "nginx", 1.0, 1.1664, 17),
    ("post-storage-memcached#0", "post-storage-memcached", 0.23736979107495418,
     1.9990046271044333, 216),
    ("post-storage-mongodb#0", "post-storage-mongodb", 0.2040139529193553,
     2.331638997054611, 216),
    ("readTimeline#0", "readTimeline", 0.7584028354446604, 1.4693280768000005, 111),
    ("recommender#0", "recommender", 0.5163227892229245, 1.5868743229440008, 111),
    ("search#0", "search", 0.709734911076187, 1.3604889600000003, 17),
    ("social-graph-memcached#0", "social-graph-memcached", 0.11802820273317606,
     2.331638997054611, 128),
    ("social-graph-mongodb#0", "social-graph-mongodb", 0.12890696235960658,
     2.7196237261644987, 128),
    ("text#0", "text", -0.04113471891453104, 2.158924997272788, 105),
    ("urlShorten#0", "urlShorten", 0.06016282772827064, 1.8509302102818828, 105),
    ("user-memcached#0", "user-memcached", 0.09136254769819208, 2.331638997054611, 233),
    ("user-mongodb#0", "user-mongodb", 0.09508509430809407, 2.51817011681898, 233),
    ("user-timeline-memcached#0", "user-timeline-memcached", 0.5051038513165617,
     1.999004627104433, 111),
    ("user-timeline-mongodb#0", "user-timeline-mongodb", 0.47226667521049837,
     2.51817011681898, 111),
    ("userInfo#0", "userInfo", 0.3367465839718437, 1.713824268779521, 111),
    ("userTag#0", "userTag", -0.026626684800467548, 1.9990046271044333, 105),
    ("video#0", "video", 0.8935047591123196, 1.9990046271044335, 105),
]


def _count_folds(monkeypatch):
    """Count ``complete_trace`` calls and per-instance folds, run-wide."""
    counts = {"complete": 0, "fold": 0}
    complete_trace, fold = TracingCoordinator.complete_trace, InstanceSketches.fold

    def counting_complete(self, trace, completion_time):
        counts["complete"] += 1
        complete_trace(self, trace, completion_time)

    def counting_fold(self, trace, completion_time, latency_ms):
        counts["fold"] += 1
        fold(self, trace, completion_time, latency_ms)

    monkeypatch.setattr(TracingCoordinator, "complete_trace", counting_complete)
    monkeypatch.setattr(InstanceSketches, "fold", counting_fold)
    return counts


class TestLocalizationSketchReaders:
    """Per-instance sketches exist only where a localization reader asked."""

    def test_uncontrolled_tenant_folds_no_instance_sketch(self, monkeypatch):
        counts = _count_folds(monkeypatch)
        harness = ExperimentHarness.from_spec(
            ScenarioSpec(application="hotel_reservation", seed=0, load_rps=15.0)
        )
        harness.run(duration_s=8.0)
        assert harness.tenants[0].coordinator._instance_sketches is None
        assert counts["complete"] > 0
        assert counts["fold"] == 0

    def test_only_the_firm_tenant_folds(self):
        harness = ExperimentHarness.from_spec(ScenarioSpec(
            seed=0,
            tenants=[
                TenantSpec(name="firm", application="hotel_reservation",
                           load_rps=15.0, controller="firm"),
                TenantSpec(name="aimd", application="hotel_reservation",
                           load_rps=15.0, controller="aimd"),
            ],
        ))
        firm, aimd = harness.tenants
        harness.run(duration_s=8.0)
        assert firm.coordinator._instance_sketches is firm.controller.extractor.sketches
        assert aimd.coordinator._instance_sketches is None

    def test_firm_and_scorer_fold_each_completion_once(self, monkeypatch):
        counts = _count_folds(monkeypatch)
        spec = ScenarioSpec(
            application="hotel_reservation",
            controller="firm",
            seed=2,
            duration_s=12.0,
            load_rps=20.0,
            campaign_builder=partial(
                random_campaign_builder, duration_s=12.0, rate_per_s=0.5, resource_only=True
            ),
        )
        harness = ExperimentHarness.from_spec(spec)
        tenant = harness.tenants[0]
        scorer = LocalizationScorer(harness, tenant, window_s=3.0)
        scorer.attach(until_s=spec.duration_s)
        assert scorer.extractor.sketches is tenant.controller.extractor.sketches
        harness.run(duration_s=spec.duration_s)
        assert scorer.windows, "the scorer must have read the shared sketch"
        assert counts["complete"] > 0
        assert counts["fold"] == counts["complete"]

    def test_scorer_and_firm_read_identical_features(self):
        duration_s = 12.0
        harness = ExperimentHarness.from_spec(ScenarioSpec(
            application="hotel_reservation",
            controller="firm",
            seed=2,
            duration_s=duration_s,
            load_rps=20.0,
            campaign_builder=partial(
                random_campaign_builder, duration_s=duration_s, rate_per_s=0.5,
                resource_only=True,
            ),
        ))
        tenant = harness.tenants[0]
        firm = tenant.controller.extractor
        scorer = LocalizationScorer(harness, tenant, window_s=firm.window_s)
        compared = []

        def compare(engine):
            scorer_paths, scorer_features = scorer.extractor.window_features()
            firm_paths, firm_features = firm.window_features()
            assert [p.request_id for p in scorer_paths] == [p.request_id for p in firm_paths]
            assert scorer_features == firm_features
            compared.append(len(firm_features))

        harness.engine.schedule_recurring(
            firm.window_s, compare, name="compare-features", until=duration_s
        )
        harness.run(duration_s=duration_s)
        assert compared and all(compared), compared

    def test_firm_sketch_features_are_pinned(self):
        harness = _harness_with_anomaly(controller="firm")
        extractor = harness.tenants[0].controller.extractor
        harness.run(duration_s=40.0)
        _, features = extractor.window_features()
        got = [
            (f.instance, f.service, f.relative_importance, f.congestion_intensity, f.sample_count)
            for f in features
        ]
        assert [(row[0], row[1], row[4]) for row in got] == [
            (row[0], row[1], row[4]) for row in _PINNED_FIRM_FEATURES
        ]
        for row, pinned in zip(got, _PINNED_FIRM_FEATURES):
            assert row[2:4] == pytest.approx(pinned[2:4], rel=1e-9), row[0]


class TestFIRMController:
    def test_firm_reduces_tail_latency_vs_none(self):
        unmanaged = _harness_with_anomaly()
        result_none = unmanaged.run(duration_s=60.0)
        managed = _harness_with_anomaly(controller="firm")
        result_firm = managed.run(duration_s=60.0)
        assert result_firm.latency.p99 < result_none.latency.p99

    def test_firm_acts_on_violations(self):
        harness = _harness_with_anomaly(controller="firm")
        firm = harness.tenants[0].controller
        harness.run(duration_s=60.0)
        assert any(round_.actions_applied > 0 for round_ in firm.rounds)

    def test_firm_partitions_enforced_after_actions(self):
        harness = _harness_with_anomaly(controller="firm")
        harness.run(duration_s=60.0)
        enforced = [c for c in harness.cluster.all_containers() if c.partition_enforced]
        assert enforced

    def test_one_for_each_creates_per_service_agents(self):
        harness = _harness_with_anomaly(
            controller="firm", config=FIRMConfig(per_service_agents=True)
        )
        firm = harness.tenants[0].controller
        harness.run(duration_s=60.0)
        if any(round_.actions_applied > 0 for round_ in firm.rounds):
            assert len(firm._per_service_agents) > 0

    def test_shared_agent_mode_uses_single_agent(self):
        harness = _harness_with_anomaly(
            controller="firm", config=FIRMConfig(per_service_agents=False)
        )
        firm = harness.tenants[0].controller
        harness.run(duration_s=40.0)
        assert firm._per_service_agents == {}
        assert firm.agent_for("anything") is firm.shared_agent

    def test_firm_reclaims_requested_cpu_when_idle(self):
        harness = _social_network(4, 30.0, controller="firm")
        before = harness.cluster.total_requested_cpu()
        harness.run(duration_s=120.0)
        after = harness.cluster.total_requested_cpu()
        assert after < before

    def test_firm_training_populates_replay_buffer(self):
        harness = _harness_with_anomaly(controller="firm", config=FIRMConfig(train_online=True))
        firm = harness.tenants[0].controller
        harness.run(duration_s=60.0)
        if any(round_.actions_applied > 0 for round_ in firm.rounds):
            assert len(firm.shared_agent.replay_buffer) > 0

    def test_svm_training_from_ground_truth(self):
        harness = _harness_with_anomaly(controller="firm")
        firm = harness.tenants[0].controller
        harness.run(duration_s=40.0)
        loss = firm.train_svm_from_ground_truth(["post-storage-memcached"])
        assert loss >= 0.0
        assert firm.svm.is_trained


class TestBaselines:
    def test_k8s_scales_out_under_cpu_pressure(self):
        harness = _harness_with_anomaly(
            controller="k8s", target="composePost", anomaly=AnomalyType.CPU_UTILIZATION,
            intensity=0.95, load_rps=80.0,
        )
        harness.run(duration_s=90.0)
        # The HPA baseline should at least have executed control rounds.
        controller = harness.tenants[0].controller
        assert isinstance(controller, KubernetesAutoscaler)
        assert controller.rounds_executed > 0

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
        assert isinstance(harness.tenants[0].controller, AIMDController)
        assert raised, "AIMD should have additively increased limits during violations"

    def test_aimd_decays_limits_when_comfortable(self):
        harness = _social_network(6, 20.0, controller="aimd")
        before = harness.cluster.total_requested_cpu()
        harness.run(duration_s=90.0)
        assert harness.cluster.total_requested_cpu() < before

    def test_baseline_round_counter(self):
        harness = _social_network(
            6, 20.0, controller="aimd", controller_kwargs={"control_interval_s": 10.0}
        )
        controller = harness.tenants[0].controller
        harness.run(duration_s=45.0)
        assert controller.rounds_executed >= 3
