"""Unit tests for controller sensing (:mod:`repro.controllers`).

Covers every :meth:`ControllerManager.pull` name against the direct
coordinator, view or gate query it stands for, the controller registry
description backing ``repro.cli controllers --list``, FIRM's
stopped-loop bookkeeping and its per-instance SLO selection.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines.base import describe_controllers
from repro.cli import main
from repro.cluster.resources import Resource
from repro.controllers import ControllerManager
from repro.core.firm import FIRMConfig, FIRMController
from repro.experiments.composed import composed_stack_spec
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec


def _ran(spec):
    harness = ExperimentHarness.from_spec(spec)
    harness.run(duration_s=spec.duration_s)
    return harness


@pytest.fixture(scope="module")
def composed_harness():
    """The composed stack after 8 s: the victim violates its SLOs, the
    aggressor is comfortable."""
    return _ran(composed_stack_spec(duration_s=8.0, seed=1))


@pytest.fixture(scope="module")
def gated_harness():
    """An overloaded tenant behind the survival-kit gate (it sheds)."""
    return _ran(
        ScenarioSpec(
            application="hotel_reservation", seed=0, duration_s=6.0, load_rps=200.0,
            admission="survival_kit", cluster_nodes=(1, 0),
        )
    )


# ---------------------------------------------------------------- pulls
class TestPulls:
    @pytest.mark.parametrize("window_s", [2.0, 10.0])
    def test_slo_verdict_is_the_coordinator_query(self, composed_harness, window_s):
        verdicts = []
        for tenant in composed_harness.tenants:
            expected = tenant.coordinator.has_slo_violation(window_s, percentile=99.0)
            pulled = tenant.manager.pull("slo_verdict", window_s=window_s, percentile=99.0)
            assert pulled is expected
            verdicts.append(pulled)
        assert verdicts == [True, False]

    @pytest.mark.parametrize("slack_threshold", [0.5, 5.0])
    def test_comfortable_is_every_tail_within_slack(self, composed_harness, slack_threshold):
        for tenant in composed_harness.tenants:
            coordinator = tenant.coordinator
            tails = {
                request_type: coordinator.latency_percentile_ms(99.0, 2.0, request_type)
                for request_type in coordinator.slo_latency_ms
            }
            expected = all(
                tail <= 0 or tail <= slack_threshold * coordinator.slo_latency_ms[request_type]
                for request_type, tail in tails.items()
            )
            pulled = tenant.manager.pull(
                "comfortable", window_s=2.0, percentile=99.0, slack_threshold=slack_threshold
            )
            assert pulled is expected

    def test_comfortable_is_false_without_slos(self):
        manager = ControllerManager(SimpleNamespace(slo_latency_ms={}), view=None)
        assert manager.pull(
            "comfortable", window_s=2.0, percentile=99.0, slack_threshold=0.5
        ) is False

    @pytest.mark.parametrize("name, force", [("victim", False), ("aggressor", True)])
    def test_detection_is_the_extractors_analysis(self, composed_harness, name, force):
        tenant = composed_harness.tenant(name)
        extractor = tenant.controller.rl_member.extractor
        pulled = tenant.manager.pull("detection", extractor=extractor, force=force)
        direct = extractor.analyse(force=force)
        assert (pulled.time_s, pulled.slo_violated) == (direct.time_s, direct.slo_violated)
        assert pulled.candidate_instances == direct.candidate_instances
        assert [path.services for path in pulled.critical_paths] == [
            path.services for path in direct.critical_paths
        ]
        # The victim localizes because it violates, the aggressor because forced.
        assert pulled.critical_paths

    def test_admission_signals_are_the_gates_state(self, gated_harness):
        tenant = gated_harness.tenants[0]
        gate = tenant.admission
        signals = tenant.manager.pull("admission_signals")
        assert signals["available"] is True
        assert signals["shed"] == gate.stats["shed"] > 0
        assert signals["submitted"] == gate.stats["submitted"]
        assert signals["shed_rate"] == gate.stats["shed"] / gate.stats["submitted"]
        assert signals["breakers"] == {
            service: breaker.state for service, breaker in gate._breakers.items()
        }
        assert signals["breakers_open"] == sum(
            state == "open" for state in signals["breakers"].values()
        )

    def test_admission_signals_without_gate_are_quiet(self, composed_harness):
        for tenant in composed_harness.tenants:
            signals = tenant.manager.pull("admission_signals")
            assert signals["available"] is False
            assert signals["shed_rate"] == 0.0
            assert signals["breakers_open"] == 0

    def test_service_cpu_utilization_is_the_views_replicas(self, gated_harness):
        tenant = gated_harness.tenants[0]
        busy = 0
        for service in tenant.view.services():
            replicas = tenant.view.replicas_of(service)
            cpu = [replica.utilization()[Resource.CPU] for replica in replicas]
            pulled = tenant.manager.pull("service_cpu_utilization", service=service)
            assert pulled == (len(replicas), sum(cpu) / len(cpu))
            busy += pulled[1] > 0
        assert busy > 0
        assert tenant.manager.pull("service_cpu_utilization", service="no-such") is None

    def test_unknown_name_rejected(self):
        manager = ControllerManager(coordinator=None, view=None)
        with pytest.raises(ValueError, match="unknown sensor"):
            manager.pull("critical_path", window_s=2.0)

    def test_controller_senses_through_its_tenants_manager(self, composed_harness):
        for tenant in composed_harness.tenants:
            assert tenant.controller.stages is tenant.manager


# ------------------------------------------------------------- registry
class TestControllerRegistry:
    def test_describe_controllers_rows(self):
        rows = {row["name"]: row for row in describe_controllers()}
        for expected in ("aimd", "composed", "firm", "kubernetes_hpa", "none"):
            assert expected in rows
        assert "svm_gated_rl" in rows["composed"]["aliases"]
        assert "priority_chain" in rows["composed"]["aliases"]
        assert "detection" in rows["firm"]["stages"]
        assert "service_cpu_utilization" in rows["kubernetes_hpa"]["stages"]
        assert rows["firm"]["summary"]

    def test_cli_controllers_list(self, capsys):
        assert main(["controllers", "--list"]) == 0
        out = capsys.readouterr().out
        assert "composed" in out
        assert "firm" in out
        assert "detection" in out


# ---------------------------------------------------- FIRM fixes riding
def _firm_on_social_network():
    from repro.experiments.harness import ExperimentHarness

    spec = ScenarioSpec(
        application="social_network",
        seed=9,
        load_rps=20.0,
        controller="firm",
        controller_kwargs={"config": FIRMConfig(train_online=False)},
    )
    return ExperimentHarness.from_spec(spec).tenants[0].controller


class TestFIRMStoppedRound:
    def test_stopped_loop_round_is_recorded(self):
        firm = _firm_on_social_network()
        firm.stop()
        before = len(firm.rounds)
        record = firm.control_round()
        assert len(firm.rounds) == before + 1
        assert firm.rounds[-1] is record
        assert record.slo_violated is False
        assert record.actions_applied == 0

    def test_restart_clears_stopped_flag(self):
        firm = _firm_on_social_network()
        firm.stop()
        assert firm._stopped
        firm.start()
        assert not firm._stopped


class TestSLOForInstance:
    @pytest.fixture
    def firm(self, cluster, coordinator, orchestrator, engine):
        return FIRMController(
            cluster, coordinator, orchestrator, engine,
            config=FIRMConfig(train_online=False),
        )

    @staticmethod
    def _instance(service):
        return SimpleNamespace(profile=SimpleNamespace(name=service))

    def test_no_slos_falls_back_to_default(self, firm):
        assert firm._slo_for_instance(self._instance("svcA")) == 500.0

    def test_tightest_matching_slo_wins(self, firm, coordinator):
        coordinator.register_slo("r1", 200.0, services=("svcA", "svcB"))
        coordinator.register_slo("r2", 100.0, services=("svcB",))
        coordinator.register_slo("r3", 50.0, services=("svcC",))
        # svcB serves r1 and r2: tightest among those, NOT the global min.
        assert firm._slo_for_instance(self._instance("svcB")) == 100.0
        assert firm._slo_for_instance(self._instance("svcC")) == 50.0

    def test_unmatched_service_uses_global_min(self, firm, coordinator):
        coordinator.register_slo("r1", 200.0, services=("svcA",))
        coordinator.register_slo("r2", 80.0, services=("svcB",))
        assert firm._slo_for_instance(self._instance("unrelated")) == 80.0

    def test_slos_without_service_lists_use_global_min(self, firm, coordinator):
        coordinator.register_slo("r1", 300.0)
        coordinator.register_slo("r2", 120.0)
        assert firm._slo_for_instance(self._instance("svcA")) == 120.0
