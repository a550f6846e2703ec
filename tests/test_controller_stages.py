"""Unit tests for the staged controller-manager (:mod:`repro.controllers`).

Covers the memoization contract (once per stage per tenant per instant),
eager invalidation on cluster scale events, the stage dependency DAG,
the controller registry description backing ``repro.cli controllers
--list``, and the two FIRM fixes that ride along this refactor (the
stopped-loop bookkeeping and the per-instance SLO selection).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines.base import describe_controllers
from repro.cli import main
from repro.controllers import (
    ControllerManager,
    ControllerStage,
    StageBinding,
    available_stages,
    stage_order,
)
from repro.controllers import stages as stages_module
from repro.core.firm import FIRMConfig, FIRMController
from repro.experiments.scenario import ScenarioSpec


class CountingCoordinator:
    """Fake coordinator that counts has_slo_violation queries."""

    def __init__(self) -> None:
        self.calls = 0

    def has_slo_violation(self, window_s, percentile=99.0):
        self.calls += 1
        return False


class CountingView:
    """Fake cluster view that counts replicas_of queries."""

    def __init__(self) -> None:
        self.calls = 0

    def replicas_of(self, service):
        self.calls += 1
        return []


def _runtime(manager, coordinator=None, view=None, key=None):
    binding = StageBinding(
        coordinator=coordinator if coordinator is not None else CountingCoordinator(),
        view=view if view is not None else CountingView(),
        engine=manager.engine,
        key=key,
    )
    return manager.runtime_for(binding)


# ------------------------------------------------------------- stage DAG
class TestStageOrder:
    def test_all_builtin_stages_registered(self):
        names = available_stages()
        for expected in (
            "slo_verdict",
            "comfortable",
            "critical_path",
            "detection",
            "admission_signals",
            "service_cpu_utilization",
        ):
            assert expected in names

    def test_dependencies_precede_dependents(self):
        order = stage_order()
        assert set(order) == set(available_stages())
        assert order.index("slo_verdict") < order.index("detection")
        assert order.index("critical_path") < order.index("detection")

    def test_subset_pulls_in_dependency_closure(self):
        order = stage_order(["detection"])
        assert "slo_verdict" in order
        assert "critical_path" in order
        assert order[-1] == "detection"

    def test_unknown_dependency_rejected(self, monkeypatch):
        class Broken(ControllerStage):
            name = "broken_dep"
            requires = ("no_such_stage",)

            def compute(self, ctx):
                return None

        monkeypatch.setitem(stages_module._STAGES, "broken_dep", Broken())
        with pytest.raises(ValueError, match="unknown stage"):
            stage_order()

    def test_cycle_rejected(self, monkeypatch):
        class CycleA(ControllerStage):
            name = "cycle_a"
            requires = ("cycle_b",)

            def compute(self, ctx):
                return None

        class CycleB(ControllerStage):
            name = "cycle_b"
            requires = ("cycle_a",)

            def compute(self, ctx):
                return None

        monkeypatch.setitem(stages_module._STAGES, "cycle_a", CycleA())
        monkeypatch.setitem(stages_module._STAGES, "cycle_b", CycleB())
        with pytest.raises(ValueError, match="cycle"):
            stage_order()


# ---------------------------------------------------------- memoization
class TestMemoization:
    def test_enabled_manager_computes_once_per_instant(self):
        engine = SimpleNamespace(now=0.0)
        manager = ControllerManager(engine)
        runtime = _runtime(manager)
        coordinator = runtime.binding.coordinator
        first = runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        second = runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        assert first is second is False
        assert coordinator.calls == 1
        assert manager.stats == {"computed": 1, "hits": 1}

    def test_distinct_params_are_distinct_entries(self):
        engine = SimpleNamespace(now=0.0)
        manager = ControllerManager(engine)
        runtime = _runtime(manager)
        runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        runtime.pull("slo_verdict", window_s=4.0, percentile=99.0)
        assert runtime.binding.coordinator.calls == 2
        assert manager.stats == {"computed": 2, "hits": 0}

    def test_distinct_tenants_are_distinct_entries(self):
        engine = SimpleNamespace(now=0.0)
        manager = ControllerManager(engine)
        first = _runtime(manager, key="a")
        second = _runtime(manager, key="b")
        first.pull("slo_verdict", window_s=2.0, percentile=99.0)
        second.pull("slo_verdict", window_s=2.0, percentile=99.0)
        assert first.binding.coordinator.calls == 1
        assert second.binding.coordinator.calls == 1
        assert manager.stats == {"computed": 2, "hits": 0}

    def test_cache_expires_when_clock_advances(self):
        engine = SimpleNamespace(now=0.0)
        manager = ControllerManager(engine)
        runtime = _runtime(manager)
        runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        engine.now = 1.0
        runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        assert runtime.binding.coordinator.calls == 2
        assert manager.stats == {"computed": 2, "hits": 0}

    def test_scale_event_invalidates_within_instant(self):
        listeners = []
        cluster = SimpleNamespace(add_scale_listener=listeners.append)
        engine = SimpleNamespace(now=0.0)
        manager = ControllerManager(engine, cluster=cluster)
        assert listeners, "the manager must register a scale listener"
        runtime = _runtime(manager)
        runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        listeners[0]("someService", None, True)
        runtime.pull("slo_verdict", window_s=2.0, percentile=99.0)
        assert runtime.binding.coordinator.calls == 2
        assert manager.cache.invalidations == 1
        assert manager.cluster_cache.invalidations == 1

    def test_cluster_scope_shared_across_tenants(self):
        engine = SimpleNamespace(now=0.0)
        view = CountingView()
        manager_a = ControllerManager(engine)
        manager_b = ControllerManager(engine, cluster_cache=manager_a.cluster_cache)
        runtime_a = _runtime(manager_a, view=view, key="a")
        runtime_b = _runtime(manager_b, view=view, key="b")
        assert runtime_a.pull("service_cpu_utilization", service="svc") is None
        assert runtime_b.pull("service_cpu_utilization", service="svc") is None
        assert view.calls == 1
        assert manager_b.stats["hits"] == 1


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
