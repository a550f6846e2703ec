"""Tests for the controller registry, ScenarioSpec round-trips, and sweeps."""

from __future__ import annotations

import json

import pytest

from repro.baselines.aimd import AIMDController
from repro.baselines.base import (
    ResourceController,
    available_controllers,
    create_controller,
    resolve_controller_name,
)
from repro.baselines.kubernetes_hpa import KubernetesAutoscaler
from repro.cli import main
from repro.core.firm import FIRMController
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, run_scenario
from repro.experiments.sweep import expand_grid, run_sweep, scenario_cell


class TestControllerRegistry:
    def test_builtin_controllers_registered(self):
        names = available_controllers()
        assert {"firm", "firm_multi", "kubernetes_hpa", "aimd", "none"} <= set(names)

    def test_aliases_resolve(self):
        assert resolve_controller_name("k8s") == "kubernetes_hpa"
        assert resolve_controller_name("firm_single") == "firm"
        assert resolve_controller_name("aimd") == "aimd"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown controller"):
            resolve_controller_name("does-not-exist")

    def test_create_controller_by_name(self, cluster, coordinator, orchestrator, engine):
        aimd = create_controller("aimd", cluster, coordinator, orchestrator, engine)
        assert isinstance(aimd, AIMDController)
        k8s = create_controller("k8s", cluster, coordinator, orchestrator, engine)
        assert isinstance(k8s, KubernetesAutoscaler)
        firm = create_controller("firm", cluster, coordinator, orchestrator, engine)
        assert isinstance(firm, FIRMController)
        assert create_controller("none", cluster, coordinator, orchestrator, engine) is None

    def test_firm_multi_forces_per_service_agents(
        self, cluster, coordinator, orchestrator, engine
    ):
        firm = create_controller("firm_multi", cluster, coordinator, orchestrator, engine)
        assert isinstance(firm, FIRMController)
        assert firm.config.per_service_agents

    def test_kwargs_forwarded(self, cluster, coordinator, orchestrator, engine):
        aimd = create_controller(
            "aimd", cluster, coordinator, orchestrator, engine, control_interval_s=7.0
        )
        assert aimd.control_interval_s == pytest.approx(7.0)

    def test_harness_attach_unknown_controller_raises(self):
        harness = ExperimentHarness.build("hotel_reservation", seed=0)
        with pytest.raises(ValueError, match="unknown controller"):
            harness.attach_controller("made-up-policy")

    def test_attach_controller_stops_replaced_controller(self):
        """Swapping controllers mid-harness must stop the old control loop."""
        harness = ExperimentHarness.build("hotel_reservation", seed=0)
        first = harness.attach_controller("aimd", control_interval_s=5.0)
        harness.attach_workload(load_rps=10.0)
        harness.run(duration_s=11.0)
        assert first.rounds_executed == 2
        harness.attach_controller("k8s")
        harness.run(duration_s=11.0)
        assert first.rounds_executed == 2, "replaced controller kept running"


class TestResourceControllerLoop:
    class _CountingController(ResourceController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = 0

        def control_round(self) -> None:
            self.calls += 1

    @pytest.fixture
    def controller(self, cluster, coordinator, orchestrator, engine):
        return self._CountingController(
            cluster, coordinator, orchestrator, engine, control_interval_s=5.0
        )

    def test_loop_runs_and_counts_rounds(self, controller, engine):
        controller.start()
        engine.run_until(26.0)
        assert controller.calls == 5
        assert controller.rounds_executed == 5

    def test_stop_cancels_pending_recurrence(self, controller, engine):
        """A stopped controller must not keep rescheduling no-op ticks."""
        controller.start()
        engine.run_until(11.0)
        assert controller.calls == 2
        controller.stop()
        processed_before = engine.processed_events
        engine.run_until(200.0)
        assert controller.calls == 2
        # The cancelled recurrence must not execute even as a no-op tick.
        assert engine.processed_events == processed_before

    def test_stop_before_start_is_safe(self, controller, engine):
        controller.stop()
        controller.start()
        engine.run_until(6.0)
        assert controller.calls == 1

    def test_restart_after_stop(self, controller, engine):
        controller.start()
        engine.run_until(6.0)
        controller.stop()
        controller.start()
        engine.run_until(engine.now + 6.0)
        assert controller.calls == 2


class TestScenarioSpec:
    def test_round_trip_is_deterministic(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=3,
            duration_s=12.0,
            load_rps=20.0,
            controller="aimd",
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.summary() == second.summary()
        assert first.slo.completed > 0

    def test_unknown_controller_rejected(self):
        spec = ScenarioSpec(application="hotel_reservation", controller="nope")
        with pytest.raises(ValueError, match="unknown controller"):
            spec.build()

    def test_from_spec_wires_controller_and_workload(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=1,
            duration_s=10.0,
            load_rps=15.0,
            controller="k8s",
        )
        harness = ExperimentHarness.from_spec(spec)
        assert isinstance(harness.controller, KubernetesAutoscaler)
        assert harness.controller_name == "k8s"
        assert harness.workload is not None
        assert harness.spec is spec

    def test_build_matches_from_spec(self):
        """``build`` and ``from_spec`` wire the same pipeline for one app and seed."""
        from test_shard_determinism import _fingerprint

        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=3,
            duration_s=8.0,
            load_rps=20.0,
            controller="aimd",
        )
        built = ExperimentHarness.build(spec.application, spec.seed)
        built.attach_workload(load_rps=spec.load_rps)
        built.attach_controller(spec.controller)
        from_spec = ExperimentHarness.from_spec(spec)
        results = [harness.run(duration_s=spec.duration_s) for harness in (built, from_spec)]
        assert _fingerprint(results[0]) == _fingerprint(results[1])
        digests = [result.telemetry_digest for result in results]
        assert digests[0] is not None
        assert digests[0].as_dict() == digests[1].as_dict()

    def test_with_overrides(self):
        spec = ScenarioSpec(seed=1, controller="firm")
        other = spec.with_overrides(seed=2)
        assert other.seed == 2
        assert other.controller == "firm"
        assert spec.seed == 1

    def test_scenario_id_stable(self):
        spec = ScenarioSpec(application="a", controller="c", seed=4, load_rps=10.0, duration_s=5.0)
        assert spec.scenario_id == "a/c/seed=4/load=10/duration=5"


class TestStreamingSLOAccounting:
    def test_reservoir_discarded_traces_still_counted(self):
        """The reservoir bounds trace retention, not SLO accounting."""
        from repro.tracing.store import DEFAULT_RESERVOIR_CAPACITY

        harness = ExperimentHarness.from_spec(
            ScenarioSpec(application="hotel_reservation", seed=1, load_rps=25.0)
        )
        result = harness.run(duration_s=15.0)
        store = harness.coordinator.store
        # Retained = reservoir residents plus still-in-flight traces.
        assert len(store) <= DEFAULT_RESERVOIR_CAPACITY + 64
        # Accounting saw every completion, not just the retained sample.
        assert result.slo.completed >= len(store)
        assert result.slo.completed == harness.coordinator.telemetry_digest().completed

    def test_drop_after_completion_counts_as_dropped(self):
        """A request that completes and is then dropped by a background call
        must count as dropped, matching the old end-of-run accounting."""
        from repro.metrics.slo import SLOTracker
        from repro.tracing.trace import Trace

        tracker = SLOTracker({"main": 100.0})
        trace = Trace("r1", "main")
        trace.arrival_time = 0.0
        trace.mark_complete(0.5)  # 500 ms: a violation
        tracker.observe(trace)
        assert (tracker.completed, tracker.violations, tracker.dropped) == (1, 1, 0)
        trace.mark_dropped()
        tracker.reclassify_as_dropped(trace)
        assert (tracker.completed, tracker.violations, tracker.dropped) == (0, 0, 1)
        assert tracker.latencies_ms == []

    def test_back_to_back_runs_do_not_double_sample(self):
        """The harness-sample recurrence must not outlive its run."""
        harness = ExperimentHarness.from_spec(
            ScenarioSpec(application="hotel_reservation", seed=1, load_rps=15.0)
        )
        first = harness.run(duration_s=10.0, sample_period_s=1.0)
        second = harness.run(duration_s=10.0, sample_period_s=1.0)
        assert len(first.requested_cpu_samples) <= 11
        assert len(second.requested_cpu_samples) <= 11


class TestSweep:
    def _grid(self):
        return expand_grid(
            scenario_cell,
            {"controller": ("none", "aimd"), "seed": (0, 1)},
            application="hotel_reservation",
            load_rps=15.0,
            duration_s=8.0,
        )

    def test_grid_shape_and_order(self):
        specs = self._grid()
        assert len(specs) == 4
        assert [s.controller for s in specs] == ["none", "none", "aimd", "aimd"]
        assert [s.seed for s in specs] == [0, 1, 0, 1]

    def test_serial_matches_parallel(self):
        specs = self._grid()
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert [o.scenario_id for o in serial] == [o.scenario_id for o in parallel]
        for left, right in zip(serial, parallel):
            assert left.summary == right.summary

    def test_progress_callback_in_order(self):
        specs = self._grid()[:2]
        seen = []
        run_sweep(specs, workers=1, progress=lambda done, total, o: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_outcome_as_dict_flattens(self):
        outcome = run_sweep(self._grid()[:1], workers=1)[0]
        row = outcome.as_dict()
        assert row["application"] == "hotel_reservation"
        assert row["controller"] == "none"
        assert "p99_ms" in row and "completed" in row


class TestSweepCLI:
    def test_sweep_subcommand_runs_and_writes(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "scenario",
            "--set", "application=hotel_reservation",
            "--grid", "controller=none,aimd",
            "--set", "seed=0",
            "--set", "load_rps=12",
            "--set", "duration_s=6",
            "--workers", "1",
            "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert {row["controller"] for row in rows} == {"none", "aimd"}
