"""Tests for the controller registry, ScenarioSpec round-trips, and sweeps."""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

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
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.experiments.sweep import expand_grid, run_parallel, run_sweep, scenario_cell


def _finish_in_reverse(item: int) -> int:
    """Pool worker whose later items finish first."""
    time.sleep(0.05 * (4 - item))
    return item * 10


def _fail_on_one(job) -> int:
    """Pool worker that raises on item 1 and leaves a marker for the rest."""
    index, directory = job
    if index == 1:
        raise ValueError("item 1 failed")
    time.sleep(0.3)
    (Path(directory) / f"ran-{index}").touch()
    return index


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
        tenant = TenantSpec(name="a", application="hotel_reservation", controller="made-up-policy")
        with pytest.raises(ValueError, match="unknown controller"):
            ExperimentHarness.from_spec(ScenarioSpec(seed=0, tenants=[tenant]))


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
            ExperimentHarness.from_spec(spec)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration_s", 0.0, "duration_s must be > 0"),
            ("duration_s", -1.0, "duration_s must be > 0"),
            ("sample_period_s", 0.0, "sample_period_s must be > 0"),
            ("warmup_s", -0.5, "warmup_s must be >= 0"),
            ("load_rps", -5.0, "load_rps must be >= 0"),
            ("dispatchers", 0, "dispatchers must be >= 1"),
            ("score_window_s", 0.0, "score_window_s must be > 0"),
            ("slo_scale", 0.0, "slo_scale must be > 0"),
            ("slo_scale", -1.0, "slo_scale must be > 0"),
            ("node_quota", 0, "node_quota must be >= 1"),
        ],
    )
    def test_invalid_timing_and_load_rejected(self, field, value, message):
        # Every spec class with the field rejects the value, built directly
        # and through with_overrides alike.
        builders = [
            build for build in (ScenarioSpec, partial(TenantSpec, name="t"))
            if hasattr(build(), field)
        ]
        assert builders
        for build in builders:
            with pytest.raises(ValueError, match=message):
                build(**{field: value})
            with pytest.raises(ValueError, match=message):
                build().with_overrides(**{field: value})

    def test_zero_load_and_warmup_accepted(self):
        spec = ScenarioSpec(load_rps=0.0, warmup_s=0.0)
        assert spec.load_rps == 0.0 and spec.warmup_s == 0.0

    def test_from_spec_wires_controller_and_workload(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=1,
            duration_s=10.0,
            load_rps=15.0,
            controller="k8s",
        )
        harness = ExperimentHarness.from_spec(spec)
        (tenant,) = harness.tenants
        assert isinstance(tenant.controller, KubernetesAutoscaler)
        assert tenant.controller_name == "k8s"
        assert tenant.workload is not None
        assert harness.spec is spec

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
        coordinator = harness.tenants[0].coordinator
        store = coordinator.store
        # Retained = reservoir residents plus still-in-flight traces.
        assert len(store) <= DEFAULT_RESERVOIR_CAPACITY + 64
        # Accounting saw every completion, not just the retained sample.
        assert result.slo.completed >= len(store)
        assert result.slo.completed == coordinator.telemetry_digest().completed

    def test_drop_after_completion_stays_completed(self):
        """A background call rejected after the response was sent leaves the
        request completed: the coordinator settled it at its completion."""
        from repro.metrics.slo import SLOTracker
        from repro.sim.engine import SimulationEngine
        from repro.tracing.coordinator import TracingCoordinator

        coordinator = TracingCoordinator(SimulationEngine())
        tracker = SLOTracker({"main": 100.0})
        coordinator.add_completion_hook(tracker.observe)
        trace = coordinator.begin_trace("r1", "main", arrival_time=0.0)
        coordinator.complete_trace(trace, 0.5)  # 500 ms: a violation
        coordinator.drop_trace(trace)
        assert (tracker.completed, tracker.violations, tracker.dropped) == (1, 1, 0)
        assert tracker.latencies_ms == [500.0]

    def test_aggressor_victim_settles_each_request_once(self, monkeypatch):
        """The saturated aggressor drops requests whose entry span still
        closes; each must still reach the hooks, the counts and the trace
        reservoir exactly once."""
        from collections import Counter

        from repro.experiments.interference import aggressor_victim
        from repro.tracing.coordinator import TracingCoordinator

        begun = Counter()
        begin_trace = TracingCoordinator.begin_trace

        def counting_begin(self, request_id, request_type, arrival_time):
            begun[self.tenant] += 1
            return begin_trace(self, request_id, request_type, arrival_time)

        monkeypatch.setattr(TracingCoordinator, "begin_trace", counting_begin)
        spec = aggressor_victim(duration_s=20.0)
        harness = ExperimentHarness.from_spec(spec)
        settled = Counter()
        for tenant in harness.tenants:
            tenant.coordinator.add_completion_hook(
                lambda trace: settled.update([trace.request_id])
            )
        result = harness.run(duration_s=spec.duration_s)
        assert result.tenant_results["aggressor"].dropped_requests > 0
        assert settled and max(settled.values()) == 1
        for tenant in harness.tenants:
            coordinator = tenant.coordinator
            store = coordinator.store
            digest = coordinator.telemetry_digest()
            in_flight = sum(
                1 for trace in store.all_traces()
                if not trace.dropped and trace.completion_time is None
            )
            assert digest.completed + digest.dropped + in_flight == begun[tenant.tenant_id]
            ids = store.sampler.items
            assert len(set(ids)) == len(ids)
            assert all(store.get(request_id) is not None for request_id in ids)

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

    def test_parallel_results_and_progress_in_input_order(self):
        seen = []
        results = run_parallel(
            range(4), _finish_in_reverse, workers=2,
            progress=lambda done, total, outcome: seen.append((done, total, outcome)),
        )
        assert results == [0, 10, 20, 30]
        assert seen == [(1, 4, 0), (2, 4, 10), (3, 4, 20), (4, 4, 30)]

    def test_parallel_failure_raises_and_cancels_queued_items(self, tmp_path):
        jobs = [(index, str(tmp_path)) for index in range(16)]
        with pytest.raises(ValueError, match="item 1 failed"):
            run_parallel(jobs, _fail_on_one, workers=2)
        # Only the items already handed to a worker ran; the queue was dropped.
        assert len(list(tmp_path.iterdir())) < len(jobs) - 2

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
