"""Integration tests for the application runtime (request execution)."""

from __future__ import annotations

import pytest

from repro.apps.graph import CallEdge, CallPattern, RequestType, ServiceGraph, frontend_profile, logic_profile, background_profile
from repro.apps.runtime import ApplicationRuntime
from repro.cluster.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRNG
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.span import SpanKind


def _tiny_app() -> ServiceGraph:
    """fe -> (a ∥ b) -> c sequential, plus a background worker."""
    graph = ServiceGraph("tiny")
    graph.add_service(frontend_profile("fe", base_ms=1.0))
    graph.add_service(logic_profile("a", base_ms=2.0))
    graph.add_service(logic_profile("b", base_ms=3.0))
    graph.add_service(logic_profile("c", base_ms=1.5))
    graph.add_service(background_profile("bg", base_ms=10.0))
    graph.add_request_type(
        RequestType(
            name="main",
            entry_service="fe",
            call_plan=[
                CallEdge("a", CallPattern.PARALLEL),
                CallEdge("b", CallPattern.PARALLEL),
                CallEdge("c", CallPattern.SEQUENTIAL),
                CallEdge("bg", CallPattern.BACKGROUND),
            ],
            slo_latency_ms=100.0,
        )
    )
    graph.validate()
    return graph


@pytest.fixture
def tiny_runtime():
    engine = SimulationEngine()
    rng = SeededRNG(9)
    cluster = Cluster(engine, rng)
    coordinator = TracingCoordinator(engine)
    runtime = ApplicationRuntime(_tiny_app(), cluster, coordinator, engine)
    runtime.deploy()
    return runtime, engine, coordinator, cluster


class TestDeployment:
    def test_deploy_creates_all_services(self, tiny_runtime):
        runtime, _, _, cluster = tiny_runtime
        assert set(cluster.services()) == {"fe", "a", "b", "c", "bg"}

    def test_deploy_registers_slos(self, tiny_runtime):
        runtime, _, coordinator, _ = tiny_runtime
        assert coordinator.slo_latency_ms["main"] == 100.0

    def test_deploy_is_idempotent(self, tiny_runtime):
        runtime, _, _, cluster = tiny_runtime
        count = len(cluster.all_containers())
        runtime.deploy()
        assert len(cluster.all_containers()) == count

    def test_submit_before_deploy_raises(self):
        engine = SimulationEngine()
        rng = SeededRNG(0)
        cluster = Cluster(engine, rng)
        coordinator = TracingCoordinator(engine)
        runtime = ApplicationRuntime(_tiny_app(), cluster, coordinator, engine)
        with pytest.raises(RuntimeError):
            runtime.submit_request("main")


class TestExecution:
    def test_request_completes(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        assert trace.is_complete
        assert runtime.coordinator.telemetry_digest().completed == 1

    def test_trace_contains_foreground_spans(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        services = {span.service for span in trace.spans}
        assert {"fe", "a", "b", "c"} <= services

    def test_background_span_traced_but_not_blocking(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(0.05)
        # The request should complete well before the 10 ms background task
        # would have forced it to wait (fe+max(a,b)+c ≈ 6 ms).
        assert trace.is_complete
        engine.run_until(5.0)
        kinds = {span.service: span.kind for span in trace.spans}
        assert kinds["bg"] is SpanKind.BACKGROUND

    def test_parallel_children_overlap(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        spans = {span.service: span for span in trace.spans}
        assert spans["a"].overlaps(spans["b"])

    def test_sequential_child_after_parallel_stage(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        spans = {span.service: span for span in trace.spans}
        assert spans["c"].enqueue_time >= max(spans["a"].end_time, spans["b"].end_time) - 1e-9

    def test_root_span_is_entry_service(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        assert trace.root.service == "fe"
        assert trace.root.kind is SpanKind.ROOT

    def test_end_to_end_latency_positive(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        assert trace.end_to_end_latency_ms > 0

    def test_end_to_end_at_least_parallel_stage_max(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        spans = {span.service: span for span in trace.spans}
        stage_max = max(spans["a"].sojourn_time_ms, spans["b"].sojourn_time_ms)
        assert trace.end_to_end_latency_ms >= stage_max

    def test_many_requests_all_complete(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        traces = [runtime.submit_request("main") for _ in range(50)]
        engine.run_until(30.0)
        assert all(trace.is_complete for trace in traces)
        assert runtime.coordinator.telemetry_digest().completed == 50

    def test_unknown_request_type_raises(self, tiny_runtime):
        runtime, _, _, _ = tiny_runtime
        with pytest.raises(KeyError):
            runtime.submit_request("nope")

    def test_on_complete_callback_invoked(self, tiny_runtime):
        runtime, engine, _, _ = tiny_runtime
        seen = []
        runtime.submit_request("main", on_complete=lambda trace: seen.append(trace.request_id))
        engine.run_until(5.0)
        assert len(seen) == 1

    def test_dropped_requests_counted_once(self, tiny_runtime):
        runtime, engine, _, cluster = tiny_runtime
        for instance in cluster.replicas_of("a"):
            instance.max_queue_length = 0
        digest = runtime.coordinator.telemetry_digest()
        trace = runtime.submit_request("main")
        engine.run_until(5.0)
        assert trace.dropped and not trace.is_complete
        assert (digest.completed, digest.dropped) == (0, 1)


# ---------------------------------------------------------------------------
# Span structure pin: every request type of every catalog application
# ---------------------------------------------------------------------------

def _span_structure(application: str, seed: int, squeeze: bool) -> str:
    """One line per span of a few seeded requests of every request type.

    Each line holds the span's service, kind, parent service, dropped flag,
    enqueue/start/end times (``repr``, so exact) and its rank among the
    trace's span ids; spans are listed in the order they were recorded.
    With ``squeeze`` every third non-entry service rejects every span and
    the last one has no replicas left, so the drop path and the
    undeployed-callee path are pinned too.
    """
    from repro.apps.catalog import build_application

    app = build_application(application)
    engine = SimulationEngine()
    cluster = Cluster(engine, SeededRNG(seed))
    coordinator = TracingCoordinator(engine)
    runtime = ApplicationRuntime(app, cluster, coordinator, engine)
    runtime.deploy()
    if squeeze:
        entries = {rt.entry_service for rt in app.request_types.values()}
        inner = [service for service in cluster.services() if service not in entries]
        for service in inner[::3]:
            for instance in cluster.replicas_of(service):
                instance.max_queue_length = 0
        for instance in cluster.replicas_of(inner[-1]):
            cluster.remove_instance(instance)
    traces = []
    for index, name in enumerate(sorted(app.request_types) * 3):
        engine.schedule(
            0.0005 * index,
            lambda eng, name=name: traces.append(runtime.submit_request(name)),
        )
    engine.run_until(30.0)
    digest = coordinator.telemetry_digest()
    lines = [f"completed={digest.completed} dropped={digest.dropped}"]
    for trace in traces:
        recorded = list(trace._spans.values())
        ranks = {span_id: rank for rank, span_id in enumerate(sorted(trace._spans))}
        lines.append(f"{trace.request_type} dropped={trace.dropped}")
        for span in recorded:
            parent = trace._spans.get(span.parent_id)
            lines.append(
                f"  {ranks[span.span_id]} {span.service} {span.kind.value} "
                f"<- {parent.service if parent is not None else '-'} "
                f"dropped={span.dropped} {span.enqueue_time!r} "
                f"{span.start_time!r} {span.end_time!r}"
            )
    return "\n".join(lines)


#: sha256 of :func:`_span_structure` per (application, squeeze).
_SPAN_STRUCTURE_DIGESTS = {
    ("social_network", False): "d7980fb7ee3964da4107a45aa144e0f48c3222b867db96bb2d42b1c9dc42ed9d",
    ("social_network", True): "73fa3ab29edd21db6769f86555f637efa425433eb28f257f0ecad0e752dddb8b",
    ("media_service", False): "2e5b1ae453fb47b467219834a2db95208486ce5c77ee0f7d1826e8268c5b158a",
    ("media_service", True): "d87cab88fa3cc2bd3beccfc24f03f23edcf08bd9567b0146ca47ef2b93460c4c",
    ("hotel_reservation", False): "653f12cfbf0ebf955d9e0f3add4ea70898b9ccb2f56039cd24c762be16094530",
    ("hotel_reservation", True): "534171f056c126bb80be06a098eeef4c8f792042ff0fdd20e6b67ceadca93c44",
    ("train_ticket", False): "88c044caaffa95bc7678c98d1210584d032101be8a67f437ab670fa8a7ee76ff",
    ("train_ticket", True): "1b67417e89abee2ab62ce3b660a83f186cf45338d0c67f67bd6271cefff29077",
}


class TestSpanStructurePin:
    """The request path's spans, byte for byte, on every catalog app."""

    @pytest.mark.parametrize("squeeze", [False, True], ids=["free", "squeezed"])
    @pytest.mark.parametrize(
        "application", ["social_network", "media_service", "hotel_reservation", "train_ticket"]
    )
    def test_span_structure_is_pinned(self, application, squeeze):
        import hashlib

        text = _span_structure(application, seed=5, squeeze=squeeze)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == _SPAN_STRUCTURE_DIGESTS[(application, squeeze)], text


class TestCompileOnce:
    """Each request type's call tree is compiled once, at deploy."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The request-type name of every plan compiled, in order."""
        from repro.apps import runtime as runtime_module

        built = []
        original = runtime_module.compile_plan

        def counted(request_type):
            built.append(request_type.name)
            return original(request_type)

        monkeypatch.setattr(runtime_module, "compile_plan", counted)
        return built

    @pytest.mark.parametrize("tenanted", [False, True], ids=["steady", "two_tenants"])
    def test_one_compile_per_request_type_per_runtime(self, compiled, tenanted):
        from repro.experiments.harness import ExperimentHarness
        from repro.experiments.scenario import ScenarioSpec, TenantSpec

        if tenanted:
            spec = ScenarioSpec(
                seed=0,
                duration_s=6.0,
                tenants=[
                    TenantSpec(name="a", application="social_network", load_rps=30.0),
                    TenantSpec(name="b", application="hotel_reservation", load_rps=30.0),
                ],
            )
        else:
            spec = ScenarioSpec(
                application="social_network", seed=0, duration_s=6.0, load_rps=60.0
            )
        harness = ExperimentHarness.from_spec(spec)
        harness.run(duration_s=spec.duration_s)
        runtimes = [tenant.runtime for tenant in harness.tenants]
        expected = [name for runtime in runtimes for name in runtime.app.request_types]
        assert sum(t.coordinator.telemetry_digest().completed for t in harness.tenants) > 100
        assert compiled == expected
        for runtime in runtimes:
            runtime.deploy()  # idempotent: compiles nothing
        assert compiled == expected


class TestSpanPathEntryPoints:
    """The per-span path keeps the entry points outside-in layer tracing wraps.

    A tracer that times ``MicroserviceInstance.submit``,
    ``Node.contention_factors`` and the ``span-finish:*`` event callbacks
    passed to ``SimulationEngine.schedule`` sees every span only if each
    span goes through each of them exactly once.
    """

    def test_each_span_passes_every_traced_entry_point_once(self, monkeypatch):
        from repro.cluster.instance import MicroserviceInstance, Work
        from repro.cluster.node import Node
        from repro.experiments.harness import ExperimentHarness
        from repro.experiments.scenario import ScenarioSpec

        counts = {"submit": 0, "contention": 0}
        finishes = []
        submit = MicroserviceInstance.submit
        contention_factors = Node.contention_factors
        schedule = SimulationEngine.schedule

        def counted_submit(self, *args, **kwargs):
            counts["submit"] += 1
            return submit(self, *args, **kwargs)

        def counted_contention(self, *args, **kwargs):
            counts["contention"] += 1
            return contention_factors(self, *args, **kwargs)

        def recorded_schedule(self, time, callback, **kwargs):
            if kwargs.get("name", "").startswith("span-finish:"):
                finishes.append((kwargs["name"], callback))
            return schedule(self, time, callback, **kwargs)

        monkeypatch.setattr(MicroserviceInstance, "submit", counted_submit)
        monkeypatch.setattr(Node, "contention_factors", counted_contention)
        monkeypatch.setattr(SimulationEngine, "schedule", recorded_schedule)
        spec = ScenarioSpec(application="social_network", seed=0, duration_s=4.0, load_rps=60.0)
        harness = ExperimentHarness.from_spec(spec)
        harness.run(duration_s=spec.duration_s)

        instances = [container.instance for container in harness.cluster.all_containers()]
        completed = sum(instance.completed_spans for instance in instances)
        dispatched = completed + sum(instance.in_service for instance in instances)
        spans = dispatched + sum(
            instance.dropped_spans + instance.queue_length for instance in instances
        )
        assert completed > 1000
        assert counts["submit"] == spans
        assert counts["contention"] == dispatched
        assert len(finishes) == dispatched
        for name, callback in finishes:
            assert callback.__func__ is Work.finish
            assert name == f"span-finish:{callback.__self__.instance.name}"
