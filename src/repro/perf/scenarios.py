"""The macro-benchmark scenarios timed by :mod:`repro.perf`.

Each macro benchmark is a representative end-to-end workload exercising a
different slice of the stack:

* ``fig10_single_tenant`` — the classic single-tenant social-network
  scenario (workload + tracing + telemetry, no controller), the shape
  every fig*/table* experiment reduces to;
* ``multitenant_aggressor_victim`` — two tenants co-located on a small
  shared cluster with per-tenant controllers and an aggressor campaign,
  the multi-tenant interference shape;
* ``routing_ewma_sweep`` — replicated services routed by ``ewma_latency``
  under random anomalies, the routing-subsystem shape (policy state,
  completion listeners);
* ``resilience_campaign`` — dense service-wide anomaly arrivals over a
  replicated application, the anomaly-subsystem shape (multi-node target
  resolution, per-node pressure, scale-event refresh);
* ``dispatch_admission`` — a replicated social network behind three
  stale-view JIQ dispatchers with the full survival-kit admission gate
  and a transient anomaly — the distributed-dispatch + admission shape
  (I-queue refresh, token bucket, timeout budgets, retries/hedges,
  breaker bookkeeping);
* ``telemetry_fleet`` — one replicated social_network fleet (every
  service x3), reporting the retained telemetry+trace footprint
  (``telemetry_trace_mb`` extra) next to throughput — the memory story
  of the streaming-sketch pipeline (:mod:`repro.telemetry`);
* ``obs_overhead`` — one controlled scenario with an anomaly campaign
  run twice, observability off then on, reporting per-mode events/sec
  and the relative slowdown (``events_per_s_off`` / ``events_per_s_on``
  / ``overhead_pct`` extras) — the cost story of the run-record
  observability layer (:mod:`repro.obs`), pinned ≤ 5% by test;
* ``controller_stack`` — the composed two-tenant controller stack
  (SVM-gated RL + priority chain) with per-window stage memoization —
  the staged-controller framework's shape (:mod:`repro.controllers`).

Benchmarks are defined declaratively through
:class:`~repro.experiments.scenario.ScenarioSpec` so the timed code path
is exactly the one experiments use — ``ExperimentHarness.from_spec`` +
``harness.run`` — and each carries a ``quick`` duration for the CI smoke
job next to its ``full`` duration for local runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.scenario import ScenarioSpec


@dataclass(frozen=True)
class MacroBenchmark:
    """One named, timed scenario family.

    Attributes
    ----------
    name:
        Stable identifier (keys the committed baseline entries).
    description:
        One-line summary shown in reports.
    full_duration_s / quick_duration_s:
        Simulated seconds for local (``full``) and CI smoke (``quick``)
        runs.  Throughput is wall-clock-normalized, so the two modes are
        comparable; quick mode just trades statistical smoothness for
        runtime.
    build_specs:
        Returns the scenario specs to run (all are timed together, so a
        benchmark may be a small sweep).
    measure_memory:
        Measure the retained telemetry+trace footprint of the scenarios
        after their runs (collector + per-tenant coordinator/store, via
        their ``memory_bytes()`` methods) and attach the total as the
        ``telemetry_trace_mb`` extra.  Measurement happens outside the
        timed window, so it never perturbs throughput numbers.
    measure_overhead:
        Time every scenario separately (in addition to the combined
        timed window) and attach ``events_per_s_off`` /
        ``events_per_s_on`` / ``overhead_pct`` extras comparing the
        specs with ``observability`` off vs on.  The benchmark's
        ``build_specs`` must return one spec of each mode.
    """

    name: str
    description: str
    full_duration_s: float
    quick_duration_s: float
    build_specs: Callable[[float], List[ScenarioSpec]]
    measure_memory: bool = False
    measure_overhead: bool = False

    def specs(self, quick: bool = False) -> List[ScenarioSpec]:
        """The scenario specs for one run of this benchmark."""
        duration = self.quick_duration_s if quick else self.full_duration_s
        return self.build_specs(duration)


def _fig10_single_tenant(duration_s: float) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            application="social_network",
            seed=0,
            duration_s=duration_s,
            load_rps=50.0,
            controller="none",
        ),
    ]


def _multitenant_aggressor_victim(duration_s: float) -> List[ScenarioSpec]:
    # experiments.interference's aggressor_victim preset: a
    # latency-sensitive victim co-located with a heavy aggressor on a
    # small shared cluster, with the benchmark's own duration.
    from repro.experiments.interference import aggressor_victim

    return [aggressor_victim(duration_s=duration_s, seed=0)]


def _routing_ewma_sweep(duration_s: float) -> List[ScenarioSpec]:
    from repro.experiments.routing import routed_tenants

    return [
        routed_tenants(
            policy="ewma_latency",
            controller="none",
            count=1,
            application="social_network",
            seed=0,
            load_rps=40.0,
            duration_s=duration_s,
        )
    ]


def _telemetry_fleet(duration_s: float) -> List[ScenarioSpec]:
    # 3x replication triples the container fleet the collector samples,
    # which is where per-container telemetry state would dominate the
    # footprint if it grew with run length.
    from repro.experiments.routing import replicated_services

    return [
        ScenarioSpec(
            application="social_network",
            seed=0,
            duration_s=duration_s,
            load_rps=120.0,
            controller="none",
            replicas=replicated_services("social_network", 3),
        )
    ]


def _obs_overhead(duration_s: float) -> List[ScenarioSpec]:
    # The same controlled anomaly-campaign scenario twice — observability
    # off then on — so the overhead extras compare the journal+registry
    # instrumentation on an identical workload.  A controller plus a
    # resource-only campaign exercises every instrumented path at once:
    # control rounds, scale actions, routing picks, anomaly
    # inject/clear, and SLO-window transitions.
    from functools import partial

    from repro.experiments.scenario import random_campaign_builder

    base = ScenarioSpec(
        application="social_network",
        seed=0,
        duration_s=duration_s,
        load_rps=60.0,
        controller="aimd",
        campaign_builder=partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=0.5,
            resource_only=True,
            start_s=0.5,
        ),
    )
    return [base, base.with_overrides(observability=True)]


def _controller_stack(duration_s: float) -> List[ScenarioSpec]:
    # Composed stacks pull detection at the gate and again inside the
    # FIRM member, which is exactly the redundancy the per-tenant
    # controller manager memoizes away.
    from repro.experiments.composed import composed_stack_spec

    return [composed_stack_spec(duration_s=duration_s, seed=0)]


def _resilience_campaign(duration_s: float) -> List[ScenarioSpec]:
    # Dense random service-wide anomalies (~1 arrival/s) over a replicated
    # social network: every injection resolves, pressures, and later
    # releases multiple nodes, and scale events trigger target
    # re-resolution — the anomaly subsystem's hot paths, timed end to end.
    from functools import partial

    from repro.experiments.routing import replicated_services
    from repro.experiments.scenario import random_campaign_builder

    return [
        ScenarioSpec(
            application="social_network",
            seed=0,
            duration_s=duration_s,
            load_rps=40.0,
            controller="none",
            replicas=replicated_services("social_network", 2),
            campaign_builder=partial(
                random_campaign_builder,
                duration_s=duration_s,
                rate_per_s=1.0,
                resource_only=True,
                scope="service_wide",
                # Arrivals must start inside even the 5 s quick-mode
                # window, or the CI perf gate would time an anomaly-free
                # scenario.
                start_s=0.5,
            ),
        )
    ]


def _dispatch_admission(duration_s: float) -> List[ScenarioSpec]:
    # A replicated social network behind three stale-JIQ dispatchers with
    # the full survival kit attached and a transient anomaly early in the
    # run: every request crosses the dispatcher views and the admission
    # gate, failures exercise the retry/hedge paths, and the breaker and
    # token-bucket bookkeeping run hot.
    from repro.experiments.metastable import metastable

    return [
        metastable(
            seed=0,
            duration_s=duration_s,
            admission="survival_kit",
            dispatchers=3,
            dispatch_variant="jiq",
            # Arrivals must hit the anomaly inside even the 5 s quick-mode
            # window, or the CI perf gate would time an anomaly-free run.
            anomaly_start_s=0.5,
            anomaly_duration_s=min(5.0, duration_s / 3.0),
            score_window_s=None,
        )
    ]


MACRO_BENCHMARKS: Dict[str, MacroBenchmark] = {
    benchmark.name: benchmark
    for benchmark in (
        MacroBenchmark(
            name="fig10_single_tenant",
            description="single-tenant social_network, open-loop 50 rps, no controller",
            full_duration_s=60.0,
            quick_duration_s=20.0,
            build_specs=_fig10_single_tenant,
        ),
        MacroBenchmark(
            name="multitenant_aggressor_victim",
            description="two co-located tenants, per-tenant controllers, aggressor campaign",
            full_duration_s=20.0,
            quick_duration_s=5.0,
            build_specs=_multitenant_aggressor_victim,
        ),
        MacroBenchmark(
            name="routing_ewma_sweep",
            description="replicated services routed by ewma_latency under anomalies",
            full_duration_s=15.0,
            quick_duration_s=5.0,
            build_specs=_routing_ewma_sweep,
        ),
        MacroBenchmark(
            name="resilience_campaign",
            description="dense service-wide anomaly campaign over replicated services",
            full_duration_s=15.0,
            quick_duration_s=5.0,
            build_specs=_resilience_campaign,
        ),
        MacroBenchmark(
            name="dispatch_admission",
            description="stale-view dispatchers + survival-kit admission under a transient anomaly",
            full_duration_s=15.0,
            quick_duration_s=5.0,
            build_specs=_dispatch_admission,
        ),
        MacroBenchmark(
            name="telemetry_fleet",
            description="replicated social_network fleet (every service x3), retained telemetry",
            full_duration_s=60.0,
            quick_duration_s=6.0,
            build_specs=_telemetry_fleet,
            measure_memory=True,
        ),
        MacroBenchmark(
            name="obs_overhead",
            description="controlled anomaly campaign, observability off vs on",
            full_duration_s=20.0,
            quick_duration_s=5.0,
            build_specs=_obs_overhead,
            measure_overhead=True,
        ),
        MacroBenchmark(
            name="controller_stack",
            description="composed controller stack (SVM-gated RL + priority chain)",
            full_duration_s=15.0,
            quick_duration_s=5.0,
            build_specs=_controller_stack,
        ),
    )
}


def calibration_score(iterations: int = 2_000_000) -> float:
    """A tiny pure-Python work-rate probe (iterations/second).

    Committed events/sec baselines are recorded on one machine and
    compared on another (CI runners, contributors' laptops); the
    calibration score measures how fast the *host* runs straight-line
    Python so `compare` can normalize throughput and flag genuine
    regressions instead of slow hardware.
    """
    import time

    counter = 0
    items: Tuple[int, ...] = (1, 2, 3, 4, 5)
    start = time.perf_counter()
    for _ in range(iterations // len(items)):
        for item in items:
            counter += item
    elapsed = time.perf_counter() - start
    if counter < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return iterations / elapsed if elapsed > 0 else 0.0
