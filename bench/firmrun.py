"""One firmbench run: build a workload, time it, check and digest its outputs.

``firmbench.py`` starts ``python3 bench/firmrun.py <workload> <seed> <0|1>``
once per run, in a fresh process with GC on, and reads the JSON record it
prints.  Tests call :func:`run` in-process with short durations.

Workloads are built through the public harness API only:
``ExperimentHarness.from_spec`` -> ``begin_run`` -> ``RunSession.advance_to``
in :data:`SLICE_S` slices -> ``finish``.  Sliced advancing is byte-identical
to ``ExperimentHarness.run()``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from functools import partial
from typing import Dict, List, Optional

from repro.anomaly.anomalies import ANOMALY_TYPES, AnomalyScope, AnomalyType
from repro.anomaly.campaigns import random_campaign, single_anomaly_sweep
from repro.apps.catalog import build_application
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, TenantSpec
from repro.sim.rng import SeededRNG

import hostprobe
from layertrace import LayerTracer

#: Simulated seconds per timed slice.
SLICE_S = 0.25

#: Harness builds per run; the last one is the one that runs.
SETUP_BUILDS = 7

#: Simulated seconds of each workload.
DURATIONS_S: Dict[str, float] = {
    "steady": 120.0,
    "firm_colocated": 30.0,
    "replica_fleet": 60.0,
    "overload_admission": 60.0,
}

#: Seed of the firm_colocated interference schedule.  A schedule drawn from
#: the run seed makes FIRM's scale-outs, and with them host time, differ
#: twofold between seeds; a fixed schedule keeps the seed to arrivals,
#: service times and learning.
INTERFERENCE_SEED = 0

_MIB = 1024.0 * 1024.0


def _replicas(application: str, count: int) -> Dict[str, int]:
    return {service: count for service in build_application(application).services}


def _fixed_interference(tenant, duration_s: float):
    """Resource-only random anomalies over the tenant's services, fixed seed."""
    return random_campaign(
        tenant.app.service_names(),
        SeededRNG(INTERFERENCE_SEED),
        duration_s=duration_s,
        rate_per_s=0.33,
        min_intensity=0.7,
        anomaly_types=[a for a in ANOMALY_TYPES if a is not AnomalyType.WORKLOAD_VARIATION],
        start_s=0.5,
    )


def build_spec(workload: str, seed: int, duration_s: Optional[float] = None) -> ScenarioSpec:
    """The scenario of ``workload`` (see bench/README.md for why each exists)."""
    if workload not in DURATIONS_S:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(DURATIONS_S)}")
    if duration_s is None:
        duration_s = DURATIONS_S[workload]
    if workload == "steady":
        return ScenarioSpec(
            application="social_network", seed=seed, duration_s=duration_s, load_rps=60.0
        )
    if workload == "firm_colocated":
        victim = TenantSpec(
            name="victim",
            application="social_network",
            load_rps=30.0,
            controller="firm",
            campaign_builder=partial(_fixed_interference, duration_s=duration_s),
        )
        aggressor = TenantSpec(
            name="aggressor", application="hotel_reservation", load_rps=40.0, controller="aimd"
        )
        return ScenarioSpec(
            seed=seed, duration_s=duration_s, cluster_nodes=(2, 0), tenants=[victim, aggressor]
        )
    if workload == "replica_fleet":
        return ScenarioSpec(
            application="social_network",
            seed=seed,
            duration_s=duration_s,
            load_rps=120.0,
            replicas=_replicas("social_network", 3),
        )
    # overload_admission: a 12 s CPU anomaly on every replica of the first
    # service by name (the metastable experiments' trigger) every 30 s.
    # Shorter bursts or 100 rps leave some seeds without a single shed.
    bursts = max(1, math.ceil((duration_s - 5.0) / 30.0))
    trigger = single_anomaly_sweep(
        AnomalyType.CPU_UTILIZATION,
        build_application("social_network").service_names()[0],
        intensities=[0.9] * bursts,
        step_duration_s=12.0,
        gap_s=18.0,
        start_s=5.0,
        scope=AnomalyScope.SERVICE_WIDE,
    )
    return ScenarioSpec(
        application="social_network",
        seed=seed,
        duration_s=duration_s,
        load_rps=110.0,
        replicas=_replicas("social_network", 2),
        dispatchers=3,
        dispatch_variant="jiq",
        admission="survival_kit",
        campaign=trigger,
    )


def model_outputs(harness: ExperimentHarness, result) -> Dict[str, object]:
    """The simulated results a perf or simplicity change must leave unchanged."""
    return {
        "summary": result.summary(),
        "per_tenant": result.per_tenant_summary(),
        "events": harness.engine.processed_events,
        "admission": result.admission,
    }


def digest(outputs: Dict[str, object]) -> str:
    """sha256 over the canonical JSON form of :func:`model_outputs`."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_outputs(outputs: Dict[str, object], clock_s: float, duration_s: float) -> List[str]:
    """Every way the run's outputs are inconsistent (empty when they check out)."""
    problems = []
    if clock_s != duration_s:
        problems.append(f"engine clock {clock_s!r} != duration {duration_s!r} at finish()")
    summaries = {"run": outputs["summary"], **outputs["per_tenant"]}
    for name, summary in summaries.items():
        if not 0.0 <= summary["violation_rate"] <= 1.0:
            problems.append(f"{name}: violation_rate {summary['violation_rate']!r} not in [0, 1]")
        if not summary["completed"] > 0:
            problems.append(f"{name}: no request completed")
    admission = outputs["admission"]
    if admission is None:
        gates = {}
    elif "submitted" in admission:
        gates = {"run": admission}
    else:
        gates = admission
    for name, gate in gates.items():
        if gate["submitted"] != gate["admitted"] + gate["shed"]:
            problems.append(f"{name}: admission submitted != admitted + shed")
        if gate["admitted"] != gate["succeeded"] + gate["failed"] + gate["in_flight"]:
            problems.append(f"{name}: admission admitted != succeeded + failed + in_flight")
    return problems


def _admission_counters(outputs: Dict[str, object]) -> Dict[str, float]:
    admission = outputs["admission"]
    if admission is None:
        # No gate: every request is one attempt and nothing is shed.
        summary = outputs["summary"]
        finished = summary["completed"] + summary["dropped"]
        return {
            "admission.amplification": 1.0,
            "admission.shed_pct": 0.0,
            "admission.useful_pct": 100.0 * summary["completed"] / finished,
        }
    gates = [admission] if "submitted" in admission else list(admission.values())
    total = {
        key: sum(gate[key] for gate in gates)
        for key in ("submitted", "admitted", "shed", "attempts", "succeeded")
    }
    return {
        "admission.amplification": total["attempts"] / total["admitted"],
        "admission.shed_pct": 100.0 * total["shed"] / total["submitted"],
        "admission.useful_pct": 100.0 * total["succeeded"] / total["attempts"],
    }


def counters(harness: ExperimentHarness, outputs: Dict[str, object]) -> Dict[str, float]:
    """Exact per-layer counters read from the finished run's public state."""
    containers = [c for node in harness.cluster.nodes for c in node.containers]
    enforced = sum(1 for c in containers if c.partition_enforced)
    tenants = harness.tenants
    return {
        "sim.events": harness.engine.processed_events,
        "sim.events_per_sim_s": harness.engine.processed_events / harness.engine.now,
        "cluster.node.containers_max": max(len(node.containers) for node in harness.cluster.nodes),
        "cluster.node.enforced_pct": 100.0 * enforced / len(containers),
        "cluster.orchestrator.actions": sum(len(t.orchestrator.history) for t in tenants),
        "controllers.rounds": sum(t.controller.rounds_executed for t in tenants if t.controller),
        **_admission_counters(outputs),
        "tracing.retained_mb": sum(t.coordinator.memory_bytes() for t in tenants) / _MIB,
        "cluster.telemetry.retained_mb": harness.telemetry.memory_bytes() / _MIB,
    }


def run(
    workload: str,
    seed: int,
    traced: bool = False,
    duration_s: Optional[float] = None,
    builds: int = SETUP_BUILDS,
) -> Dict[str, object]:
    """Build the scenario ``seed`` of ``workload`` ``builds`` times, run the last build, and report.

    The record holds the host seconds of each build (``setup_s``) and of
    each :data:`SLICE_S` slice of the run (``slice_s``; the last one
    includes ``finish()``), the host probe's time before the first build
    and after each (``setup_probe_s``) and before the first slice and after
    each (``slice_probe_s``), so that two probes bracket every timed
    interval, the process's peak RSS, the model outputs with their digest
    and check problems, the exact counters, and with ``traced`` the
    per-layer self times and span counts of the slices.
    """
    spec = build_spec(workload, seed, duration_s)
    duration_s = spec.duration_s
    slices = math.ceil(duration_s / SLICE_S)
    tracer = LayerTracer() if traced else None
    with tracer if tracer is not None else nullcontext():
        setup_s, setup_probe_s = [], [hostprobe.probe_s()]
        for build in range(builds):
            start = time.perf_counter()
            harness = ExperimentHarness.from_spec(spec)
            session = harness.begin_run(
                duration_s=duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
            setup_s.append(time.perf_counter() - start)
            setup_probe_s.append(hostprobe.probe_s())
            if build < builds - 1:
                session.abort()
        if tracer is not None:
            tracer.clear()
        slice_s, slice_probe_s = [], [hostprobe.probe_s()]
        for index in range(1, slices + 1):
            start = time.perf_counter()
            session.advance_to(min(index * SLICE_S, duration_s))
            if index == slices:
                result = session.finish()
            slice_s.append(time.perf_counter() - start)
            slice_probe_s.append(hostprobe.probe_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = model_outputs(harness, result)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "duration_s": duration_s,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "slice_s": slice_s,
        "slice_probe_s": slice_probe_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "digest": digest(outputs),
        "problems": check_outputs(outputs, harness.engine.now, duration_s),
        "counters": counters(harness, outputs),
    }
    if tracer is not None:
        record["layers"] = {"self_s": tracer.self_s, "calls": tracer.calls}
    return record


if __name__ == "__main__":
    name, seed_arg, traced_arg = sys.argv[1:]
    print(json.dumps(run(name, int(seed_arg), traced=traced_arg == "1")))
