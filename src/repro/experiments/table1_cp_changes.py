"""Table 1 — critical path changes under performance anomaly injection.

The paper injects anomalies into three services of the Social Network
post-compose path (video ``V``, userTag ``U``, text ``T``) and shows that
the critical path shifts to whichever service is under contention, with the
per-service and end-to-end latencies changing accordingly (up to 1.6x
variation in end-to-end latency across the three cases).

The experiment reproduces the three ``<service, CP>`` cases: one run per
targeted service, reporting the mean per-service latency on the extracted
CPs and the mean end-to-end latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.core.critical_path import CriticalPathExtractor
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec

#: The paper's Table 1 service columns (short label -> service name).
TABLE1_SERVICES: Dict[str, str] = {
    "N": "nginx",
    "V": "video",
    "U": "userTag",
    "I": "uniqueID",
    "T": "text",
    "C": "composePost",
}

#: The three injection cases of Table 1 (target short label).
TABLE1_CASES = ("V", "U", "T")


@dataclass
class Table1Row:
    """One row of Table 1: per-service latencies plus the total."""

    case: str
    target_service: str
    per_service_latency_ms: Dict[str, float]
    total_latency_ms: float
    cp_services: List[str] = field(default_factory=list)


def run_table1_case(
    target_label: str,
    duration_s: float = 60.0,
    load_rps: float = 40.0,
    intensity: float = 0.85,
    seed: int = 3,
) -> Table1Row:
    """Run one ``<service, CP>`` case of Table 1."""
    if target_label not in TABLE1_SERVICES:
        raise KeyError(f"unknown Table 1 service label {target_label!r}")
    target_service = TABLE1_SERVICES[target_label]
    campaign = AnomalyCampaign(f"table1:{target_label}")
    anomaly_type = (
        AnomalyType.CPU_UTILIZATION
        if target_label in ("U", "T", "C")
        else AnomalyType.MEMORY_BANDWIDTH
    )
    campaign.add(
        AnomalySpec(
            anomaly_type=anomaly_type,
            target_service=target_service,
            start_s=10.0,
            duration_s=duration_s - 10.0,
            intensity=intensity,
        )
    )
    harness = ExperimentHarness.from_spec(
        ScenarioSpec(
            application="social_network",
            seed=seed,
            duration_s=duration_s,
            load_rps=load_rps,
            request_mix=[("post-compose", 1.0)],
            controller="none",
            campaign=campaign,
        )
    )
    harness.run(duration_s=duration_s)

    extractor = CriticalPathExtractor()
    traces = [
        trace
        for trace in harness.tenants[0].coordinator.store.completed_traces("post-compose")
        if (trace.arrival_time or 0.0) >= 15.0
    ]
    paths = extractor.extract_all(traces)

    per_service: Dict[str, List[float]] = {label: [] for label in TABLE1_SERVICES}
    totals: List[float] = []
    cp_service_names: List[str] = []
    for trace, path in zip(traces, paths):
        totals.append(trace.end_to_end_latency_ms)
        for label, service in TABLE1_SERVICES.items():
            per_service[label].append(trace.latency_of_service(service))
        for service in path.services:
            if service not in cp_service_names:
                cp_service_names.append(service)

    row = Table1Row(
        case=f"<{target_label},CP>",
        target_service=target_service,
        per_service_latency_ms={
            label: float(np.mean(samples)) if samples else 0.0
            for label, samples in per_service.items()
        },
        total_latency_ms=float(np.mean(totals)) if totals else 0.0,
        cp_services=cp_service_names,
    )
    return row


def run_table1(
    duration_s: float = 60.0,
    load_rps: float = 40.0,
    intensity: float = 0.85,
    seed: int = 3,
) -> List[Table1Row]:
    """Reproduce all three Table 1 rows."""
    return [
        run_table1_case(
            label, duration_s=duration_s, load_rps=load_rps, intensity=intensity, seed=seed
        )
        for label in TABLE1_CASES
    ]
