"""Cross-tenant interference experiments (multi-tenant co-location study).

FIRM's motivation is SLO violations caused by microservices *sharing*
cluster resources.  This module studies exactly that regime across
applications: multiple tenants, each a full application with its own
workload, SLOs, and (optionally) controller, co-located on one simulated
cluster so contention flows between them through the shared nodes.

Three scenario presets cover the canonical shapes:

* :func:`aggressor_victim` — a lightly loaded, latency-sensitive victim
  shares nodes with a heavily loaded aggressor (optionally one that also
  triggers resource anomalies on its own services, spilling node pressure
  onto the victim);
* :func:`noisy_neighbor_ramp` — the aggressor's load grows exponentially,
  so the victim's latency degrades progressively as the neighbour gets
  noisier;
* :func:`identical_tenants` — N copies of the same tenant, the symmetric
  consolidation scenario (how many tenants fit before SLOs collapse?).

:func:`run_interference` quantifies interference directly: it runs the
co-located scenario and then each tenant *alone* on an identical cluster,
and reports per-tenant degradation factors (p99 and violation-rate ratios
co-located vs. isolated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.experiments.scenario import (
    ScenarioSpec,
    TenantSpec,
    random_campaign_builder,
    run_scenario,
)
from repro.workload.patterns import ExponentialRampPattern

#: Small-cluster topology (x86, ppc64) that makes co-location contention
#: easy to provoke; the paper-scale 15-node default dilutes two tenants
#: too much for a compact interference study.
DEFAULT_INTERFERENCE_NODES: Tuple[int, int] = (1, 0)


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------

def aggressor_victim(
    victim_application: str = "hotel_reservation",
    aggressor_application: str = "social_network",
    victim_load_rps: float = 15.0,
    aggressor_load_rps: float = 300.0,
    victim_controller: str = "none",
    aggressor_controller: str = "none",
    victim_slo_scale: float = 1.0,
    aggressor_anomaly_rate_per_s: float = 0.0,
    duration_s: float = 30.0,
    seed: int = 0,
    cluster_nodes: Optional[Tuple[int, int]] = DEFAULT_INTERFERENCE_NODES,
    placement: Optional[str] = None,
) -> ScenarioSpec:
    """A latency-sensitive victim co-located with a heavy aggressor.

    ``aggressor_anomaly_rate_per_s > 0`` additionally injects random
    resource anomalies against the aggressor's services; the injected node
    pressure lands on the shared nodes, so the victim feels it too — the
    classic noisy-neighbour failure mode.
    """
    campaign_builder = None
    if aggressor_anomaly_rate_per_s > 0:
        campaign_builder = partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=aggressor_anomaly_rate_per_s,
            resource_only=True,
        )
    return ScenarioSpec(
        seed=seed,
        duration_s=duration_s,
        cluster_nodes=cluster_nodes,
        placement=placement,
        tenants=[
            TenantSpec(
                name="victim",
                application=victim_application,
                load_rps=victim_load_rps,
                controller=victim_controller,
                slo_scale=victim_slo_scale,
            ),
            TenantSpec(
                name="aggressor",
                application=aggressor_application,
                load_rps=aggressor_load_rps,
                controller=aggressor_controller,
                campaign_builder=campaign_builder,
            ),
        ],
    )


def noisy_neighbor_ramp(
    victim_application: str = "hotel_reservation",
    aggressor_application: str = "social_network",
    victim_load_rps: float = 15.0,
    aggressor_initial_rps: float = 20.0,
    aggressor_growth_per_s: float = 0.1,
    aggressor_max_rps: float = 500.0,
    victim_controller: str = "none",
    duration_s: float = 40.0,
    seed: int = 0,
    cluster_nodes: Optional[Tuple[int, int]] = DEFAULT_INTERFERENCE_NODES,
    placement: Optional[str] = None,
) -> ScenarioSpec:
    """A victim sharing nodes with an exponentially ramping aggressor."""
    return ScenarioSpec(
        seed=seed,
        duration_s=duration_s,
        cluster_nodes=cluster_nodes,
        placement=placement,
        tenants=[
            TenantSpec(
                name="victim",
                application=victim_application,
                load_rps=victim_load_rps,
                controller=victim_controller,
            ),
            TenantSpec(
                name="aggressor",
                application=aggressor_application,
                pattern=ExponentialRampPattern(
                    initial_rate=aggressor_initial_rps,
                    growth_per_s=aggressor_growth_per_s,
                    max_rate=aggressor_max_rps,
                ),
            ),
        ],
    )


def identical_tenants(
    count: int = 2,
    application: str = "hotel_reservation",
    load_rps: float = 25.0,
    controller: str = "none",
    duration_s: float = 30.0,
    seed: int = 0,
    cluster_nodes: Optional[Tuple[int, int]] = DEFAULT_INTERFERENCE_NODES,
    placement: Optional[str] = None,
    node_quota: Optional[int] = None,
    anomaly_rate_per_s: float = 0.0,
) -> ScenarioSpec:
    """N identical tenants co-located on one cluster (consolidation study).

    ``anomaly_rate_per_s > 0`` gives every tenant its own seed-derived
    random resource-anomaly campaign (each tenant's RNG family is
    independent, so campaigns differ between tenants but are reproducible).
    """
    if count < 1:
        raise ValueError("identical_tenants needs at least one tenant")
    campaign_builder = None
    if anomaly_rate_per_s > 0:
        campaign_builder = partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=anomaly_rate_per_s,
            resource_only=True,
        )
    return ScenarioSpec(
        seed=seed,
        duration_s=duration_s,
        cluster_nodes=cluster_nodes,
        placement=placement,
        tenants=[
            TenantSpec(
                name=f"t{index}",
                application=application,
                load_rps=load_rps,
                controller=controller,
                node_quota=node_quota,
                campaign_builder=campaign_builder,
            )
            for index in range(count)
        ],
    )


# ---------------------------------------------------------------------------
# The interference experiment
# ---------------------------------------------------------------------------

@dataclass
class TenantInterference:
    """Co-located vs. isolated numbers for one tenant."""

    tenant: str
    colocated: Dict[str, float] = field(default_factory=dict)
    isolated: Dict[str, float] = field(default_factory=dict)

    @property
    def p99_factor(self) -> float:
        """Tail-latency degradation: co-located p99 / isolated p99."""
        isolated = self.isolated.get("p99_ms", 0.0)
        if isolated <= 0:
            return 1.0
        return self.colocated.get("p99_ms", 0.0) / isolated

    @property
    def violation_increase(self) -> float:
        """Extra SLO violations (incl. drops) caused by co-location."""
        co = self.colocated.get("violations", 0.0) + self.colocated.get("dropped", 0.0)
        alone = self.isolated.get("violations", 0.0) + self.isolated.get("dropped", 0.0)
        return co - alone

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "p99_factor": self.p99_factor,
            "violation_increase": self.violation_increase,
            "colocated": self.colocated,
            "isolated": self.isolated,
        }


@dataclass
class InterferenceResult:
    """Outcome of one interference experiment."""

    scenario_id: str
    merged_summary: Dict[str, float] = field(default_factory=dict)
    tenants: Dict[str, TenantInterference] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "merged": self.merged_summary,
            "tenants": {name: t.as_dict() for name, t in self.tenants.items()},
        }


def run_interference(
    spec: Optional[ScenarioSpec] = None,
    preset: str = "aggressor_victim",
    **preset_kwargs,
) -> InterferenceResult:
    """Quantify cross-tenant interference for a multi-tenant scenario.

    Runs the co-located scenario, then re-runs each tenant *alone* on an
    identically sized cluster with the same seed, and reports per-tenant
    degradation.  Either pass a multi-tenant ``spec`` directly or name a
    preset (see :data:`repro.experiments.sweep.PRESETS`) plus its keyword
    arguments.
    """
    if spec is None:
        from repro.experiments.sweep import PRESETS, check_kwargs

        builder = PRESETS.get(preset)
        if builder is None:
            known = ", ".join(sorted(PRESETS))
            raise ValueError(f"unknown preset {preset!r}; known: {known}")
        check_kwargs(builder, preset_kwargs, preset)
        spec = builder(**preset_kwargs)
    if not spec.tenants:
        raise ValueError("run_interference needs a multi-tenant scenario spec")

    colocated = run_scenario(spec)
    result = InterferenceResult(
        scenario_id=spec.scenario_id, merged_summary=colocated.summary()
    )
    for tenant_spec in spec.tenants:
        solo = run_scenario(spec.with_overrides(tenants=[tenant_spec]))
        solo_result = solo.tenant_results[tenant_spec.name]
        co_result = colocated.tenant_results[tenant_spec.name]
        result.tenants[tenant_spec.name] = TenantInterference(
            tenant=tenant_spec.name,
            colocated=co_result.summary(),
            isolated=solo_result.summary(),
        )
    return result
