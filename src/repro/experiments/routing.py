"""Routing-policy comparison experiments.

The routing subsystem (:mod:`repro.routing`) makes "where requests land"
an experimental axis next to "how replicas are sized".  This module
compares load-balancing policies under the two regimes where routing is
known to move tail latency by integer factors (cf. the Distributed
Join-the-Idle-Queue work in PAPERS.md):

* :func:`routing_anomaly_spec` — one application under a random anomaly
  campaign, with a controller scaling replicas out while the balancer
  spreads (or fails to spread) load across the changing replica set;
* :func:`routing_interference_spec` — the ``aggressor_victim``
  noisy-neighbour preset with every tenant routed by the policy under
  test, so the victim's tail directly reflects routing quality under
  cross-tenant contention;
* :func:`routed_tenants` — the consolidation shape (N identical
  replicated tenants under per-tenant anomalies) routed by one policy,
  the cell of policy x controller x tenant-count sweeps.

:func:`run_routing` runs one of those scenario shapes once per policy —
identical seed, workload, campaign, and controller, so the routing policy
is the *only* difference — and reports per-policy headline numbers plus
the spread between the best and worst tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.apps.catalog import build_application
from repro.experiments.interference import aggressor_victim, identical_tenants
from repro.experiments.scenario import (
    ScenarioSpec,
    random_campaign_builder,
    run_scenario,
)
from repro.routing.base import resolve_policy_name

#: The default policy set compared by the routing experiments.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "least_in_flight",
    "round_robin",
    "random",
    "power_of_two_choices",
    "ewma_latency",
    "join_the_idle_queue",
)

#: The scenario shapes :func:`run_routing` knows how to build.
ROUTING_PRESETS = ("anomaly", "interference")


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------

def replicated_services(application: str, replicas: int) -> Dict[str, int]:
    """A replica-override dict giving every service ``replicas`` replicas.

    Routing policies only differ where a replica set offers a choice, so
    the routing presets replicate *every* service of the application —
    each hop of each request then has somewhere else to go when its
    replica's node degrades.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return {service: int(replicas) for service in build_application(application).services}


def routing_anomaly_spec(
    policy: str = "least_in_flight",
    application: str = "hotel_reservation",
    controller: str = "none",
    load_rps: float = 40.0,
    duration_s: float = 40.0,
    seed: int = 0,
    anomaly_rate_per_s: float = 0.3,
    replicas_per_service: int = 3,
) -> ScenarioSpec:
    """One replicated application under an anomaly campaign, routed by ``policy``.

    Resource anomalies press on the nodes hosting the targeted services,
    so replicas of one service run at very different speeds while the
    campaign is active — load-aware policies route around the impaired
    nodes, load-blind ones keep feeding them.  An optional controller
    scales the replica sets at the same time.
    """
    campaign_builder = None
    if anomaly_rate_per_s > 0:
        campaign_builder = partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=anomaly_rate_per_s,
            resource_only=True,
        )
    return ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        controller=controller,
        campaign_builder=campaign_builder,
        routing=resolve_policy_name(policy),
        replicas=replicated_services(application, replicas_per_service),
    )


def routing_interference_spec(
    policy: str = "least_in_flight",
    victim_application: str = "hotel_reservation",
    aggressor_application: str = "social_network",
    victim_load_rps: float = 30.0,
    aggressor_load_rps: float = 150.0,
    victim_controller: str = "none",
    aggressor_anomaly_rate_per_s: float = 0.4,
    victim_replicas_per_service: int = 3,
    duration_s: float = 40.0,
    seed: int = 0,
    cluster_nodes: Tuple[int, int] = (4, 0),
) -> ScenarioSpec:
    """The ``aggressor_victim`` preset with cluster-wide ``policy`` routing.

    The victim's services are replicated across a small multi-node
    cluster and the aggressor triggers resource anomalies against its own
    services, so node pressure is *asymmetric*: at any moment some of the
    victim's replicas sit on impaired nodes and some do not.  Which
    replicas the victim's spans land on — the routing policy — then
    directly sets the victim's tail latency (integer-factor P99 gaps
    between load-aware and load-blind policies at these defaults).
    """
    spec = aggressor_victim(
        victim_application=victim_application,
        aggressor_application=aggressor_application,
        victim_load_rps=victim_load_rps,
        aggressor_load_rps=aggressor_load_rps,
        victim_controller=victim_controller,
        aggressor_anomaly_rate_per_s=aggressor_anomaly_rate_per_s,
        duration_s=duration_s,
        seed=seed,
        cluster_nodes=cluster_nodes,
    )
    victim = spec.tenants[0]
    if victim_replicas_per_service > 1:
        victim = victim.with_overrides(
            replicas=replicated_services(victim_application, victim_replicas_per_service)
        )
    return spec.with_overrides(
        routing=resolve_policy_name(policy), tenants=[victim, spec.tenants[1]]
    )


def routed_tenants(
    policy: str = "least_in_flight",
    controller: str = "none",
    count: int = 1,
    application: str = "hotel_reservation",
    seed: int = 0,
    load_rps: float = 25.0,
    duration_s: float = 30.0,
    cluster_nodes: Optional[Tuple[int, int]] = (3, 0),
    placement: Optional[str] = None,
    anomaly_rate_per_s: float = 0.25,
    replicas_per_service: int = 3,
) -> ScenarioSpec:
    """``count`` identical tenants, every one routed by ``policy``.

    The :func:`~repro.experiments.interference.identical_tenants`
    consolidation shape with the spec-level ``routing`` field set.  By
    default every tenant's services are replicated
    (``replicas_per_service``) over a small multi-node cluster and hit by
    per-tenant resource anomalies, so replicas of one service run at
    different speeds and the routing policy has real choices to make —
    the regime where policies separate.  Routing draws come from
    dedicated RNG substreams, so cells of different policies still share
    identical arrivals, service times, and campaigns.
    """
    canonical = resolve_policy_name(policy)
    spec = identical_tenants(
        int(count),
        application=application,
        load_rps=load_rps,
        controller=controller,
        duration_s=duration_s,
        seed=int(seed),
        cluster_nodes=cluster_nodes,
        placement=placement,
        anomaly_rate_per_s=anomaly_rate_per_s,
    )
    if replicas_per_service > 1:
        replicas = replicated_services(application, replicas_per_service)
        spec = spec.with_overrides(
            tenants=[
                tenant.with_overrides(replicas=dict(replicas)) for tenant in spec.tenants
            ]
        )
    return spec.with_overrides(routing=canonical)


# ---------------------------------------------------------------------------
# The routing comparison experiment
# ---------------------------------------------------------------------------

@dataclass
class RoutingComparisonResult:
    """Per-policy outcomes of one routing comparison."""

    preset: str
    #: Merged headline numbers per policy (policy name -> summary dict).
    policies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-tenant breakdown per policy (empty for single-tenant presets).
    tenants: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def p99_by_policy(self, tenant: Optional[str] = None) -> Dict[str, float]:
        """P99 latency (ms) per policy, optionally for one tenant."""
        if tenant is None:
            return {name: summary["p99_ms"] for name, summary in self.policies.items()}
        return {
            name: breakdown[tenant]["p99_ms"]
            for name, breakdown in self.tenants.items()
            if tenant in breakdown
        }

    def p99_spread(self, tenant: Optional[str] = None) -> float:
        """Worst-policy P99 divided by best-policy P99 (1.0 = no spread)."""
        values = [v for v in self.p99_by_policy(tenant).values() if v > 0]
        if not values:
            return 1.0
        return max(values) / min(values)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "preset": self.preset,
            "p99_spread": self.p99_spread(),
            "policies": dict(self.policies),
        }
        if self.tenants:
            payload["victim_p99_spread"] = self.p99_spread("victim")
            payload["tenants"] = {
                name: dict(breakdown) for name, breakdown in self.tenants.items()
            }
        return payload


def run_routing(
    preset: str = "interference",
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0,
    duration_s: Optional[float] = None,
    **preset_kwargs,
) -> RoutingComparisonResult:
    """Compare routing policies on one scenario shape.

    ``preset`` is ``"anomaly"`` (single tenant + campaign + controller) or
    ``"interference"`` (the aggressor/victim co-location).  Every policy
    sees the identical scenario — same seed, arrivals, service times, and
    campaign, all drawn from substreams untouched by routing draws — so
    differences in the reported numbers are attributable to routing alone.
    """
    from repro.experiments.sweep import PRESETS, check_kwargs

    if preset not in ROUTING_PRESETS:
        known = ", ".join(ROUTING_PRESETS)
        raise ValueError(f"unknown routing preset {preset!r}; known: {known}")
    builder = PRESETS[f"routing_{preset}"]
    if duration_s is not None:
        preset_kwargs["duration_s"] = duration_s
    check_kwargs(builder, preset_kwargs, f"routing_{preset}")

    # Resolve (and dedupe — aliases collapse to one canonical name) every
    # policy up front, so a typo fails before any scenario is simulated.
    names: list = []
    for policy in policies:
        name = resolve_policy_name(policy)
        if name not in names:
            names.append(name)

    result = RoutingComparisonResult(preset=preset)
    for name in names:
        outcome = run_scenario(builder(name, seed=seed, **preset_kwargs))
        result.policies[name] = outcome.summary()
        per_tenant = outcome.per_tenant_summary()
        if per_tenant:
            result.tenants[name] = per_tenant
    return result
