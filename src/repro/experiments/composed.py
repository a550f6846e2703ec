"""Composed-policy experiment: the composed controller stack end to end.

One canonical two-tenant scenario exercising :mod:`repro.controllers` at
once — a latency-sensitive victim tenant under an anomaly campaign,
managed by the ``composed`` controller in ``svm_gated_rl`` mode (FIRM's
RL estimator behind the critic-trust / admission-calm gate, AIMD as the
heuristic fallback, online DDPG fine-tuning while serving), co-located
with an aggressor tenant running a ``priority_chain`` composition of the
same members.  The same spec backs the ``controllers-smoke`` CI step.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

from repro.experiments.scenario import (
    ScenarioSpec,
    TenantSpec,
    random_campaign_builder,
)


def composed_stack_spec(
    duration_s: float = 20.0,
    seed: int = 0,
    mode: str = "svm_gated_rl",
    online_learning: bool = True,
) -> ScenarioSpec:
    """The canonical composed-controller-stack scenario.

    Two co-located tenants on a small shared cluster: ``victim`` runs the
    gated composition under a resource-anomaly campaign (so detection,
    the SVM, and the RL estimator all do real work), ``aggressor`` runs a
    priority chain of the same members and supplies the interference.
    """
    return ScenarioSpec(
        seed=seed,
        duration_s=duration_s,
        cluster_nodes=(2, 0),
        tenants=[
            TenantSpec(
                name="victim",
                application="social_network",
                load_rps=30.0,
                controller="composed",
                controller_kwargs={
                    "mode": mode,
                    "members": ["firm", "aimd"],
                    "online_learning": online_learning,
                },
                campaign_builder=partial(
                    random_campaign_builder,
                    duration_s=duration_s,
                    rate_per_s=0.4,
                    resource_only=True,
                    start_s=0.5,
                ),
            ),
            TenantSpec(
                name="aggressor",
                application="hotel_reservation",
                load_rps=40.0,
                controller="composed",
                controller_kwargs={
                    "mode": "priority_chain",
                    "members": ["firm", "aimd"],
                },
            ),
        ],
    )


def run_composed(
    duration_s: float = 10.0,
    seed: int = 0,
    mode: str = "svm_gated_rl",
    online_learning: bool = True,
) -> Dict[str, Any]:
    """Run the composed stack and report the gate's behaviour.

    Returns headline numbers plus, per tenant: the active composition and
    every journaled-style policy switch.
    """
    from repro.experiments.harness import ExperimentHarness

    spec = composed_stack_spec(
        duration_s=duration_s,
        seed=seed,
        mode=mode,
        online_learning=online_learning,
    )
    harness = ExperimentHarness.from_spec(spec)
    result = harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    tenants: Dict[str, Any] = {}
    for tenant in harness.tenants:
        controller = tenant.controller
        entry: Dict[str, Any] = {
            "controller": tenant.controller_name,
            "mode": getattr(controller, "mode", None),
            "online_learning": getattr(controller, "online_learning", None),
            "rounds": len(getattr(controller, "rounds", ())),
            "active_policy": getattr(controller, "active_policy", None),
            "policy_switches": [
                {
                    "time_s": switch.time_s,
                    "from": switch.from_policy,
                    "to": switch.to_policy,
                    "reason": switch.reason,
                    "td_error": switch.td_error,
                }
                for switch in getattr(controller, "switches", ())
            ],
        }
        rl = getattr(controller, "rl_member", None)
        if rl is not None:
            entry["last_critic_loss"] = rl.last_critic_loss
        tenants[tenant.display_name] = entry
    return {
        "scenario_id": spec.scenario_id,
        "summary": result.summary(),
        "per_tenant": result.per_tenant_summary(),
        "controllers": tenants,
    }
