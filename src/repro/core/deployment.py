"""Deployment module: validates and actuates RL-generated actions.

The paper's deployment module (§3.5) verifies each action before execution:
scaling a resource type is bounded by what the hosting node physically has,
and an action that would oversubscribe the node is replaced by a scale-out
operation.  CPU limits are additionally capped by the service's thread
count, since granting more CPU than threads cannot help.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.instance import MicroserviceInstance
from repro.cluster.orchestrator import ActionRecord, Orchestrator
from repro.cluster.resources import RESOURCE_TYPES, Resource, ResourceVector


@dataclass
class DeploymentDecision:
    """Outcome of validating + actuating one RL action."""

    instance: str
    requested_limits: ResourceVector
    applied_limits: ResourceVector
    scaled_out: bool
    records: List[ActionRecord] = field(default_factory=list)


class DeploymentModule:
    """Validates RL actions and executes them through the orchestrator.

    Parameters
    ----------
    orchestrator:
        The cluster orchestrator used to actuate validated actions.
    demand_headroom:
        When positive, a requested partition is never allowed below the
        instance's currently observed demand divided by this target
        utilization (e.g. 0.7 keeps at least ~43% headroom).  This is part
        of action *verification* (paper §3.5): an action that would
        partition a resource below what the instance is already consuming
        is guaranteed to make the SLO violation worse, so it is raised to
        the safe floor before actuation.  Set to 0 to disable (pure RL
        output, used in training ablations).
    """

    def __init__(self, orchestrator: Orchestrator, demand_headroom: float = 0.7) -> None:
        self.orchestrator = orchestrator
        self.demand_headroom = float(demand_headroom)
        self.decisions: List[DeploymentDecision] = []

    def apply_limits(
        self,
        instance: MicroserviceInstance,
        limits: ResourceVector,
    ) -> DeploymentDecision:
        """Validate and actuate a full resource-limit vector for one instance.

        Validation rules (paper §3.4-§3.5):

        * a partition is never set below the instance's observed demand
          (with headroom), which would only worsen the violation;
        * each limit is clamped to the hosting node's remaining capacity for
          that resource (capacity minus what other containers reserve);
        * the CPU limit is capped at the service's thread count;
        * if the requested amount of any resource exceeds what the node can
          provide, the surplus demand is satisfied with a scale-out instead.
        """
        node = instance.container.node
        applied: Dict[Resource, float] = {}
        needs_scale_out = False
        demand = instance.resource_demand()

        for resource in RESOURCE_TYPES:
            requested = max(0.0, limits[resource])
            if self.demand_headroom > 0:
                floor = demand[resource] / self.demand_headroom
                requested = max(requested, floor)
            if resource is Resource.CPU:
                requested = min(requested, float(instance.profile.threads))
            if node is None:
                applied[resource] = requested
                continue
            other_reserved = sum(
                container.limits.values[resource]
                for container in node.containers
                if container is not instance.container
            )
            available = max(0.0, node.capacity[resource] - other_reserved)
            if requested > available:
                needs_scale_out = True
                applied[resource] = available
            else:
                applied[resource] = requested

        applied_vector = ResourceVector(applied)
        records = self.orchestrator.set_resource_limits(instance, applied_vector)
        scaled_out = False
        if needs_scale_out:
            records.append(self.orchestrator.scale_out(instance.profile.name))
            scaled_out = True

        decision = DeploymentDecision(
            instance=instance.name,
            requested_limits=limits.copy(),
            applied_limits=applied_vector,
            scaled_out=scaled_out,
            records=records,
        )
        self.decisions.append(decision)
        return decision

    def scale_out(self, service_name: str) -> ActionRecord:
        """Explicit scale-out (exposed for baselines and experiments)."""
        return self.orchestrator.scale_out(service_name)

    def scale_in(self, service_name: str) -> ActionRecord:
        """Explicit scale-in (never removes the last replica)."""
        return self.orchestrator.scale_in(service_name)

    def last_decision_for(self, instance_name: str) -> Optional[DeploymentDecision]:
        """Most recent decision applied to ``instance_name`` (None when absent)."""
        for decision in reversed(self.decisions):
            if decision.instance == instance_name:
                return decision
        return None
