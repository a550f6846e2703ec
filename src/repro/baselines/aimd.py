"""AIMD resource-limit controller baseline.

The additive-increase / multiplicative-decrease policy the paper compares
against: when the service's observed tail latency violates the SLO, every
resource limit of its containers is increased additively; when latency is
comfortably inside the SLO, limits are decreased multiplicatively to
reclaim resources.  Unlike FIRM, AIMD has no notion of *which* resource is
contended or *which* microservice is the culprit — it reacts per service
with a uniform rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.baselines.base import BaselineController, register_controller
from repro.cluster.resources import RESOURCE_TYPES, ResourceVector


@dataclass
class AIMDConfig:
    """AIMD parameters.

    Attributes
    ----------
    additive_increase:
        Fraction of the default limit added per round while violating.
    multiplicative_decrease:
        Factor applied to limits per round while comfortably within SLO.
    slack_threshold:
        Latency / SLO ratio below which decrease kicks in.
    tail_percentile:
        Latency percentile compared against the SLO.
    floor:
        Minimum limits (never decreased below these).
    """

    additive_increase: float = 0.25
    multiplicative_decrease: float = 0.9
    slack_threshold: float = 0.5
    tail_percentile: float = 99.0
    floor: ResourceVector = field(
        default_factory=lambda: ResourceVector.from_kwargs(
            cpu=1.0, memory_bandwidth=2.0, llc=1.0, disk_io=50.0, network=0.25
        )
    )


@register_controller("aimd")
class AIMDController(BaselineController):
    """Additive-increase / multiplicative-decrease limit controller."""

    stage_subscriptions = ("slo_verdict", "comfortable")

    def __init__(self, *args, config: AIMDConfig | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.config = config or AIMDConfig()
        #: Additive step per resource, derived from each container's initial limits.
        self._steps: Dict[str, ResourceVector] = {}

    def control_round(self) -> None:
        """Apply AIMD to every container based on end-to-end SLO status."""
        cfg = self.config
        window = self.control_interval_s
        violating = self.stages.pull(
            "slo_verdict", window_s=window, percentile=cfg.tail_percentile
        )
        comfortable = self.stages.pull(
            "comfortable",
            window_s=window,
            percentile=cfg.tail_percentile,
            slack_threshold=cfg.slack_threshold,
        )

        for container in self.cluster.all_containers():
            if container.id not in self._steps:
                self._steps[container.id] = container.limits * cfg.additive_increase
            step = self._steps[container.id]
            if violating:
                new_limits = container.limits + step
            elif comfortable:
                new_limits = container.limits * cfg.multiplicative_decrease
            else:
                continue
            clamped = {
                resource: max(new_limits[resource], cfg.floor[resource])
                for resource in RESOURCE_TYPES
            }
            if container.instance is not None:
                self.orchestrator.set_resource_limits(
                    container.instance, ResourceVector(clamped)
                )
