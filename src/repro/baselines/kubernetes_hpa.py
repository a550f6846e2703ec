"""Kubernetes autoscaling baseline.

Models the default Kubernetes horizontal pod autoscaler behaviour the paper
compares against: a rule-based loop that watches *CPU utilization only* and
adds/removes replicas to keep the observed utilization near a target.  The
key weakness the paper demonstrates (Fig. 1) is reproduced faithfully: the
HPA cannot see memory-bandwidth / LLC / I-O / network contention, so it
takes no action when the latency spike is not accompanied by a CPU spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.base import BaselineController, register_controller


@dataclass
class HPAConfig:
    """Kubernetes HPA parameters.

    Attributes
    ----------
    target_cpu_utilization:
        Desired per-container CPU utilization (the HPA's setpoint).
    min_replicas / max_replicas:
        Replica bounds applied per service.
    tolerance:
        Dead-band around the target inside which no scaling happens
        (Kubernetes' default is 0.1).
    """

    target_cpu_utilization: float = 0.5
    min_replicas: int = 1
    max_replicas: int = 8
    tolerance: float = 0.1
    #: Maximum replicas added or removed per control round.  The real HPA
    #: rate-limits scaling through its stabilization windows; one step per
    #: round models the same conservatism.
    max_step: int = 1


@register_controller("kubernetes_hpa", aliases=("k8s",))
class KubernetesAutoscaler(BaselineController):
    """CPU-utilization-driven replica autoscaler (the K8s default)."""

    stage_subscriptions = ("service_cpu_utilization",)

    def __init__(self, *args, config: HPAConfig | None = None, **kwargs) -> None:
        kwargs.setdefault("control_interval_s", 30.0)
        super().__init__(*args, **kwargs)
        self.config = config or HPAConfig()

    def control_round(self) -> None:
        """Apply the HPA formula per service.

        ``desired = ceil(current_replicas * observed / target)`` with a
        tolerance dead-band, exactly as the Kubernetes controller computes
        it from the mean CPU utilization of a service's pods, read through
        the ``service_cpu_utilization`` sensor.
        """
        cfg = self.config
        for service_name in self.cluster.services():
            observation = self.stages.pull(
                "service_cpu_utilization", service=service_name
            )
            if observation is None:
                continue
            current, observed = observation
            if cfg.target_cpu_utilization <= 0:
                continue
            ratio = observed / cfg.target_cpu_utilization
            if abs(ratio - 1.0) <= cfg.tolerance:
                continue
            desired = math.ceil(current * ratio)
            desired = max(cfg.min_replicas, min(cfg.max_replicas, desired))
            step = max(-cfg.max_step, min(cfg.max_step, desired - current))
            if step > 0:
                for _ in range(step):
                    self.orchestrator.scale_out(service_name)
            elif step < 0:
                for _ in range(-step):
                    self.orchestrator.scale_in(service_name)
