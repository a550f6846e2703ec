"""The controller manager: the sensing reads every controller round starts with.

FIRM's loop is detect -> localize -> estimate -> actuate.  Its sensing
half — SLO verdicts, detection plus localization, the admission gate's
pressure signals, per-service utilization — is a handful of pure reads of
one tenant's tracing coordinator, cluster view and application runtime.
A :class:`ControllerManager` holds those three and answers
:meth:`ControllerManager.pull` by name; each name is one plain function
below.  Nothing is memoized: every pull reads the state at the instant it
is made.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.resources import Resource


def slo_verdict(manager: ControllerManager, window_s: float, percentile: float = 99.0) -> bool:
    """Whether any request type's windowed tail latency violates its SLO."""
    return manager.coordinator.has_slo_violation(window_s, percentile=percentile)


def comfortable(
    manager: ControllerManager, window_s: float, percentile: float, slack_threshold: float
) -> bool:
    """True when every request type's tail latency is well inside its SLO.

    A request type blocks comfort when its windowed tail exceeds
    ``slack_threshold`` times its SLO; empty windows (tail <= 0) don't
    count, and a tenant without SLOs is never comfortable.
    """
    coordinator = manager.coordinator
    slos = coordinator.slo_latency_ms
    if not slos:
        return False
    for request_type, slo in slos.items():
        tail = coordinator.latency_percentile_ms(percentile, window_s, request_type)
        if tail <= 0:
            continue
        if tail > slack_threshold * slo:
            return False
    return True


def detection(manager: ControllerManager, extractor, force: bool = False):
    """One detect -> extract -> localize round (modules 2-3) of ``extractor``.

    The caller passes its own :class:`~repro.core.extractor.Extractor`
    (FIRM passes the one whose SVM it trains online); the result is an
    :class:`~repro.core.extractor.ExtractionResult`.
    """
    return extractor.analyse(force=force)


def admission_signals(manager: ControllerManager) -> Dict[str, object]:
    """The tenant's admission-gate pressure signals as detection features.

    Cumulative shed rate and per-service circuit-breaker states; a tenant
    without a gate (or a manager without a runtime) reports the quiet
    baseline (``available: False``).
    """
    gate = manager.runtime.admission if manager.runtime is not None else None
    if gate is None:
        return {
            "available": False,
            "shed_rate": 0.0,
            "shed": 0,
            "submitted": 0,
            "breakers": {},
            "breakers_open": 0,
        }
    submitted = int(gate.stats["submitted"])
    shed = int(gate.stats["shed"])
    breakers = {service: breaker.state for service, breaker in sorted(gate._breakers.items())}
    return {
        "available": True,
        "shed_rate": (shed / submitted) if submitted else 0.0,
        "shed": shed,
        "submitted": submitted,
        "breakers": breakers,
        "breakers_open": sum(1 for state in breakers.values() if state == "open"),
    }


def service_cpu_utilization(manager: ControllerManager, service: str):
    """``(replica_count, mean_cpu_utilization)`` of one service, or None
    when it has no replicas (the HPA's observation)."""
    replicas = manager.view.replicas_of(service)
    if not replicas:
        return None
    utilizations = [replica.utilization()[Resource.CPU] for replica in replicas]
    return len(replicas), sum(utilizations) / len(utilizations)


#: Every name :meth:`ControllerManager.pull` answers.
SENSORS = {
    sensor.__name__: sensor
    for sensor in (slo_verdict, comfortable, detection, admission_signals, service_cpu_utilization)
}


class ControllerManager:
    """One tenant's sensing surface: its coordinator, view and runtime.

    ``runtime`` is the tenant's
    :class:`~repro.apps.runtime.ApplicationRuntime` (where the admission
    gate lives); a controller built outside a harness senses through a
    manager over its own coordinator and view, with no runtime.
    """

    __slots__ = ("coordinator", "view", "runtime")

    def __init__(self, coordinator, view, runtime=None) -> None:
        self.coordinator = coordinator
        self.view = view
        self.runtime = runtime

    def pull(self, name: str, **params):
        """The sensor ``name``'s reading for this tenant, now."""
        # The one entry for every sensing read, rather than controllers
        # calling the sensors directly: bench/layertrace.py times this
        # method as the ``controllers.stages`` layer.
        try:
            sensor = SENSORS[name]
        except KeyError:
            known = ", ".join(sorted(SENSORS))
            raise ValueError(f"unknown sensor {name!r}; known: {known}") from None
        return sensor(self, **params)
