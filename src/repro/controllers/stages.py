"""Controller stages: named, memoizable units of per-window control work.

A :class:`ControllerStage` is one piece of the sensing work every
controller round begins with — aggregating the telemetry window, pulling
recent traces and extracting critical paths, running SVM detection,
reading the admission gate's pressure signals.  Historically each
controller re-ran that work privately inside its monolithic
``control_round``; stages name the work, declare what other stages it
depends on, and let the :class:`~repro.controllers.manager.ControllerManager`
memoize each result per ``(stage, tenant, instant, params)`` so a stack of
controllers sharing one tenant computes it once per control window.

Stage implementations are **pure reads** of the coordinator/cluster state:
no RNG draws, no engine scheduling, no cluster mutation.  That is the
whole determinism contract — a memoized result is byte-identical to a
recomputation at the same instant, so memoization can never change
experiment output (the pinned determinism suite enforces this for every
scenario family).

Stages are registered by :func:`register_stage` and looked up by name;
``requires`` declares the dependency edges :func:`stage_order` topologically
sorts (and validates for cycles).  A stage body pulls its dependencies
through :meth:`StageContext.require`, which routes through the same
manager memo — so dependencies are computed lazily, in exactly the order
the legacy monolithic loops issued the underlying queries.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple

from repro.cluster.resources import Resource

#: Registry of stage singletons by name.
_STAGES: Dict[str, "ControllerStage"] = {}


class ControllerStage(abc.ABC):
    """One named unit of shared per-window control-sensing work.

    Class attributes
    ----------------
    name:
        Registry name (stable; controllers subscribe by it).
    requires:
        Names of stages this stage's ``compute`` may pull through
        :meth:`StageContext.require` — the dependency edges of the DAG.
    scope:
        ``"tenant"`` results are memoized per tenant binding (each tenant
        observes through its own coordinator/view); ``"cluster"`` results
        are keyed cluster-wide and shared across every tenant's manager
        (service names are globally unique, so e.g. per-service
        utilization is the same answer whichever tenant asks).
    """

    name: str = ""
    requires: Tuple[str, ...] = ()
    scope: str = "tenant"

    @abc.abstractmethod
    def compute(self, ctx, **params):
        """Produce this stage's result for one instant (pure read)."""


def register_stage(cls):
    """Class decorator: instantiate and register a stage by its ``name``."""
    if not cls.name:
        raise ValueError(f"stage class {cls.__name__} must set a name")
    if cls.name in _STAGES:
        raise ValueError(f"stage {cls.name!r} is already registered")
    if cls.scope not in ("tenant", "cluster"):
        raise ValueError(f"stage {cls.name!r} has unknown scope {cls.scope!r}")
    _STAGES[cls.name] = cls()
    return cls


def get_stage(name: str) -> ControllerStage:
    """The registered stage singleton for ``name``."""
    try:
        return _STAGES[name]
    except KeyError:
        known = ", ".join(sorted(_STAGES))
        raise ValueError(f"unknown controller stage {name!r}; registered: {known}")


def available_stages() -> List[str]:
    """Registered stage names, sorted."""
    return sorted(_STAGES)


def stage_order(names=None) -> List[str]:
    """Topological order of the given stages (default: all registered).

    Dependencies come before dependents; ties break alphabetically so the
    order is stable.  Raises ``ValueError`` on unknown dependencies or
    cycles — the manager runs this at construction so a bad stage graph
    fails fast, not mid-experiment.
    """
    pool = sorted(_STAGES if names is None else names)
    for name in pool:
        stage = get_stage(name)
        for dep in stage.requires:
            if dep not in _STAGES:
                raise ValueError(f"stage {name!r} requires unknown stage {dep!r}")
    # Kahn's algorithm restricted to the pool (deps outside it are pulled in).
    closure: List[str] = []
    pending = list(pool)
    while pending:
        name = pending.pop()
        if name in closure:
            continue
        closure.append(name)
        pending.extend(get_stage(name).requires)
    closure.sort()
    indegree = {name: 0 for name in closure}
    dependents: Dict[str, List[str]] = {name: [] for name in closure}
    for name in closure:
        for dep in get_stage(name).requires:
            indegree[name] += 1
            dependents[dep].append(name)
    ready = sorted(name for name, degree in indegree.items() if degree == 0)
    ordered: List[str] = []
    while ready:
        name = ready.pop(0)
        ordered.append(name)
        changed = False
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
                changed = True
        if changed:
            ready.sort()
    if len(ordered) != len(closure):
        cyclic = sorted(set(closure) - set(ordered))
        raise ValueError(f"controller stage dependency cycle involving {cyclic}")
    return ordered


# ---------------------------------------------------------------------------
# Built-in stages
# ---------------------------------------------------------------------------


@register_stage
class SLOVerdictStage(ControllerStage):
    """Whether any request type's tail latency currently violates its SLO.

    Exactly the coordinator query FIRM's detector and AIMD's "violating"
    test issue (:meth:`TracingCoordinator.has_slo_violation`), keyed on
    the observation window and percentile.
    """

    name = "slo_verdict"

    def compute(self, ctx, window_s: float, percentile: float = 99.0) -> bool:
        return ctx.coordinator.has_slo_violation(window_s, percentile=percentile)


@register_stage
class ComfortableStage(ControllerStage):
    """True when every request type's tail latency is well inside its SLO.

    The AIMD "decrease" predicate: a request type blocks comfort when its
    windowed tail exceeds ``slack_threshold`` times its SLO; empty windows
    (tail <= 0) don't count.  Kept call-for-call identical to the legacy
    ``AIMDController._is_comfortable`` so memoized and direct computation
    agree byte-for-byte.
    """

    name = "comfortable"

    def compute(self, ctx, window_s: float, percentile: float, slack_threshold: float) -> bool:
        coordinator = ctx.coordinator
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


@register_stage
class CriticalPathStage(ControllerStage):
    """Recent traces plus their extracted critical paths.

    Returns ``(traces, critical_paths)`` for the window; with no retained
    traces both are empty and no extraction runs (matching the legacy
    Extractor's early return).
    """

    name = "critical_path"

    def compute(self, ctx, window_s: float):
        traces = ctx.coordinator.recent_traces(window_s)
        if not traces:
            return [], []
        return traces, ctx.binding.path_extractor().extract_all(traces)


@register_stage
class DetectionStage(ControllerStage):
    """The full detect -> extract -> localize round (modules 2-3).

    Pulls the SLO verdict, and only on violation (or ``force``) the
    critical paths, then hands both to the tenant's
    :class:`~repro.core.extractor.Extractor` for SVM candidate selection —
    the same object FIRM trains online, provided through the stage binding
    so detection and training share one SVM.  Result is an
    :class:`~repro.core.extractor.ExtractionResult`.
    """

    name = "detection"
    requires = ("slo_verdict", "critical_path")

    def compute(self, ctx, window_s: float, percentile: float = 99.0, force: bool = False):
        violated = ctx.require("slo_verdict", window_s=window_s, percentile=percentile)
        extractor = ctx.binding.extractor_for(window_s, percentile)
        if not violated and not force:
            return extractor.localize(violated, force=force, traces=[], paths=[])
        traces, paths = ctx.require("critical_path", window_s=window_s)
        return extractor.localize(violated, force=force, traces=traces, paths=paths)


@register_stage
class AdmissionSignalsStage(ControllerStage):
    """The tenant's admission-gate pressure signals as detection features.

    Surfaces the survival kit's live state — cumulative shed rate and
    per-service circuit-breaker states — so controllers can treat
    admission stress as a detection feature (e.g. the composed policy
    falls back to its heuristic member while a breaker is open).  Tenants
    without a gate report the quiet baseline (``available: False``).
    """

    name = "admission_signals"

    def compute(self, ctx) -> Dict[str, object]:
        runtime = ctx.binding.runtime
        gate = getattr(runtime, "admission", None) if runtime is not None else None
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


@register_stage
class ServiceCPUUtilizationStage(ControllerStage):
    """Replica count and mean CPU utilization of one service.

    The HPA's observation, keyed per service (service names are globally
    unique across tenants, so the result is cluster-scoped and shared).
    Returns ``(replica_count, mean_cpu_utilization)`` or None for
    services with no replicas.  The snapshot is taken at pull time; scale
    events invalidate the cache, but a stack that changes resource
    *limits* mid-round should order its utilization readers before its
    limit writers.
    """

    name = "service_cpu_utilization"
    scope = "cluster"

    def compute(self, ctx, service: str):
        replicas = ctx.view.replicas_of(service)
        if not replicas:
            return None
        utilizations = [replica.utilization()[Resource.CPU] for replica in replicas]
        return len(replicas), sum(utilizations) / len(utilizations)
