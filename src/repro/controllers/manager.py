"""The controller manager: memoized, dependency-ordered stage execution.

One :class:`ControllerManager` is owned by each
:class:`~repro.experiments.harness.TenantRuntime` (the harness also keeps
one shared :class:`StageCache` for cluster-scoped stages).  Controllers
reach it through a :class:`StageRuntime` — a manager bound to the
tenant's coordinator/cluster-view — handed to them by
``ResourceController.bind_stages``.

Memoization contract
--------------------
A stage result is valid for exactly one engine instant: the cache is
keyed ``(stage, tenant-key, params)`` and cleared whenever ``engine.now``
advances past the instant it was filled at, and eagerly on cluster scale
events (replicas appearing or disappearing change what every stage
observes).  Within one control window every subscribing controller —
including the members of a composed stack — therefore shares a single
computation of each stage.  Stages are pure reads, so memoization
changes only *how often* the work runs, never its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.controllers.stages import get_stage, stage_order


def _params_key(params: Dict[str, Any]) -> Tuple:
    """A hashable, order-insensitive cache key for stage kwargs."""
    return tuple(sorted(params.items()))


class StageCache:
    """Per-instant memo of stage results, with invalidation counters."""

    def __init__(self) -> None:
        self.now: Optional[float] = None
        self.entries: Dict[Tuple, Any] = {}
        self.invalidations = 0

    def sync(self, now: float) -> None:
        """Drop all entries if the engine clock moved past our instant."""
        if self.now != now:
            self.now = now
            self.entries.clear()

    def invalidate(self) -> None:
        """Eagerly drop all entries (cluster topology changed)."""
        if self.entries:
            self.entries.clear()
        self.invalidations += 1


@dataclass
class StageBinding:
    """What a stage sees: one tenant's observation surface.

    ``key`` distinguishes tenants in the cache (None for the anonymous
    single-tenant binding); ``runtime`` is the owning ``TenantRuntime``
    when there is one (admission signals live there); ``providers`` lets
    a controller donate long-lived stateful helpers — e.g. FIRM provides
    its online-trained :class:`~repro.core.extractor.Extractor` so the
    detection stage runs the *same* SVM the agent trains.
    """

    coordinator: Any
    view: Any
    engine: Any
    key: Optional[str] = None
    runtime: Any = None
    source: str = ""
    providers: Dict[Tuple, Any] = field(default_factory=dict)

    def provide(self, key: Tuple, value: Any) -> Any:
        """Donate a helper under ``key``; first provider wins."""
        return self.providers.setdefault(key, value)

    def extractor_for(self, window_s: float, percentile: float):
        """The tenant's Extractor for this (window, percentile) config.

        Returns the provided one when a controller donated it (FIRM's,
        with its online-trained SVM); otherwise lazily creates and keeps
        a default so repeated pulls share state.
        """
        key = ("extractor", float(window_s), float(percentile))
        extractor = self.providers.get(key)
        if extractor is None:
            from repro.core.extractor import Extractor

            extractor = Extractor(
                self.coordinator,
                window_s=window_s,
                detection_percentile=percentile,
            )
            self.providers[key] = extractor
        return extractor

    def path_extractor(self):
        """The shared critical-path extractor (stateless, one per tenant)."""
        key = ("path_extractor",)
        extractor = self.providers.get(key)
        if extractor is None:
            from repro.core.critical_path import CriticalPathExtractor

            extractor = CriticalPathExtractor()
            self.providers[key] = extractor
        return extractor


class StageContext:
    """What a stage's ``compute`` receives: the binding plus dep access."""

    __slots__ = ("manager", "binding")

    def __init__(self, manager: "ControllerManager", binding: StageBinding) -> None:
        self.manager = manager
        self.binding = binding

    @property
    def coordinator(self):
        return self.binding.coordinator

    @property
    def view(self):
        return self.binding.view

    def require(self, name: str, **params):
        """Pull a dependency stage through the same memo."""
        return self.manager.pull(name, self.binding, **params)


class ControllerManager:
    """Executes stages at most once per instant per tenant.

    Parameters
    ----------
    engine:
        The simulation engine (its clock keys cache validity).
    cluster:
        When given, a scale listener is registered so replica churn
        invalidates both caches immediately.
    obs:
        Optional observability sink; cache misses journal ``stage_run``
        records and bump the ``controller.stage_runs`` counter.
    cluster_cache:
        Shared :class:`StageCache` for ``scope="cluster"`` stages —
        the harness passes one instance to every tenant's manager so
        cluster-wide results are computed once for all tenants.
    """

    def __init__(
        self,
        engine,
        cluster=None,
        obs=None,
        cluster_cache: Optional[StageCache] = None,
    ) -> None:
        self.engine = engine
        self.obs = obs
        self.cache = StageCache()
        self.cluster_cache = cluster_cache if cluster_cache is not None else StageCache()
        self.stats: Dict[str, int] = {"computed": 0, "hits": 0}
        # Validate the registered stage DAG up front (raises on cycles).
        self.order = stage_order()
        if cluster is not None:
            add_listener = getattr(cluster, "add_scale_listener", None)
            if add_listener is not None:
                add_listener(self._on_scale_event)

    def _on_scale_event(self, service_name, instance, added) -> None:
        self.cache.invalidate()
        self.cluster_cache.invalidate()

    def runtime_for(self, binding: StageBinding) -> "StageRuntime":
        """A runtime view of this manager bound to one tenant."""
        return StageRuntime(self, binding)

    def pull(self, name: str, binding: StageBinding, **params):
        """The result of stage ``name`` for this tenant at this instant."""
        stage = get_stage(name)
        cache = self.cluster_cache if stage.scope == "cluster" else self.cache
        cache.sync(self.engine.now)
        tenant_key = None if stage.scope == "cluster" else binding.key
        key = (name, tenant_key, _params_key(params))
        if key in cache.entries:
            self.stats["hits"] += 1
            return cache.entries[key]
        result = stage.compute(StageContext(self, binding), **params)
        cache.entries[key] = result
        self.stats["computed"] += 1
        if self.obs is not None:
            self.obs.journal.record(
                self.engine.now,
                "stage_run",
                binding.source or "ControllerManager",
                stage=name,
                tenant=binding.key,
                scope=stage.scope,
            )
            self.obs.registry.counter("stage_runs_total", stage=name).inc()
        return result


class StageRuntime:
    """A manager pre-bound to one tenant's :class:`StageBinding`.

    This is the object controllers hold as ``self.stages``: ``pull`` by
    stage name, ``provide`` to donate stateful helpers into the shared
    binding.
    """

    __slots__ = ("manager", "binding")

    def __init__(self, manager: ControllerManager, binding: StageBinding) -> None:
        self.manager = manager
        self.binding = binding

    def pull(self, name: str, **params):
        return self.manager.pull(name, self.binding, **params)

    def provide(self, key: Tuple, value: Any) -> Any:
        return self.binding.provide(key, value)
