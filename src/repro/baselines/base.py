"""Resource-controller scaffolding: the ABC and the controller registry.

Every resource-management policy in the reproduction — FIRM itself, the
rule-based baselines, and any future policy — is a
:class:`ResourceController`: a periodic control loop over the shared
simulation engine.  Policies self-register under a name with
:func:`register_controller`, and experiments instantiate them by name
through :func:`create_controller`, so new policies plug into the harness,
the figure modules, and the sweep runner without touching any of them.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.orchestrator import Orchestrator
from repro.controllers.manager import ControllerManager
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event
from repro.tracing.coordinator import TracingCoordinator


class ResourceController(abc.ABC):
    """Base class: a periodic control loop over the cluster.

    Subclasses implement :meth:`control_round`; the base class handles
    scheduling on the simulation engine, start/stop, and round counting so
    that every policy can be swapped interchangeably in experiments.
    """

    def __init__(
        self,
        cluster: Cluster,
        coordinator: TracingCoordinator,
        orchestrator: Orchestrator,
        engine: SimulationEngine,
        control_interval_s: float = 15.0,
    ) -> None:
        self.cluster = cluster
        self.coordinator = coordinator
        self.orchestrator = orchestrator
        self.engine = engine
        self.control_interval_s = float(control_interval_s)
        self.rounds_executed = 0
        self._running = False
        #: True only after an explicit stop() — distinguishes "retired"
        #: from "never started" (composed stacks drive member rounds
        #: directly without ever starting their loops).
        self._stopped = False
        self._control_event: Optional[Event] = None
        #: The controller's sensing reads (a
        #: :class:`~repro.controllers.manager.ControllerManager` over its
        #: own coordinator and view); the harness replaces it with the
        #: tenant's manager, which also sees the admission gate.
        self.stages = ControllerManager(coordinator, cluster)
        #: Observability bundle (set by the harness when enabled; None
        #: keeps the control loop uninstrumented).
        self.obs = None
        #: Journal source label for this controller's records.
        self.obs_source = type(self).__name__

    #: Sensor names this controller pulls each round (documentation and
    #: ``describe_controllers`` output).
    stage_subscriptions: tuple = ()

    def start(self) -> None:
        """Start the periodic control loop."""
        if self._running:
            return
        self._running = True
        self._stopped = False
        self._control_event = self.engine.schedule_recurring(
            self.control_interval_s,
            lambda eng: self._round_wrapper(),
            name=f"{type(self).__name__}-control",
        )

    def stop(self) -> None:
        """Stop the control loop and cancel its pending recurrence."""
        self._running = False
        self._stopped = True
        if self._control_event is not None:
            self._control_event.cancel()
            self._control_event = None

    def _round_wrapper(self) -> None:
        if not self._running:
            return
        self.control_round()
        self.rounds_executed += 1

    @abc.abstractmethod
    def control_round(self) -> None:
        """One control decision; implemented by subclasses."""


class BaselineController(ResourceController):
    """Base class for the rule-based baseline policies.

    Kept as a distinct subclass so baselines remain greppable as a family;
    all behaviour lives in :class:`ResourceController` (including the
    abstract :meth:`~ResourceController.control_round`, so forgetting to
    implement it still fails at construction time).
    """


# ---------------------------------------------------------------------------
# Controller registry
# ---------------------------------------------------------------------------

#: A factory takes the harness wiring plus policy kwargs and returns the
#: controller, or None for the "no controller" policy.
ControllerFactory = Callable[..., Optional[ResourceController]]

_FACTORIES: Dict[str, ControllerFactory] = {}
_ALIASES: Dict[str, str] = {}


def register_controller(name: str, *, aliases: Sequence[str] = ()) -> Callable:
    """Class/function decorator registering a controller factory by name.

    The decorated callable must accept
    ``(cluster, coordinator, orchestrator, engine, **kwargs)`` and return a
    :class:`ResourceController` (or None for a no-op policy).
    """

    def decorator(factory: ControllerFactory) -> ControllerFactory:
        # Validate everything before touching the registry so a conflict
        # cannot leave a partial registration behind.
        if name in _FACTORIES or name in _ALIASES:
            raise ValueError(f"controller {name!r} is already registered")
        for alias in aliases:
            if alias == name or alias in _FACTORIES or alias in _ALIASES:
                raise ValueError(f"controller alias {alias!r} is already registered")
        _FACTORIES[name] = factory
        for alias in aliases:
            _ALIASES[alias] = name
        return factory

    return decorator


@register_controller("none")
def _no_controller(cluster, coordinator, orchestrator, engine, **kwargs):
    """The unmanaged policy: no controller is attached."""
    if kwargs:
        raise TypeError(f"the 'none' controller takes no options, got {sorted(kwargs)}")
    return None


def _ensure_builtin_controllers() -> None:
    """Import the modules whose import registers the built-in policies."""
    import repro.baselines.aimd  # noqa: F401
    import repro.baselines.kubernetes_hpa  # noqa: F401
    import repro.controllers.composed  # noqa: F401
    import repro.core.firm  # noqa: F401


def available_controllers() -> List[str]:
    """Registered controller names (aliases excluded), sorted."""
    _ensure_builtin_controllers()
    return sorted(_FACTORIES)


def describe_controllers() -> List[Dict[str, object]]:
    """One row per registered controller: name, aliases, summary, stages.

    The summary is the factory docstring's first line; ``stages`` lists
    the factory's declared ``stage_subscriptions`` (classes inherit the
    attribute from :class:`ResourceController`, wrapper functions carry
    their own).  Backs ``repro.cli controllers --list`` so sweeps stop
    guessing at registered names.
    """
    _ensure_builtin_controllers()
    alias_map: Dict[str, List[str]] = {}
    for alias, canonical in _ALIASES.items():
        alias_map.setdefault(canonical, []).append(alias)
    rows: List[Dict[str, object]] = []
    for name in sorted(_FACTORIES):
        factory = _FACTORIES[name]
        doc = (factory.__doc__ or "").strip()
        summary = doc.splitlines()[0].strip() if doc else ""
        stages = tuple(getattr(factory, "stage_subscriptions", ()) or ())
        rows.append(
            {
                "name": name,
                "aliases": sorted(alias_map.get(name, [])),
                "summary": summary,
                "stages": list(stages),
            }
        )
    return rows


def resolve_controller_name(name: str) -> str:
    """Resolve ``name`` (possibly an alias) to its canonical registry name."""
    _ensure_builtin_controllers()
    canonical = _ALIASES.get(name, name)
    if canonical not in _FACTORIES:
        known = ", ".join(sorted(set(_FACTORIES) | set(_ALIASES)))
        raise ValueError(f"unknown controller {name!r}; registered: {known}")
    return canonical


def create_controller(
    name: str,
    cluster: Cluster,
    coordinator: TracingCoordinator,
    orchestrator: Orchestrator,
    engine: SimulationEngine,
    **kwargs,
) -> Optional[ResourceController]:
    """Instantiate the controller registered under ``name`` (or an alias).

    Returns None for the ``"none"`` policy.  Raises ``ValueError`` for
    unknown names.
    """
    factory = _FACTORIES[resolve_controller_name(name)]
    return factory(cluster, coordinator, orchestrator, engine, **kwargs)
