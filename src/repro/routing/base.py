"""Routing-policy scaffolding: the ABC and the policy registry.

Every load-balancing policy in the reproduction — the default
least-in-flight balancer, classic stateless policies (round-robin,
random), and the load-aware family (power-of-two-choices, latency-EWMA,
join-the-idle-queue) — is a :class:`RoutingPolicy`: a per-service object
that picks which replica serves the next span.  Policies self-register
under a name with :func:`register_policy`, and the
:class:`~repro.routing.router.RequestRouter` instantiates them by name
through :func:`create_policy`, so new policies plug into the cluster, the
harness, and the sweep runner without touching any of them.

Determinism contract
--------------------
A policy may hold whatever per-service state it likes (counters, EWMA
tables, idle queues), but all randomness **must** come from the
:class:`~repro.sim.rng.SeededRNG` family it is constructed with — never
from :mod:`random`, :func:`numpy.random.default_rng`, or wall-clock time.
Streams are namespaced ``routing:<policy>:<service>`` so adding a policy
draw never perturbs arrivals, service times, or anomaly schedules, and
serial sweeps stay bit-identical to parallel ones.

Policies also must not cache the replica set: :meth:`RoutingPolicy.select`
receives the *live* replica list on every call (the router re-reads it
from the cluster), so scale-outs become routable and scaled-in replicas
stop receiving traffic immediately.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.instance import MicroserviceInstance

#: Registry name of the policy preserving the pre-subsystem behaviour.
DEFAULT_POLICY = "least_in_flight"


class RoutingPolicy(abc.ABC):
    """Base class: one load-balancing policy scoped to one service.

    Parameters
    ----------
    service_name:
        The (possibly tenant-namespaced) service whose replicas this
        policy balances over.  One policy instance never routes for more
        than one service, so per-service state (round-robin cursors, EWMA
        tables, idle queues) needs no keying.
    rng:
        Seeded RNG family; randomized policies draw exclusively from the
        substream named by :meth:`stream_name`.
    """

    #: Canonical registry name; set by :func:`register_policy`.
    name: str = "?"

    def __init__(self, service_name: str, rng: SeededRNG) -> None:
        self.service_name = service_name
        self.rng = rng

    def stream_name(self) -> str:
        """The RNG substream this policy's draws come from."""
        return f"routing:{self.name}:{self.service_name}"

    @abc.abstractmethod
    def select(
        self, replicas: Sequence["MicroserviceInstance"]
    ) -> "MicroserviceInstance":
        """Pick the replica that serves the next span.

        ``replicas`` is the live, non-empty replica list in deployment
        order (``replica_index`` ascending for orchestrator-managed
        services); implementations must not retain it across calls.
        """

    def observe_completion(
        self, instance: "MicroserviceInstance", latency_ms: float
    ) -> None:
        """Feedback hook: one span finished at ``instance``.

        Invoked through the instance's completion listeners after the
        instance's own state is updated, so ``instance.in_flight`` is the
        post-completion load.  Stateless policies ignore it; JIQ maintains
        its idle queue here and EWMA updates its latency table.
        """

    @property
    def takes_feedback(self) -> bool:
        """Whether this policy reads span completions at all.

        The router installs completion listeners only for such policies,
        so a load-blind policy costs nothing per completed span.
        """
        return type(self).observe_completion is not RoutingPolicy.observe_completion

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(service={self.service_name!r})"


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------

#: A factory takes ``(service_name, rng, **kwargs)`` and returns the policy.
PolicyFactory = Callable[..., RoutingPolicy]

_FACTORIES: Dict[str, PolicyFactory] = {}
_ALIASES: Dict[str, str] = {}


def register_policy(name: str, *, aliases: Sequence[str] = ()) -> Callable:
    """Class/function decorator registering a routing policy by name.

    The decorated callable must accept ``(service_name, rng, **kwargs)``
    and return a :class:`RoutingPolicy`.  When decorating a class, its
    ``name`` attribute is set to the canonical registry name.
    """

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        # Validate everything before touching the registry so a conflict
        # cannot leave a partial registration behind.
        if name in _FACTORIES or name in _ALIASES:
            raise ValueError(f"routing policy {name!r} is already registered")
        for alias in aliases:
            if alias == name or alias in _FACTORIES or alias in _ALIASES:
                raise ValueError(f"routing alias {alias!r} is already registered")
        _FACTORIES[name] = factory
        for alias in aliases:
            _ALIASES[alias] = name
        if isinstance(factory, type) and issubclass(factory, RoutingPolicy):
            factory.name = name
        return factory

    return decorator


def _ensure_builtin_policies() -> None:
    """Import the modules whose imports register the built-in policies."""
    import repro.routing.dispatchers  # noqa: F401
    import repro.routing.policies  # noqa: F401


def available_policies() -> List[str]:
    """Registered policy names (aliases excluded), sorted."""
    _ensure_builtin_policies()
    return sorted(_FACTORIES)


def resolve_policy_name(name: str) -> str:
    """Resolve ``name`` (possibly an alias) to its canonical registry name."""
    _ensure_builtin_policies()
    canonical = _ALIASES.get(name, name)
    if canonical not in _FACTORIES:
        known = ", ".join(sorted(set(_FACTORIES) | set(_ALIASES)))
        raise ValueError(f"unknown routing policy {name!r}; registered: {known}")
    return canonical


def create_policy(
    name: str, service_name: str, rng: SeededRNG, **kwargs
) -> RoutingPolicy:
    """Instantiate the policy registered under ``name`` (or an alias)."""
    factory = _FACTORIES[resolve_policy_name(name)]
    return factory(service_name, rng, **kwargs)
