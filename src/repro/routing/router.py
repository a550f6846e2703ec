"""The request router: per-service policy instances over one cluster.

The :class:`RequestRouter` is the cluster-side half of the routing
subsystem: it owns one lazily created :class:`~repro.routing.base.RoutingPolicy`
instance per deployed service and answers every "which replica serves
this span?" query with the chosen
:class:`~repro.cluster.instance.MicroserviceInstance`.

Policy resolution is scoped, most specific first:

1. an explicit **per-service** policy (:meth:`RequestRouter.set_service_policy`),
2. the **tenant default** of the tenant owning the service
   (:meth:`RequestRouter.set_tenant_policy` — how two tenants sharing one
   cluster run different balancers),
3. the **cluster default** (:meth:`RequestRouter.set_default_policy`,
   ``least_in_flight`` unless configured otherwise).

The router re-reads the live replica set from the cluster on every
decision, so orchestrator actions are reflected immediately: a scaled-in
replica can never be selected again and a fresh scale-out is routable as
soon as its container is placed.  The resolved policy, by contrast, is
cached per service and only resolved again after a write drops the entry:
each setter drops the entries of the services it re-scopes, and the
cluster calls :meth:`RequestRouter.forget` when it moves a service to
another tenant.  It also installs the instance
completion listeners that feed the policies reading feedback (JIQ idle
enrollment, EWMA latency tables) — on those policies' replicas only — and
keeps per-replica decision counts for telemetry and experiments.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Tuple

from repro.routing.base import (
    DEFAULT_POLICY,
    RoutingPolicy,
    create_policy,
    resolve_policy_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.instance import MicroserviceInstance


class RequestRouter:
    """Routes spans to replicas through per-service policy instances.

    Parameters
    ----------
    cluster:
        The cluster whose replica sets are routed over (always the shared
        cluster — tenant scoping happens in
        :class:`~repro.cluster.cluster.TenantClusterView`, which validates
        ownership before delegating here).
    default_policy:
        Cluster-wide default policy name (default: ``least_in_flight``,
        the pre-subsystem behaviour).
    """

    def __init__(self, cluster: "Cluster", default_policy: str = DEFAULT_POLICY) -> None:
        self.cluster = cluster
        self._default = resolve_policy_name(default_policy)
        self._default_kwargs: Dict = {}
        #: Explicit per-service policy names (+ factory kwargs).
        self._service_policies: Dict[str, Tuple[str, Dict]] = {}
        #: Per-tenant default policy names (+ factory kwargs).
        self._tenant_policies: Dict[str, Tuple[str, Dict]] = {}
        #: Instantiated policies: service -> (resolved name, policy).
        self._policies: Dict[str, Tuple[str, RoutingPolicy]] = {}
        #: Decisions per service per replica name (for tests/experiments).
        self.decision_counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: Observability (enabled by the harness; None keeps the hot path
        #: untouched).
        self._obs = None
        self._obs_engine = None
        self._obs_sample_every = 1
        #: (service, policy) -> cached registry counter, so the hot path
        #: never re-resolves the interned series.
        self._obs_counters: Dict[Tuple[str, str], object] = {}
        self._obs_picks = 0

    def enable_observability(self, obs, engine, sample_every: int = 128) -> None:
        """Record routing picks into ``obs`` (counters + sampled journal).

        Every pick increments a ``routing_picks_total{service,policy}``
        counter; one pick in ``sample_every`` is also journalled as a
        ``routing_pick`` record.  Sampling keeps the journal ring from
        being flooded by the one per-span event kind (which would evict
        the rare records — anomaly injections, scale decisions — the
        inspector needs most).
        """
        self._obs = obs
        self._obs_engine = engine
        self._obs_sample_every = max(1, int(sample_every))

    # -------------------------------------------------------- configuration
    @property
    def default_policy(self) -> str:
        """The cluster-wide default policy name."""
        return self._default

    def set_default_policy(self, name: str, **kwargs) -> None:
        """Set the cluster-wide default policy.

        Only services actually resolving to the default are re-created;
        services pinned explicitly or covered by a tenant default keep
        their policy instances (and their learned state: EWMA tables,
        idle queues, cursors)."""
        self._default = resolve_policy_name(name)
        self._default_kwargs = dict(kwargs)
        self._invalidate(
            lambda service: service not in self._service_policies
            and self.cluster.tenant_of(service) not in self._tenant_policies
        )

    def set_tenant_policy(self, tenant: str, name: str, **kwargs) -> None:
        """Set the default policy for every service owned by ``tenant``.

        Other tenants' (and explicitly pinned services') policy instances
        are untouched, so reconfiguring one tenant mid-run never wipes a
        neighbour's learned routing state."""
        self._tenant_policies[tenant] = (resolve_policy_name(name), dict(kwargs))
        self._invalidate(
            lambda service: service not in self._service_policies
            and self.cluster.tenant_of(service) == tenant
        )

    def set_service_policy(self, service_name: str, name: str, **kwargs) -> None:
        """Pin one service to a policy (overrides tenant/cluster defaults)."""
        self._service_policies[service_name] = (resolve_policy_name(name), dict(kwargs))
        self.forget(service_name)

    def forget(self, service_name: str) -> None:
        """Drop ``service_name``'s policy instance; the next route rebuilds it."""
        self._policies.pop(service_name, None)

    def _invalidate(self, affected) -> None:
        """Drop cached policy instances for services matching ``affected``."""
        for service in [s for s in self._policies if affected(s)]:
            del self._policies[service]

    def policy_name_for(self, service_name: str) -> str:
        """The canonical policy name ``service_name`` resolves to."""
        return self._configured(service_name)[0]

    def policy_for(self, service_name: str) -> RoutingPolicy:
        """The (lazily created) policy instance routing ``service_name``."""
        return self._entry(service_name)[1]

    def _configured(self, service_name: str) -> Tuple[str, Dict]:
        explicit = self._service_policies.get(service_name)
        if explicit is not None:
            return explicit
        tenant = self.cluster.tenant_of(service_name)
        if tenant is not None and tenant in self._tenant_policies:
            return self._tenant_policies[tenant]
        return self._default, self._default_kwargs

    def _entry(self, service_name: str) -> Tuple[str, RoutingPolicy]:
        cached = self._policies.get(service_name)
        if cached is None:
            name, kwargs = self._configured(service_name)
            policy = create_policy(name, service_name, self.cluster.rng, **kwargs)
            cached = (name, policy)
            self._policies[service_name] = cached
            if policy.takes_feedback:
                for instance in self.cluster.live_replicas(service_name) or ():
                    self._listen(instance)
        return cached

    # --------------------------------------------------------------- routing
    def route(self, service_name: str) -> "MicroserviceInstance":
        """Pick the replica serving the next span of ``service_name``.

        Reads the live replica set from the cluster (so scale events take
        effect immediately) and records the decision.  The service's policy
        comes from ``_policies``; ``_entry`` runs only on a miss, because
        every write that changes what a service resolves to drops its entry
        (the three setters, and :meth:`forget` when the cluster re-assigns
        a service's tenant).
        """
        # The live replica list, not the defensive copy `replicas_of`
        # returns: routing runs once per span and policies only read the
        # sequence (see RoutingPolicy.select's contract), so the copy
        # would be pure allocation churn.
        replicas = self.cluster.live_replicas(service_name)
        if not replicas:
            raise KeyError(f"service {service_name!r} is not deployed")
        entry = self._policies.get(service_name)
        if entry is None:
            entry = self._entry(service_name)
        name, policy = entry
        instance = policy.select(replicas)
        self.decision_counts[service_name][instance.name] += 1
        if self._obs is not None:
            counter = self._obs_counters.get((service_name, name))
            if counter is None:
                counter = self._obs.registry.counter(
                    "routing_picks_total", service=service_name, policy=name
                )
                self._obs_counters[(service_name, name)] = counter
            counter.inc()
            self._obs_picks += 1
            if (self._obs_picks - 1) % self._obs_sample_every == 0:
                self._obs.journal.record(
                    self._obs_engine.now,
                    "routing_pick",
                    service_name,
                    policy=name,
                    instance=instance.name,
                )
        return instance

    def instrument(self, instance: "MicroserviceInstance") -> None:
        """Feed a newly deployed replica's completions to its service's policy.

        Called by the cluster as each replica is deployed (initial deploys
        and scale-outs alike).  Only a policy that reads feedback gets a
        listener: one created later installs it on the replicas live at
        that point (:meth:`_entry`), and a scale-out while it routes gets
        it here.  Completions before a policy exists had no policy to feed
        and still have none, so a load-blind policy costs no call per span.
        """
        cached = self._policies.get(instance.profile.name)
        if cached is not None and cached[1].takes_feedback:
            self._listen(instance)

    def _listen(self, instance: "MicroserviceInstance") -> None:
        if self._dispatch_completion not in instance.completion_listeners:
            instance.completion_listeners.append(self._dispatch_completion)

    def _dispatch_completion(
        self, instance: "MicroserviceInstance", latency_ms: float
    ) -> None:
        """Feed one span completion to the owning service's policy."""
        cached = self._policies.get(instance.profile.name)
        if cached is not None:
            cached[1].observe_completion(instance, latency_ms)

    # --------------------------------------------------------------- queries
    def decisions_for(self, service_name: str) -> Dict[str, int]:
        """Decision counts per replica name for one service."""
        return dict(self.decision_counts.get(service_name, {}))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        overrides = {s: n for s, (n, _) in self._service_policies.items()}
        return (
            f"RequestRouter(default={self._default!r}, "
            f"tenants={ {t: n for t, (n, _) in self._tenant_policies.items()} }, "
            f"services={overrides})"
        )
