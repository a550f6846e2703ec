"""Pluggable request routing: load-balancing policies as a first-class layer.

Where requests land shapes SLO violations as much as how replicas are
sized (cf. the Distributed Join-the-Idle-Queue results in PAPERS.md:
routing policy alone moves tail latency by integer factors at high load).
This package turns the cluster's formerly hardwired ``min(in_flight)``
balancer into a subsystem mirroring the controller registry:

* :mod:`repro.routing.base` — the :class:`RoutingPolicy` ABC, the
  ``@register_policy`` registry, and the determinism contract (sim RNG
  substreams only; live replica sets only);
* :mod:`repro.routing.policies` — the load-blind policies:
  ``least_in_flight`` (the default, bit-identical to the pre-subsystem
  behaviour), ``round_robin`` and ``random``;
* :mod:`repro.routing.dispatchers` — the load-aware rules
  ``join_the_idle_queue``, ``power_of_two_choices`` and ``ewma_latency``,
  one :class:`DispatcherSet` class each: N dispatchers with
  bounded-staleness partial views, the regime where JIQ differentiates
  from P2C/EWMA.  The omniscient balancer is the one-dispatcher,
  zero-staleness case (the default);
* :mod:`repro.routing.router` — the per-cluster :class:`RequestRouter`
  resolving service → policy (per-service override, then tenant default,
  then cluster default) and counting each decision per replica.

Selecting a policy is declarative: set ``routing="p2c"`` on a
:class:`~repro.experiments.scenario.ScenarioSpec` (cluster-wide) or a
:class:`~repro.experiments.scenario.TenantSpec` (that tenant only), or
imperatively via ``cluster.set_routing_policy(...)`` (which also takes a
rule's ``dispatchers=``/``staleness_s=``).  Adding a policy is
one class::

    from repro.routing import RoutingPolicy, register_policy

    @register_policy("shortest_queue")
    class ShortestQueuePolicy(RoutingPolicy):
        def select(self, replicas):
            return min(replicas, key=lambda i: (i.queue_length, i.replica_index))
"""

from repro.routing.base import (
    DEFAULT_POLICY,
    RoutingPolicy,
    available_policies,
    create_policy,
    register_policy,
    resolve_policy_name,
)
from repro.routing.dispatchers import DISPATCH_VARIANTS, DispatcherSet
from repro.routing.router import RequestRouter

__all__ = [
    "DEFAULT_POLICY",
    "DISPATCH_VARIANTS",
    "DispatcherSet",
    "RoutingPolicy",
    "RequestRouter",
    "available_policies",
    "create_policy",
    "register_policy",
    "resolve_policy_name",
]
