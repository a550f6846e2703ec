"""The load-blind built-in policies.

* :class:`LeastInFlightPolicy` — the default: route to the replica with
  the fewest in-flight spans, ties broken by lowest replica index
  (deterministic, no randomness);
* :class:`RoundRobinPolicy` — cycle through replicas in index order;
* :class:`RandomPolicy` — uniform random replica, drawn from the sim RNG.

The load-aware rules (power-of-two-choices, latency EWMA,
join-the-idle-queue) live in :mod:`repro.routing.dispatchers`: each is a
:class:`~repro.routing.dispatchers.DispatcherSet`, whose one-dispatcher,
zero-staleness default is the omniscient balancer.

All randomness is drawn from named :mod:`repro.sim.rng` substreams (see
the determinism contract in :mod:`repro.routing.base`); no policy touches
:mod:`random` or wall-clock time, so routing sweeps are bit-identical
between serial and parallel execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.routing.base import RoutingPolicy, register_policy
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.instance import MicroserviceInstance


@register_policy("least_in_flight", aliases=("least_loaded", "default"))
class LeastInFlightPolicy(RoutingPolicy):
    """Route to the replica with the fewest in-flight spans.

    This is the pre-subsystem hardwired behaviour and stays the default;
    ties are broken by lowest replica index so the decision never depends
    on the replica list's internal ordering.
    """

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        if len(replicas) == 1:
            return replicas[0]
        return min(replicas, key=lambda instance: (instance.in_flight, instance.replica_index))


@register_policy("round_robin", aliases=("rr",))
class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the replicas in replica-index order.

    The cursor survives scale events: replicas are re-sorted by index on
    every call and the cursor is taken modulo the current set size, so a
    scale-in simply shortens the cycle.
    """

    def __init__(self, service_name: str, rng: SeededRNG) -> None:
        super().__init__(service_name, rng)
        self._cursor = 0

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        ordered = sorted(replicas, key=lambda instance: instance.replica_index)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice


@register_policy("random", aliases=("uniform_random",))
class RandomPolicy(RoutingPolicy):
    """Uniform random replica, drawn from the seeded sim RNG."""

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        stream = self.rng.stream(self.stream_name())
        return replicas[int(stream.integers(0, len(replicas)))]
