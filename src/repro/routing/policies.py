"""The built-in load-balancing policies.

Six policies spanning the classic design space (cf. the Distributed
Join-the-Idle-Queue line of work in PAPERS.md):

* :class:`LeastInFlightPolicy` — the pre-subsystem default: route to the
  replica with the fewest in-flight spans, ties broken by lowest replica
  index (deterministic, no randomness);
* :class:`RoundRobinPolicy` — cycle through replicas in index order;
* :class:`RandomPolicy` — uniform random replica, drawn from the sim RNG;
* :class:`PowerOfTwoChoicesPolicy` — sample two distinct replicas, route
  to the less loaded one (the "power of d choices" result: most of the
  benefit of global knowledge at two probes' cost);
* :class:`EWMALatencyPolicy` — per-replica latency EWMA fed from span
  completions, scored ``ewma * (in_flight + 1)`` (peak-EWMA style, so a
  slow *or* busy replica is avoided);
* :class:`JoinTheIdleQueuePolicy` — a FIFO idle queue maintained through
  instance completion hooks; idle replicas are preferred in the order
  they became idle, with a uniform-random fallback under saturation
  (classic JIQ dispatch).

All randomness is drawn from named :mod:`repro.sim.rng` substreams (see
the determinism contract in :mod:`repro.routing.base`); no policy touches
:mod:`random` or wall-clock time, so routing sweeps are bit-identical
between serial and parallel execution.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.routing.base import RoutingPolicy, register_policy
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.instance import MicroserviceInstance


def _least_loaded(
    replicas: Sequence["MicroserviceInstance"],
) -> "MicroserviceInstance":
    """Fewest in-flight spans; equal loads resolve to the lowest index."""
    return min(replicas, key=lambda instance: (instance.in_flight, instance.replica_index))


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
        return _least_loaded(replicas)


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


@register_policy("power_of_two_choices", aliases=("p2c", "power_of_two"))
class PowerOfTwoChoicesPolicy(RoutingPolicy):
    """Sample two distinct replicas, route to the less loaded one.

    Ties between the two probes resolve to the lower replica index, so
    the only randomness is the pair of probes themselves.
    """

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        count = len(replicas)
        if count == 1:
            return replicas[0]
        stream = self.rng.stream(self.stream_name())
        first = int(stream.integers(0, count))
        second = int(stream.integers(0, count - 1))
        if second >= first:
            second += 1
        return _least_loaded((replicas[first], replicas[second]))


@register_policy("ewma_latency", aliases=("ewma",))
class EWMALatencyPolicy(RoutingPolicy):
    """Route by per-replica latency EWMA weighted by outstanding load.

    Each replica's span latencies (fed through the instance completion
    hooks) update an exponentially weighted moving average; the routing
    score is ``ewma_ms * (in_flight + 1)`` — the peak-EWMA shape used by
    production balancers — so both a chronically slow replica and a
    momentarily swamped one are avoided.  Replicas with no observations
    yet score with a tiny optimistic prior instead of their (unknown)
    EWMA: cold replicas — fresh scale-outs included — are still explored
    ahead of observed ones, but remain ranked among themselves by
    outstanding load, so a burst of decisions cannot all pile onto one
    unproven replica before its first completion lands.
    """

    #: Optimistic EWMA (ms) assumed for replicas with no observations:
    #: small enough to lose to any real latency, non-zero so the
    #: ``in_flight`` factor still spreads load across cold replicas.
    COLD_EWMA_MS = 1e-3

    def __init__(self, service_name: str, rng: SeededRNG, alpha: float = 0.3) -> None:
        super().__init__(service_name, rng)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        #: Latency EWMA (ms) per replica, keyed by identity (not name:
        #: ``service#index`` names are reused after a scale-in followed by
        #: a scale-out, and a fresh replica must not inherit the dead
        #: replica's latency history).  Weak keys let scaled-in replicas'
        #: entries vanish with the instance.
        self._ewma_ms: "weakref.WeakKeyDictionary[MicroserviceInstance, float]" = (
            weakref.WeakKeyDictionary()
        )

    def observe_completion(
        self, instance: "MicroserviceInstance", latency_ms: float
    ) -> None:
        previous = self._ewma_ms.get(instance)
        if previous is None:
            self._ewma_ms[instance] = float(latency_ms)
        else:
            self._ewma_ms[instance] = (
                self.alpha * float(latency_ms) + (1.0 - self.alpha) * previous
            )

    def score(self, instance: "MicroserviceInstance") -> float:
        """The routing score (lower is better) of one replica."""
        return self._ewma_ms.get(instance, self.COLD_EWMA_MS) * (instance.in_flight + 1)

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        return min(
            replicas, key=lambda instance: (self.score(instance), instance.replica_index)
        )


@register_policy("join_the_idle_queue", aliases=("jiq",))
class JoinTheIdleQueuePolicy(RoutingPolicy):
    """Join-the-Idle-Queue: prefer replicas that reported themselves idle.

    Replicas enter a FIFO idle queue when a completion leaves them with
    zero in-flight spans (via the instance completion hooks); routing pops
    the head of the queue.  Replicas the policy has never seen (initial
    deployment, fresh scale-outs) are enqueued as idle on first sight.
    When no queued replica is actually idle any more, the policy falls
    back to a uniform-random replica from the sim RNG — the classic JIQ
    behaviour under saturation, which is exactly where its tail-latency
    behaviour diverges from least-loaded routing.
    """

    def __init__(self, service_name: str, rng: SeededRNG) -> None:
        super().__init__(service_name, rng)
        #: FIFO of replicas believed idle (ordered by when they idled).
        #: Keyed by identity, not name: replica names are reused across
        #: scale-in/scale-out, and a fresh replica is a different server.
        self._idle: "OrderedDict[MicroserviceInstance, None]" = OrderedDict()
        #: Replicas ever observed (so fresh replicas seed the queue).
        self._known: "weakref.WeakSet[MicroserviceInstance]" = weakref.WeakSet()

    def observe_completion(
        self, instance: "MicroserviceInstance", latency_ms: float
    ) -> None:
        self._known.add(instance)
        if instance.in_flight == 0:
            self._idle.pop(instance, None)
            self._idle[instance] = None

    def select(self, replicas: Sequence["MicroserviceInstance"]) -> "MicroserviceInstance":
        live = set(replicas)
        # First sight of a replica: treat it as idle (it has served nothing).
        for instance in replicas:
            if instance not in self._known:
                self._known.add(instance)
                if instance.in_flight == 0:
                    self._idle[instance] = None
        while self._idle:
            candidate, _ = self._idle.popitem(last=False)
            # Stale entries (scaled-in replicas, replicas that picked up
            # work since idling) are discarded, never routed to.
            if candidate in live and candidate.in_flight == 0:
                return candidate
        stream = self.rng.stream(self.stream_name())
        return replicas[int(stream.integers(0, len(replicas)))]
