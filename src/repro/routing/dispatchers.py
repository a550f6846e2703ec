"""The load-aware routing rules, each run by a set of dispatchers.

A service is fronted by N dispatchers, each holding a *partial, stale*
view of the replica pool refreshed on a bounded-staleness schedule.  The
JIQ line of work in PAPERS.md (Wang, Feng & Cheng, "Distributed
Join-the-Idle-Queue for Low Latency Cloud Services") treats the classic
omniscient balancer as the special case of one dispatcher whose view is
never stale, and so does this module: each selection rule is one
:class:`DispatcherSet` subclass whose defaults (``dispatchers=1,
staleness_s=0.0``) are that omniscient case.  The rules supply their own
pick and only the feedback they read:

* :class:`JoinTheIdleQueuePolicy` (``join_the_idle_queue``/``jiq``) —
  idle replicas enroll in exactly one dispatcher's private FIFO I-queue
  by rotation; uniform-random fallback under saturation;
* :class:`PowerOfTwoChoicesPolicy` (``power_of_two_choices``/``p2c``) —
  two random probes compared on the view's in-flight counts; no feedback;
* :class:`EWMALatencyPolicy` (``ewma_latency``/``ewma``) — peak-EWMA
  scoring over a snapshot of the live replicas' latency EWMAs.

The determinism contract holds: all randomness comes from the rule's
``routing:stale_<rule>:<service>`` substream, and virtual time is read
from the live replicas' shared engine (never wall clock).
"""

from __future__ import annotations

import abc
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.routing.base import RoutingPolicy, register_policy
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.instance import MicroserviceInstance

#: The live replica list a pick chooses from (see ``RoutingPolicy.select``).
Replicas = Sequence["MicroserviceInstance"]

#: The rule aliases a scenario's ``dispatch_variant`` may name.
DISPATCH_VARIANTS = ("jiq", "ewma", "p2c")


class DispatcherView:
    """One dispatcher's stale partial view of a service's replica pool.

    ``in_flight`` is the per-replica load *as of the last refresh* plus
    the optimistic increments for spans this dispatcher routed since.
    ``ewma_ms`` (EWMA rule) is a refresh-time copy of the live replicas'
    latency EWMAs, and ``idle`` (JIQ rule) is this dispatcher's private
    I-queue (replicas that reported idle to *this* dispatcher, FIFO by
    enrollment).  Keys are instance identities, never names:
    ``service#index`` names are reused across scale-in/scale-out, and a
    fresh replica is a different server.
    """

    __slots__ = ("last_refresh_s", "in_flight", "ewma_ms", "idle")

    def __init__(self) -> None:
        #: Virtual time of the last refresh (-inf = never refreshed).
        self.last_refresh_s = float("-inf")
        self.in_flight: Dict["MicroserviceInstance", int] = {}
        self.ewma_ms: Dict["MicroserviceInstance", float] = {}
        self.idle: "OrderedDict[MicroserviceInstance, None]" = OrderedDict()


class DispatcherSet(RoutingPolicy):
    """N dispatchers with bounded-staleness views behind one routing rule.

    Arrivals are assigned to dispatchers by deterministic rotation (real
    deployments hash or DNS-round-robin clients over dispatchers; rotation
    is the seed-stable equivalent).  Each dispatcher's view is refreshed
    from the live replicas (by default a snapshot of their in-flight
    counts) only when older than ``staleness_s``, and adds an *optimistic
    local increment* per span it dispatches in between: a dispatcher knows
    what it sent, not what the others sent.

    Parameters
    ----------
    service_name / rng:
        Standard :class:`~repro.routing.base.RoutingPolicy` wiring.
    dispatchers:
        Dispatcher count N (>= 1).
    staleness_s:
        Maximum view age in simulated seconds.  ``0`` refreshes on every
        arrival; with one dispatcher that is the omniscient balancer.
    """

    #: Names the rule's RNG substream (``routing:<label>:<service>``).
    #: Seeded results, the firmbench digests included, depend on it.
    stream_label = "?"

    def __init__(
        self,
        service_name: str,
        rng: SeededRNG,
        dispatchers: int = 1,
        staleness_s: float = 0.0,
    ) -> None:
        super().__init__(service_name, rng)
        if int(dispatchers) < 1:
            raise ValueError(f"dispatchers must be >= 1, got {dispatchers}")
        if float(staleness_s) < 0.0:
            raise ValueError(f"staleness_s must be >= 0, got {staleness_s}")
        self.dispatchers = int(dispatchers)
        self.staleness_s = float(staleness_s)
        self._views: List[DispatcherView] = [DispatcherView() for _ in range(self.dispatchers)]
        #: Arrival counter; ``arrivals % N`` is the serving dispatcher.
        self._arrivals = 0

    def stream_name(self) -> str:
        return f"routing:{self.stream_label}:{self.service_name}"

    def select(self, replicas: Replicas) -> "MicroserviceInstance":
        view = self._views[self._arrivals % self.dispatchers]
        self._arrivals += 1
        now = replicas[0].engine.now
        if now - view.last_refresh_s >= self.staleness_s:
            view.last_refresh_s = now
            self._refresh(view, replicas)
        choice = self._pick(view, replicas)
        view.in_flight[choice] = view.in_flight.get(choice, 0) + 1
        return choice

    def _refresh(self, view: DispatcherView, replicas: Replicas) -> None:
        """Re-snapshot the live pool state (the bounded-staleness poll)."""
        view.in_flight = {instance: instance.in_flight for instance in replicas}

    @abc.abstractmethod
    def _pick(self, view: DispatcherView, replicas: Replicas) -> "MicroserviceInstance":
        """The rule: choose a live replica from the serving dispatcher's view."""


@register_policy("join_the_idle_queue", aliases=("jiq",))
class JoinTheIdleQueuePolicy(DispatcherSet):
    """Join-the-Idle-Queue: prefer replicas that reported themselves idle.

    A completion that leaves a replica with zero in-flight spans enrolls
    it in exactly *one* dispatcher's I-queue (rotation), the defining
    partial-view property of distributed JIQ: the other N-1 dispatchers
    stay ignorant of the idle token.  Replicas never seen before (initial
    deployment, fresh scale-outs) enroll as idle on first sight.  A pick
    pops the serving dispatcher's queue head; when the queue holds no
    live replica the rule falls back to a uniform-random replica — the
    classic JIQ behaviour under saturation.
    """

    stream_label = "stale_jiq"

    def __init__(self, service_name: str, rng: SeededRNG, **kwargs) -> None:
        super().__init__(service_name, rng, **kwargs)
        #: Idle-enrollment counter; idling replicas join one I-queue each.
        self._enrollments = 0
        #: Replicas ever observed (first sight seeds the I-queues).
        self._known: "weakref.WeakSet[MicroserviceInstance]" = weakref.WeakSet()

    def observe_completion(self, instance: "MicroserviceInstance", latency_ms: float) -> None:
        self._known.add(instance)
        if instance.in_flight == 0:
            self._enroll_idle(instance)

    def _enroll_idle(self, instance: "MicroserviceInstance") -> None:
        """Move ``instance``'s idle token to the next dispatcher's I-queue."""
        for view in self._views:
            view.idle.pop(instance, None)
        view = self._views[self._enrollments % self.dispatchers]
        self._enrollments += 1
        view.idle[instance] = None

    def select(self, replicas: Replicas) -> "MicroserviceInstance":
        for instance in replicas:
            if instance not in self._known:
                self._known.add(instance)
                if instance.in_flight == 0:
                    self._enroll_idle(instance)
        return super().select(replicas)

    def _refresh(self, view: DispatcherView, replicas: Replicas) -> None:
        # The I-queue is push-maintained (idle replicas enroll as they
        # idle); a refresh only evicts entries the poll proves busy, so a
        # stale-but-now-busy replica cannot linger a full staleness
        # window beyond the next refresh.  The pick reads no loads, so
        # none are snapshotted.
        view.in_flight = {}
        for instance in [i for i in view.idle if i.in_flight > 0]:
            del view.idle[instance]

    def _pick(self, view: DispatcherView, replicas: Replicas) -> "MicroserviceInstance":
        live = set(replicas)
        while view.idle:
            candidate, _ = view.idle.popitem(last=False)
            # Liveness is the only fresh fact consulted: a scaled-in
            # replica is unroutable, but a replica that merely got busy
            # since the last refresh is still dispatched to — the JIQ
            # staleness artifact this rule exists to model.
            if candidate in live:
                return candidate
        stream = self.rng.stream(self.stream_name())
        return replicas[int(stream.integers(0, len(replicas)))]


@register_policy("power_of_two_choices", aliases=("p2c", "power_of_two"))
class PowerOfTwoChoicesPolicy(DispatcherSet):
    """Sample two distinct replicas, route to the one the view sees less loaded.

    Ties between the two probes resolve to the lower replica index, so
    the only randomness is the pair of probes themselves.
    """

    stream_label = "stale_p2c"

    def _pick(self, view: DispatcherView, replicas: Replicas) -> "MicroserviceInstance":
        count = len(replicas)
        if count == 1:
            return replicas[0]
        stream = self.rng.stream(self.stream_name())
        first = int(stream.integers(0, count))
        second = int(stream.integers(0, count - 1))
        if second >= first:
            second += 1
        return min(
            (replicas[first], replicas[second]),
            key=lambda instance: (view.in_flight.get(instance, 0), instance.replica_index),
        )


@register_policy("ewma_latency", aliases=("ewma",))
class EWMALatencyPolicy(DispatcherSet):
    """Route by per-replica latency EWMA weighted by outstanding load.

    Each replica's span latencies (fed through the instance completion
    hooks) update an exponentially weighted moving average; the score is
    ``ewma_ms * (in_flight + 1)`` over the dispatcher's view — the
    peak-EWMA shape used by production balancers — so both a chronically
    slow replica and a momentarily swamped one are avoided.  Replicas
    with no observations yet score with a tiny optimistic prior: cold
    replicas — fresh scale-outs included — are explored ahead of observed
    ones, but remain ranked among themselves by outstanding load, so a
    burst of decisions cannot all pile onto one unproven replica.
    """

    stream_label = "stale_ewma"

    #: Optimistic EWMA (ms) assumed for replicas with no observations:
    #: small enough to lose to any real latency, non-zero so the
    #: ``in_flight`` factor still spreads load across cold replicas.
    COLD_EWMA_MS = 1e-3

    def __init__(self, service_name: str, rng: SeededRNG, alpha: float = 0.3, **kwargs) -> None:
        super().__init__(service_name, rng, **kwargs)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        #: The shared (true) latency EWMA table, fed by completions; the
        #: dispatchers only see their refresh-time copies of it.  Keyed by
        #: identity; a refresh drops scaled-in replicas' entries.
        self._ewma_ms: Dict["MicroserviceInstance", float] = {}

    def observe_completion(self, instance: "MicroserviceInstance", latency_ms: float) -> None:
        previous = self._ewma_ms.get(instance)
        if previous is None:
            self._ewma_ms[instance] = float(latency_ms)
        else:
            self._ewma_ms[instance] = self.alpha * float(latency_ms) + (1.0 - self.alpha) * previous

    def _refresh(self, view: DispatcherView, replicas: Replicas) -> None:
        # Only the live replicas' entries: a pick never scores any other,
        # and a zero-staleness view refreshes on every arrival.
        table, cold = self._ewma_ms, self.COLD_EWMA_MS
        if len(table) > len(replicas):
            live = set(replicas)
            for instance in [i for i in table if i not in live]:
                del table[instance]
        loads, ewma_ms = {}, {}
        for instance in replicas:
            loads[instance] = instance.in_flight
            ewma_ms[instance] = table.get(instance, cold)
        view.in_flight, view.ewma_ms = loads, ewma_ms

    def _pick(self, view: DispatcherView, replicas: Replicas) -> "MicroserviceInstance":
        ewma_ms, loads, cold = view.ewma_ms, view.in_flight, self.COLD_EWMA_MS
        best, best_score = None, 0.0
        for instance in replicas:
            score = ewma_ms.get(instance, cold) * (loads.get(instance, 0) + 1)
            # The lowest score wins; equal scores go to the lowest index.
            if (
                best is None
                or score < best_score
                or (score == best_score and instance.replica_index < best.replica_index)
            ):
                best, best_score = instance, score
        return best
