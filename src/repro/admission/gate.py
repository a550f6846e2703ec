"""The admission gate: rate limiting, shedding, retries, hedging, breakers.

:class:`AdmissionGate` sits between the workload generator and
:meth:`~repro.apps.runtime.ApplicationRuntime.submit_attempt`.  Each call
to :meth:`AdmissionGate.submit` is one *logical* request; the gate decides
whether to shed it (token bucket, concurrency limit, or circuit breaker),
and for admitted requests it launches one or more *physical* attempts —
the original, retries after backoff, and hedges — each of which is a
first-class trace with its own spans.  Shed requests are also first-class:
they get a trace that is begun and immediately dropped, so SLO accounting,
telemetry sketches, and the observability journal all see them.

Determinism: the gate draws backoff jitter exclusively from the seeded
``admission:<app>`` substream and schedules everything on the simulation
engine, so admission-controlled runs are byte-identical across repeats
and across serial/parallel sweep execution.

Observability: when constructed with an
:class:`~repro.obs.run.Observability`, the gate journals
``admission_decision`` records for sheds, ``retry`` records for every
scheduled retry, and ``breaker_transition`` records for breaker state
changes, and feeds decision/retry/hedge counters into the metrics
registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.admission.config import AdmissionConfig, CircuitBreakerConfig
from repro.sim.rng import SeededRNG
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.runtime import ApplicationRuntime

__all__ = ["AdmissionGate", "CircuitBreaker", "TokenBucket"]


class TokenBucket:
    """A token bucket refilled on demand from simulated time.

    ``take`` admits priority class ``p`` (0 = highest of ``levels``) only
    while, after the draw, the bucket would retain at least
    ``p / levels`` of its capacity — the priority watermark: under
    pressure the lowest classes are shed first and class 0 keeps drawing
    until the bucket is truly empty.
    """

    __slots__ = ("rate", "capacity", "tokens", "_last_refill_s")

    def __init__(self, rate_rps: float, capacity: float) -> None:
        if rate_rps <= 0.0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        if capacity < 1.0:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.rate = float(rate_rps)
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last_refill_s = 0.0

    def refill(self, now: float) -> None:
        """Credit tokens for the time elapsed since the last refill."""
        elapsed = now - self._last_refill_s
        if elapsed > 0.0:
            self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self._last_refill_s = now

    def take(self, now: float, priority: int = 0, levels: int = 1) -> bool:
        """Draw one token for class ``priority``; False = shed."""
        self.refill(now)
        floor = (priority / levels) * self.capacity if levels > 1 else 0.0
        if self.tokens - 1.0 >= floor - 1e-12:
            self.tokens -= 1.0
            return True
        return False


class CircuitBreaker:
    """Per-service breaker state machine: closed → open → half-open.

    ``failure_threshold`` consecutive failures trip the breaker open;
    while open every request is rejected until ``cooldown_s`` has passed,
    then the half-open state admits up to ``half_open_probes`` concurrent
    probes — one probe failure re-opens the breaker, ``half_open_probes``
    consecutive probe successes close it.  ``on_transition`` (if given)
    is invoked ``(old_state, new_state, now)`` on every state change.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = (
        "config",
        "state",
        "transitions",
        "on_transition",
        "_consecutive_failures",
        "_opened_at_s",
        "_probes_outstanding",
        "_probe_successes",
    )

    def __init__(
        self,
        config: CircuitBreakerConfig,
        on_transition: Optional[Callable[[str, str, float], None]] = None,
    ) -> None:
        self.config = config
        self.state = self.CLOSED
        self.transitions = 0
        self.on_transition = on_transition
        self._consecutive_failures = 0
        self._opened_at_s = 0.0
        self._probes_outstanding = 0
        self._probe_successes = 0

    def _transition(self, new_state: str, now: float) -> None:
        old_state, self.state = self.state, new_state
        self.transitions += 1
        if new_state == self.OPEN:
            self._opened_at_s = now
            self._consecutive_failures = 0
        elif new_state == self.HALF_OPEN:
            self._probes_outstanding = 0
            self._probe_successes = 0
        else:
            self._consecutive_failures = 0
        if self.on_transition is not None:
            self.on_transition(old_state, new_state, now)

    def allow(self, now: float) -> bool:
        """Whether one request may proceed at ``now`` (may move state)."""
        if not self.config.enabled:
            return True
        if self.state == self.OPEN:
            if now - self._opened_at_s < self.config.cooldown_s:
                return False
            self._transition(self.HALF_OPEN, now)
        if self.state == self.HALF_OPEN:
            if self._probes_outstanding >= self.config.half_open_probes:
                return False
            self._probes_outstanding += 1
        return True

    def record_success(self, now: float) -> None:
        """Feedback: one admitted request succeeded."""
        if not self.config.enabled:
            return
        if self.state == self.HALF_OPEN:
            self._probes_outstanding = max(0, self._probes_outstanding - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._transition(self.CLOSED, now)
        else:
            self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """Feedback: one admitted request failed."""
        if not self.config.enabled:
            return
        if self.state == self.HALF_OPEN:
            self._transition(self.OPEN, now)
        elif self.state == self.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self._transition(self.OPEN, now)


class _LogicalRequest:
    """Bookkeeping for one admitted logical request across its attempts."""

    __slots__ = (
        "request_type",
        "entry_service",
        "priority",
        "admitted_at_s",
        "deadline_s",
        "on_complete",
        "attempts",
        "outstanding",
        "retry_pending",
        "hedges",
        "settled",
        "first_trace",
    )

    def __init__(
        self,
        request_type: str,
        entry_service: str,
        priority: int,
        admitted_at_s: float,
        deadline_s: Optional[float],
        on_complete: Optional[Callable[[Trace], None]],
    ) -> None:
        self.request_type = request_type
        self.entry_service = entry_service
        self.priority = priority
        self.admitted_at_s = admitted_at_s
        self.deadline_s = deadline_s
        self.on_complete = on_complete
        #: Physical attempts launched (original + retries + hedges).
        self.attempts = 0
        #: Attempts launched but not yet resolved.
        self.outstanding = 0
        #: A retry is scheduled (backoff timer armed).
        self.retry_pending = False
        #: Hedge attempts launched.
        self.hedges = 0
        self.settled = False
        self.first_trace: Optional[Trace] = None


class AdmissionGate:
    """Admission control for one application runtime.

    Parameters
    ----------
    runtime:
        The :class:`~repro.apps.runtime.ApplicationRuntime` whose requests
        this gate governs; attach via ``runtime.admission = gate``.
    rng:
        Seeded RNG family; backoff jitter draws from the
        ``admission:<app>`` substream exclusively.
    config:
        The resolved :class:`~repro.admission.config.AdmissionConfig`.
    obs:
        Optional :class:`~repro.obs.run.Observability` receiving
        journal records and metrics.
    source:
        Journal/metrics source label (defaults to ``admission:<app>`` or,
        for tenanted runtimes, ``admission:<tenant>``).
    """

    def __init__(
        self,
        runtime: "ApplicationRuntime",
        rng: SeededRNG,
        config: AdmissionConfig,
        obs=None,
        source: Optional[str] = None,
    ) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.rng = rng
        self.config = config
        self.obs = obs
        self.source = source or f"admission:{runtime.tenant or runtime.app.name}"
        self._jitter_stream = f"admission:{runtime.app.name}"
        self._bucket: Optional[TokenBucket] = None
        if config.rate_limit_rps is not None:
            self._bucket = TokenBucket(
                config.rate_limit_rps, config.effective_burst()
            )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._in_flight = 0
        self.stats: Dict[str, float] = {
            "submitted": 0,
            "admitted": 0,
            "shed": 0,
            "attempts": 0,
            "retries": 0,
            "hedges": 0,
            "succeeded": 0,
            "failed": 0,
            "deadline_exceeded": 0,
        }
        self.shed_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------ admission
    def submit(
        self,
        request_type_name: str,
        on_complete: Optional[Callable[[Trace], None]] = None,
    ) -> Trace:
        """Admit-or-shed one logical request, launching attempt 1 if admitted.

        Returns the first attempt's trace (already dropped when shed;
        ``on_complete`` then never fires).  For admitted requests
        ``on_complete`` fires exactly once, with the trace of the attempt
        that settled the request — which may be a retry or hedge, and may
        be a dropped trace when every attempt failed.
        """
        now = self.engine.now
        self.stats["submitted"] += 1
        request_type = self.runtime.app.request_types[request_type_name]
        entry_service = request_type.entry_service
        priority = self.config.priority_of(request_type_name)

        reason = self._shed_reason(now, entry_service, priority)
        if reason is not None:
            return self._shed(request_type_name, reason, priority)

        self.stats["admitted"] += 1
        self._in_flight += 1
        self._count("admission_requests", decision="admitted")
        deadline = (
            now + self.config.timeout_budget_s
            if self.config.timeout_budget_s is not None
            else None
        )
        logical = _LogicalRequest(
            request_type_name, entry_service, priority, now, deadline, on_complete
        )
        trace = self._launch_attempt(logical, label=None)
        if self.config.hedge.delay_s > 0.0 and not logical.settled:
            self._arm_hedge(logical)
        return trace

    def _shed_reason(
        self, now: float, entry_service: str, priority: int
    ) -> Optional[str]:
        """The reason to shed this request now, or None to admit it."""
        breaker = self._breakers.get(entry_service)
        if breaker is not None and not breaker.allow(now):
            return "breaker"
        if self.config.breaker.enabled and breaker is None:
            # First sight of this entry service: materialize its breaker
            # (a fresh breaker is closed, so it always allows).
            self._breaker_for(entry_service).allow(now)
        if self.config.max_concurrent is not None:
            levels = self.config.priority_levels
            headroom = self.config.max_concurrent * (levels - priority) / levels
            if self._in_flight >= headroom:
                return "concurrency"
        if self._bucket is not None and not self._bucket.take(
            now, priority, self.config.priority_levels
        ):
            return "rate_limit"
        return None

    def _shed(self, request_type_name: str, reason: str, priority: int) -> Trace:
        """Shed one logical request as a first-class dropped trace."""
        runtime = self.runtime
        self.stats["shed"] += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        self._count("admission_requests", decision="shed", reason=reason)
        trace = runtime.coordinator.begin_trace(
            runtime.next_request_id(request_type_name, label="shed"),
            request_type_name,
            self.engine.now,
        )
        runtime.coordinator.drop_trace(trace)
        self._record(
            "admission_decision",
            decision="shed",
            reason=reason,
            request_type=request_type_name,
            priority=priority,
        )
        return trace

    # ------------------------------------------------------------- attempts
    def _launch_attempt(self, logical: _LogicalRequest, label: Optional[str]) -> Trace:
        logical.attempts += 1
        logical.outstanding += 1
        self.stats["attempts"] += 1
        if (
            self.config.timeout_scope == "attempt"
            and self.config.timeout_budget_s is not None
        ):
            # Naive-client semantics: the timeout timer resets on every
            # (re)launch, so retries keep respawning load regardless of
            # total elapsed time — the retry-storm fuel.
            logical.deadline_s = self.engine.now + self.config.timeout_budget_s
        trace = self.runtime.submit_attempt(
            logical.request_type,
            on_complete=lambda t: self._attempt_finished(logical, t),
            label=label,
        )
        if logical.first_trace is None:
            logical.first_trace = trace
        if trace.dropped:
            # Synchronous entry rejection: submit_attempt never invokes
            # on_complete for it, so resolve the attempt here.
            self._attempt_finished(logical, trace)
        return trace

    def _attempt_finished(self, logical: _LogicalRequest, trace: Trace) -> None:
        now = self.engine.now
        logical.outstanding -= 1
        past_deadline = logical.deadline_s is not None and now > logical.deadline_s
        success = not trace.dropped and not past_deadline
        breaker = (
            self._breaker_for(logical.entry_service)
            if self.config.breaker.enabled
            else None
        )
        if breaker is not None:
            if success:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
        if logical.settled:
            return
        if success:
            self._settle(logical, trace, "ok")
            return
        if self._schedule_retry(logical, now):
            return
        if logical.outstanding == 0 and not logical.retry_pending:
            self._settle(logical, trace, "deadline" if past_deadline else "failed")

    def _schedule_retry(self, logical: _LogicalRequest, now: float) -> bool:
        """Arm the backoff timer for the next retry if policy allows."""
        retry = self.config.retry
        if logical.retry_pending or logical.attempts >= retry.max_attempts:
            return False
        delay = retry.backoff_s(logical.attempts + 1)
        if retry.jitter > 0.0:
            delay *= 1.0 + self.rng.uniform(
                self._jitter_stream, -retry.jitter, retry.jitter
            )
            delay = max(0.0, delay)
        if (
            self.config.timeout_scope == "budget"
            and logical.deadline_s is not None
            and now + delay > logical.deadline_s
        ):
            return False
        attempt = logical.attempts + 1
        logical.retry_pending = True
        self.stats["retries"] += 1
        self._count("admission_retries")
        self._record(
            "retry",
            request_type=logical.request_type,
            attempt=attempt,
            backoff_s=round(delay, 6),
        )

        def _fire(_engine) -> None:
            logical.retry_pending = False
            if logical.settled:
                return
            self._launch_attempt(logical, label=f"retry{attempt - 1}")

        self.engine.schedule_after(delay, _fire, name="admission-retry")
        return True

    def _arm_hedge(self, logical: _LogicalRequest) -> None:
        hedge = self.config.hedge

        def _fire(_engine) -> None:
            # Hedge only a request that is still waiting on a live attempt;
            # a request parked in retry backoff is not slow, it is failed.
            if logical.settled or logical.outstanding == 0:
                return
            if logical.deadline_s is not None and self.engine.now > logical.deadline_s:
                return
            logical.hedges += 1
            self.stats["hedges"] += 1
            self._count("admission_hedges")
            self._launch_attempt(logical, label=f"hedge{logical.hedges}")
            if logical.hedges < hedge.max_hedges:
                self._arm_hedge(logical)

        self.engine.schedule_after(hedge.delay_s, _fire, name="admission-hedge")

    def _settle(self, logical: _LogicalRequest, trace: Trace, outcome: str) -> None:
        logical.settled = True
        self._in_flight -= 1
        if outcome == "ok":
            self.stats["succeeded"] += 1
        else:
            self.stats["failed"] += 1
            if outcome == "deadline":
                self.stats["deadline_exceeded"] += 1
        if logical.on_complete is not None:
            logical.on_complete(trace)

    # ------------------------------------------------------------- breakers
    def _breaker_for(self, service: str) -> CircuitBreaker:
        breaker = self._breakers.get(service)
        if breaker is None:

            def _journal_transition(old: str, new: str, now: float) -> None:
                self._count("breaker_transitions", service=service, to=new)
                self._record(
                    "breaker_transition", service=service, old=old, new=new
                )

            breaker = CircuitBreaker(
                self.config.breaker, on_transition=_journal_transition
            )
            self._breakers[service] = breaker
        return breaker

    # -------------------------------------------------------- observability
    def _record(self, kind: str, **data) -> None:
        if self.obs is not None:
            self.obs.journal.record(self.engine.now, kind, self.source, **data)

    def _count(self, name: str, **labels) -> None:
        if self.obs is not None:
            self.obs.registry.counter(name, **labels).inc()

    def snapshot(self) -> Dict[str, object]:
        """Summarize this gate's run as a JSON-serializable dict."""
        admitted = self.stats["admitted"]
        return {
            "policy": self.config.name,
            "submitted": int(self.stats["submitted"]),
            "admitted": int(admitted),
            "shed": int(self.stats["shed"]),
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "attempts": int(self.stats["attempts"]),
            "retries": int(self.stats["retries"]),
            "hedges": int(self.stats["hedges"]),
            "succeeded": int(self.stats["succeeded"]),
            "failed": int(self.stats["failed"]),
            "deadline_exceeded": int(self.stats["deadline_exceeded"]),
            "in_flight": int(self._in_flight),
            "amplification": (
                round(self.stats["attempts"] / admitted, 4) if admitted else 0.0
            ),
            "breakers": {
                service: {"state": breaker.state, "transitions": breaker.transitions}
                for service, breaker in sorted(self._breakers.items())
            },
        }
