"""Admission-control policy data: picklable configs and named presets.

Everything here is plain frozen-dataclass data so specs carrying an
:class:`AdmissionConfig` cross process boundaries unchanged (the sweep
runner pickles specs to worker processes).  The semantics live in
:mod:`repro.admission.gate`; this module only declares *what* the gate
should do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

__all__ = [
    "ADMISSION_PRESETS",
    "AdmissionConfig",
    "CircuitBreakerConfig",
    "HedgePolicy",
    "RetryPolicy",
    "resolve_admission_config",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retries of dropped requests.

    Attributes
    ----------
    max_attempts:
        Total attempts per logical request, the first included (1
        disables retries).
    backoff_base_s / backoff_factor / backoff_max_s:
        Attempt ``k`` (2-based) is delayed
        ``min(base * factor**(k-2), max)`` simulated seconds after the
        previous attempt failed.  ``factor=1`` is the constant-backoff
        retry storm fuel; ``factor>1`` is exponential backoff.
    jitter:
        Fractional symmetric jitter applied to each backoff (``0.1`` =
        ±10%), drawn from the gate's seeded ``admission:`` substream so
        retried runs stay deterministic.  Jitter decorrelates synchronized
        retry waves — the classic storm-damping knob.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1

    def backoff_s(self, attempt: int) -> float:
        """Un-jittered backoff before ``attempt`` (2-based)."""
        exponent = max(0, attempt - 2)
        return min(
            self.backoff_base_s * (self.backoff_factor**exponent),
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class HedgePolicy:
    """Request hedging: duplicate slow requests instead of waiting.

    ``delay_s <= 0`` disables hedging.  Otherwise, a logical request
    still unresolved ``delay_s`` after admission launches a duplicate
    attempt (up to ``max_hedges``); the first non-dropped completion
    wins and later completions are ignored by the gate (their spans are
    still traced — hedges are real load).
    """

    delay_s: float = 0.0
    max_hedges: int = 1


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-entry-service circuit breaker (closed → open → half-open).

    ``failure_threshold`` consecutive failures open the breaker; while
    open, requests are shed immediately for ``cooldown_s``; the half-open
    state then admits up to ``half_open_probes`` probe requests — one
    probe failure re-opens, ``half_open_probes`` consecutive successes
    close.
    """

    enabled: bool = False
    failure_threshold: int = 10
    cooldown_s: float = 5.0
    half_open_probes: int = 3


@dataclass(frozen=True)
class AdmissionConfig:
    """One admission-control policy, composed of the survival-kit parts.

    Attributes
    ----------
    name:
        Stable identity (keys scenario ids and scoreboard rows).
    rate_limit_rps / burst:
        Token-bucket admission: ``rate_limit_rps`` tokens/s refill with a
        ``burst``-token capacity (``None`` rate disables the bucket;
        ``None`` burst defaults to one second of refill).
    max_concurrent:
        Cap on logical requests in flight (admitted, not yet resolved);
        ``None`` disables the limit.
    priority_levels / priorities:
        Load shedding with priority classes.  ``priorities`` maps request
        -type names to classes (0 = highest); unmapped types get the
        lowest class.  Class ``p`` is only admitted while the bucket
        retains ``p/priority_levels`` of its burst (and the concurrency
        limit ``p/priority_levels`` of its headroom), so pressure sheds
        the lowest classes first and class 0 survives longest.
    timeout_budget_s / timeout_scope:
        Deadline semantics.  With the default ``"budget"`` scope the
        deadline is per *logical* request, measured from admission:
        attempts resolving past it count as failures
        (``deadline_exceeded``) and no retry or hedge is scheduled beyond
        it — the well-behaved production semantics.  With the
        ``"attempt"`` scope the timer resets on every (re)launch — each
        attempt gets its own ``timeout_budget_s`` and retries keep going
        regardless of total elapsed time.  That is what ungoverned
        clients actually do, and it is the retry-storm fuel: under
        saturation every attempt times out and respawns load forever.
        ``None`` budget disables the deadline entirely.
    retry / hedge / breaker:
        The component policies above.
    """

    name: str = "custom"
    rate_limit_rps: Optional[float] = None
    burst: Optional[float] = None
    max_concurrent: Optional[int] = None
    priority_levels: int = 1
    priorities: Optional[Dict[str, int]] = None
    timeout_budget_s: Optional[float] = None
    timeout_scope: str = "budget"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgePolicy = field(default_factory=HedgePolicy)
    breaker: CircuitBreakerConfig = field(default_factory=CircuitBreakerConfig)

    def __post_init__(self) -> None:
        if self.priority_levels < 1:
            raise ValueError(
                f"priority_levels must be >= 1, got {self.priority_levels}"
            )
        if self.timeout_scope not in ("budget", "attempt"):
            raise ValueError(
                f"timeout_scope must be 'budget' or 'attempt', "
                f"got {self.timeout_scope!r}"
            )
        if self.retry.max_attempts < 1:
            raise ValueError(
                f"retry.max_attempts must be >= 1, got {self.retry.max_attempts}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether this config changes nothing (no gate needs attaching)."""
        return (
            self.rate_limit_rps is None
            and self.max_concurrent is None
            and self.timeout_budget_s is None
            and self.retry.max_attempts <= 1
            and self.hedge.delay_s <= 0
            and not self.breaker.enabled
        )

    def priority_of(self, request_type: str) -> int:
        """The (clamped) priority class of one request type."""
        if not self.priorities:
            return 0
        raw = self.priorities.get(request_type, self.priority_levels - 1)
        return min(max(int(raw), 0), self.priority_levels - 1)

    def effective_burst(self) -> float:
        """The bucket capacity (defaults to one second of refill)."""
        if self.burst is not None:
            return float(self.burst)
        return float(self.rate_limit_rps or 0.0)

    def with_overrides(self, **overrides) -> "AdmissionConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


#: Named presets for ``ScenarioSpec.admission`` and the CLI.
#:
#: ``none``
#:     The explicit no-op (byte-identical to leaving admission unset).
#: ``naive_retries``
#:     What ungoverned clients do: an aggressive client timeout plus four
#:     fast constant-backoff retries with no jitter and no shedding — the
#:     retry-storm fuel the metastable scenarios ignite (every slow
#:     response times out and respawns load onto the saturated service).
#: ``shed_only``
#:     Token-bucket + concurrency shedding with priority watermarks but
#:     no retries — the shed-vs-violate sweep's moving part.
#: ``survival_kit``
#:     The full production kit: budgeted exponential-backoff retries with
#:     jitter, hedging, priority shedding, and circuit breakers.
ADMISSION_PRESETS: Dict[str, AdmissionConfig] = {
    "none": AdmissionConfig(name="none"),
    "naive_retries": AdmissionConfig(
        name="naive_retries",
        timeout_budget_s=0.4,
        timeout_scope="attempt",
        retry=RetryPolicy(
            max_attempts=4,
            backoff_base_s=0.02,
            backoff_factor=1.0,
            backoff_max_s=0.02,
            jitter=0.0,
        ),
    ),
    "shed_only": AdmissionConfig(
        name="shed_only",
        rate_limit_rps=80.0,
        burst=40.0,
        max_concurrent=256,
        priority_levels=2,
    ),
    "survival_kit": AdmissionConfig(
        name="survival_kit",
        rate_limit_rps=120.0,
        burst=60.0,
        # The metastability cure: once latency balloons, logical requests
        # pile up in flight and the concurrency cap sheds the excess
        # instead of queueing it — offered load falls back under the
        # capacity knee and the system recovers when the trigger clears.
        max_concurrent=128,
        priority_levels=2,
        timeout_budget_s=1.5,
        retry=RetryPolicy(
            max_attempts=3,
            backoff_base_s=0.05,
            backoff_factor=2.0,
            backoff_max_s=0.5,
            jitter=0.25,
        ),
        # Hedge at ~healthy-tail latency: fast enough to cut stragglers,
        # slow enough that a saturated service is shed (above), not
        # hedged into deeper saturation.
        hedge=HedgePolicy(delay_s=1.0, max_hedges=1),
        breaker=CircuitBreakerConfig(
            enabled=True,
            failure_threshold=20,
            cooldown_s=2.0,
            half_open_probes=3,
        ),
    ),
}


def resolve_admission_config(
    config: Optional[Union[str, AdmissionConfig]],
) -> Optional[AdmissionConfig]:
    """Resolve a spec's admission field to a config (or None).

    Accepts ``None`` (admission off), a preset name, or a full
    :class:`AdmissionConfig`.  The ``none`` preset and no-op configs
    resolve to ``None`` so no gate is attached and the runtime's
    pre-admission fast path runs byte-identically.
    """
    if config is None:
        return None
    if isinstance(config, str):
        try:
            config = ADMISSION_PRESETS[config]
        except KeyError:
            known = ", ".join(sorted(ADMISSION_PRESETS))
            raise ValueError(
                f"unknown admission preset {config!r}; known: {known}"
            ) from None
    if not isinstance(config, AdmissionConfig):
        raise TypeError(
            f"admission must be a preset name or AdmissionConfig, got {config!r}"
        )
    return None if config.is_noop else config


def admission_name(config: Optional[Union[str, AdmissionConfig]]) -> Optional[str]:
    """The stable display name of a spec's admission field (None if unset)."""
    if config is None:
        return None
    return config if isinstance(config, str) else config.name
