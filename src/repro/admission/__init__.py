"""Admission control and the production-traffic survival kit.

Open-loop workloads keep arriving whether or not the cluster can absorb
them, and the failure modes that dominate real FIRM-style deployments —
retry amplification after a transient anomaly, metastable overload,
shed-vs-violate tradeoffs — are created *between* the client and the
entry service, not inside the replicas.  This package models that layer:

* :mod:`repro.admission.config` — picklable policy data:
  :class:`RetryPolicy` (exponential backoff + jitter),
  :class:`HedgePolicy`, :class:`CircuitBreakerConfig`, and the composed
  :class:`AdmissionConfig` with its named presets (``none``,
  ``naive_retries``, ``survival_kit``, ``shed_only``);
* :mod:`repro.admission.gate` — the runtime: :class:`TokenBucket`
  rate limiting with priority-class shedding watermarks, a logical
  concurrency limit, per-request timeout budgets, retries, hedging, and
  per-entry-service :class:`CircuitBreaker` state machines, all wired
  through :class:`AdmissionGate`.

The gate threads through
:class:`~repro.apps.runtime.ApplicationRuntime.submit_request`: with no
gate attached the runtime is byte-identical to the pre-admission
behaviour, and with one attached every retried/hedged/shed request is a
first-class citizen of traces, telemetry, and the observability journal
(``admission_decision`` / ``retry`` / ``breaker_transition`` records).
Select a policy via ``ScenarioSpec.admission`` / ``TenantSpec.admission``
(a preset name or an :class:`AdmissionConfig`).
"""

from repro.admission.config import (
    ADMISSION_PRESETS,
    AdmissionConfig,
    CircuitBreakerConfig,
    HedgePolicy,
    RetryPolicy,
    admission_name,
    resolve_admission_config,
)
from repro.admission.gate import AdmissionGate, CircuitBreaker, TokenBucket

__all__ = [
    "ADMISSION_PRESETS",
    "AdmissionConfig",
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "HedgePolicy",
    "RetryPolicy",
    "TokenBucket",
    "admission_name",
    "resolve_admission_config",
]
