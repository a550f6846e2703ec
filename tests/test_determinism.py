"""Repeat-determinism contract of the simulator.

A scenario's result is a pure function of its spec: two independent
:func:`run_scenario` runs of the same spec must produce byte-identical
JSON.  This module pins that contract over the seven pinned scenario
families (every controller/campaign/routing/multi-tenant shape the repo
exercises) and exports :func:`pinned_families` and :func:`_fingerprint`
for the other suites that compare runs byte for byte.
"""

import dataclasses
import json
from functools import partial

import pytest

from repro.controllers.manager import StageCache
from repro.experiments.interference import aggressor_victim
from repro.experiments.scenario import (
    ScenarioSpec,
    TenantSpec,
    random_campaign_builder,
    run_scenario,
)


def pinned_families():
    """The seven pinned scenario families (kept small enough for CI)."""
    return {
        "single_none": ScenarioSpec(
            application="social_network", seed=11, duration_s=8.0, load_rps=30.0,
            controller="none",
        ),
        "single_aimd": ScenarioSpec(
            application="hotel_reservation", seed=3, duration_s=6.0, load_rps=25.0,
            controller="aimd",
        ),
        "single_firm_campaign": ScenarioSpec(
            application="media_service", seed=7, duration_s=6.0, load_rps=20.0,
            controller="firm",
            campaign_builder=partial(random_campaign_builder, duration_s=6.0),
            warmup_s=1.0,
        ),
        # Long enough for FIRM to run many control rounds, so its stages
        # are computed at many instants: a stage cache that never expires
        # changes this family's fingerprint.
        "long_firm_campaign": ScenarioSpec(
            application="hotel_reservation", seed=0, duration_s=12.0, load_rps=40.0,
            controller="firm",
            campaign_builder=partial(
                random_campaign_builder, duration_s=12.0, rate_per_s=1.0,
                min_intensity=0.7, start_s=2.0,
            ),
            warmup_s=1.0,
        ),
        "single_routing": ScenarioSpec(
            application="train_ticket", seed=2, duration_s=6.0, load_rps=20.0,
            routing="ewma_latency",
        ),
        "multi_tenant": ScenarioSpec(
            seed=5, duration_s=6.0, cluster_nodes=(2, 0),
            tenants=[
                TenantSpec(name="a", application="hotel_reservation", load_rps=10.0),
                TenantSpec(name="b", application="social_network", load_rps=20.0,
                           routing="ewma_latency"),
            ],
        ),
        "interference": aggressor_victim(duration_s=5.0, seed=4, aggressor_load_rps=80.0),
    }


def _jsonable(value):
    """Deterministic JSON-friendly projection of a result object."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _fingerprint(result) -> str:
    """Full-precision byte fingerprint of one ExperimentResult."""
    return json.dumps(
        {
            "fields": _jsonable(result),
            "tenants": result.per_tenant_summary(),
            "latencies": result.slo.latencies_ms,
        },
        indent=2,
        default=str,
        sort_keys=True,
    )


@pytest.mark.parametrize("family", sorted(pinned_families()))
def test_repeat_runs_are_identical(family):
    spec = pinned_families()[family]
    assert _fingerprint(run_scenario(spec)) == _fingerprint(run_scenario(spec))


def test_long_firm_family_needs_stage_expiry(monkeypatch):
    """A stage cache that never expires must change ``long_firm_campaign``.

    FIRM's control rounds pull detection at a new instant every round;
    frozen at the first round's verdict, it misses the later violations
    and never acts on them.
    """
    spec = pinned_families()["long_firm_campaign"]
    expected = _fingerprint(run_scenario(spec))
    monkeypatch.setattr(StageCache, "sync", lambda cache, now: None)
    assert _fingerprint(run_scenario(spec)) != expected
