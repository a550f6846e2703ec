"""Determinism contract of the simulator.

A scenario's result is a pure function of its spec: two independent
:func:`run_scenario` runs of the same spec must produce byte-identical
JSON.  This module pins that contract over the seven pinned scenario
families (every controller/campaign/routing/multi-tenant shape the repo
exercises) and exports :func:`pinned_families` and :func:`_fingerprint`
for the other suites that compare runs byte for byte.  It also pins the
engine's event order against a reference heap of rich-compared events
(the seed engine's semantics), and serial == parallel sweep output.
"""

import dataclasses
import heapq
import itertools
import json
from functools import partial

import numpy as np
import pytest

from repro.controllers.manager import StageCache
from repro.experiments.interference import aggressor_victim
from repro.experiments.scenario import (
    ScenarioSpec,
    TenantSpec,
    random_campaign_builder,
    run_scenario,
)
from repro.experiments.sweep import expand_grid, run_sweep, scenario_cell
from repro.sim.engine import SimulationEngine


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


# --------------------------------------------------------------------------
# A reference engine preserving the seed implementation's semantics: a heap
# of rich-compared (order=True dataclass) events, popped via step().
# --------------------------------------------------------------------------

_ref_sequence = itertools.count()


@dataclasses.dataclass(order=True)
class _RefEvent:
    time: float
    priority: int = 0
    seq: int = dataclasses.field(default_factory=lambda: next(_ref_sequence))
    callback: object = dataclasses.field(default=None, compare=False)
    name: str = dataclasses.field(default="", compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class _ReferenceEngine:
    """The seed SimulationEngine, verbatim semantics, minimal surface."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = []
        self.processed = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time, callback, priority=0, name=""):
        event = _RefEvent(time=float(time), priority=priority, callback=callback, name=name)
        heapq.heappush(self._queue, event)
        return event

    def run_until(self, end_time: float) -> None:
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > end_time:
                break
            event = heapq.heappop(self._queue)
            self._now = event.time
            event.callback(self)
            self.processed += 1
        self._now = max(self._now, end_time)


def _drive(engine, schedule, trace):
    """Feed a deterministic, self-extending event program into an engine.

    Every fired event appends ``(time, label)`` to ``trace``; some events
    schedule children at equal or later times (exercising tie-breaking),
    and some cancel previously created events (exercising lazy deletion).
    """
    rng = np.random.default_rng(1234)
    created = []

    def make_callback(label, depth):
        def _fire(eng):
            trace.append((round(eng.now, 9), label))
            if depth < 3:
                # Children at the same instant and slightly later: the
                # same-time ones must run in creation order.
                for child in range(int(rng.integers(0, 3))):
                    delay = float(rng.choice([0.0, 0.5, 1.25]))
                    priority = int(rng.integers(0, 2))
                    event = eng.schedule(
                        eng.now + delay,
                        make_callback(f"{label}.{child}", depth + 1),
                        priority=priority,
                    )
                    created.append(event)
            if created and rng.random() < 0.3:
                victim = created[int(rng.integers(0, len(created)))]
                victim.cancel()

        return _fire

    for index, (time, priority) in enumerate(schedule):
        created.append(
            engine.schedule(time, make_callback(f"root{index}", 0), priority=priority)
        )
    engine.run_until(100.0)


class TestEngineOrderMatchesReference:
    def test_event_order_identical_to_seed_semantics(self):
        base_rng = np.random.default_rng(7)
        schedule = [
            (float(base_rng.uniform(0.0, 20.0)), int(base_rng.integers(0, 3)))
            for _ in range(50)
        ]
        # Same-time roots with the same priority must break ties by
        # creation order in both engines.
        schedule += [(5.0, 0), (5.0, 0), (5.0, 1), (5.0, 0)]

        reference_trace = []
        _drive(_ReferenceEngine(), schedule, reference_trace)
        optimized_trace = []
        _drive(SimulationEngine(), schedule, optimized_trace)

        assert optimized_trace == reference_trace
        assert len(optimized_trace) > 50  # the program actually fanned out

    def test_schedule_on_engine_keyword_api(self):
        # The optimized engine keeps the keyword-only priority/name API.
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda eng: order.append("b"), priority=1, name="b")
        engine.schedule(1.0, lambda eng: order.append("a"), priority=0, name="a")
        engine.run_until(2.0)
        assert order == ["a", "b"]


def _scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Canonical JSON of one scenario run (the CLI's serialization)."""
    from repro.cli import _to_jsonable

    result = run_scenario(spec)
    return json.dumps(_to_jsonable(result), indent=2, default=str)


class TestExperimentByteIdentity:
    def test_single_tenant_repeat_runs_byte_identical(self):
        spec = ScenarioSpec(
            application="social_network",
            seed=11,
            duration_s=8.0,
            load_rps=30.0,
            controller="aimd",
        )
        assert _scenario_fingerprint(spec) == _scenario_fingerprint(spec)

    def test_serial_and_parallel_sweeps_byte_identical(self):
        specs = expand_grid(
            scenario_cell,
            {"controller": ("none", "aimd"), "seed": (0, 1)},
            application="social_network",
            load_rps=25.0,
            duration_s=5.0,
        )
        serial = [outcome.as_dict() for outcome in run_sweep(specs, workers=1)]
        parallel = [outcome.as_dict() for outcome in run_sweep(specs, workers=2)]
        assert json.dumps(serial, default=str) == json.dumps(parallel, default=str)
