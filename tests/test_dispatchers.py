"""Tests for the distributed dispatchers (:mod:`repro.routing.dispatchers`).

Unit tier: the stale-view machinery (rotation, bounded-staleness refresh,
optimistic local increments, JIQ idle enrollment) directly on deployed
replicas, through the rule names with explicit ``dispatchers`` and
``staleness_s``.  Determinism tier: ``dispatchers=1`` on a scenario spec
installs no rule and is byte-identical to the default router on pinned
families; ``dispatchers>=2`` is repeat-identical across runs and across
the serial/parallel sweep modes, and pinned to fixed outputs per rule.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster.instance import SpanWork
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.experiments.sweep import run_sweep
from repro.routing import available_policies, create_policy, resolve_policy_name
from repro.routing.dispatchers import DISPATCH_VARIANTS, DispatcherSet


def _noop(*args):
    pass


def _jsonable(value):
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


def pinned_families():
    """Pinned scenario families for the dispatchers=1 byte-identity tier."""
    return {
        "single_none": ScenarioSpec(
            application="social_network", seed=11, duration_s=8.0, load_rps=30.0,
            controller="none",
        ),
        "single_aimd": ScenarioSpec(
            application="hotel_reservation", seed=3, duration_s=6.0, load_rps=25.0,
            controller="aimd",
        ),
        "multi_tenant": ScenarioSpec(
            seed=5, duration_s=6.0, cluster_nodes=(2, 0),
            tenants=[
                TenantSpec(name="a", application="hotel_reservation", load_rps=10.0),
                TenantSpec(name="b", application="social_network", load_rps=20.0),
            ],
        ),
    }


def _replicated_spec(variant: str = "jiq", **overrides) -> ScenarioSpec:
    base = dict(
        application="social_network",
        seed=7,
        duration_s=6.0,
        load_rps=40.0,
        controller="none",
        replicas={"nginx": 3, "text": 2},
        dispatchers=3,
        dispatch_variant=variant,
        dispatch_staleness_s=0.25,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# Registry and spec plumbing
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_one_policy_per_rule(self):
        assert available_policies() == [
            "ewma_latency",
            "join_the_idle_queue",
            "least_in_flight",
            "power_of_two_choices",
            "random",
            "round_robin",
        ]
        for retired in ("stale_jiq", "stale_ewma", "stale_p2c", "dispatchers"):
            with pytest.raises(ValueError, match="unknown routing policy"):
                resolve_policy_name(retired)

    def test_variants_resolve_to_dispatcher_sets(self, rng):
        for variant in DISPATCH_VARIANTS:
            policy = create_policy(variant, "svc", rng)
            assert isinstance(policy, DispatcherSet)
            # The omniscient balancer: one dispatcher, never stale.
            assert (policy.dispatchers, policy.staleness_s) == (1, 0.0)

    def test_rng_substream_labels_are_kept_per_rule(self, rng):
        # Seeded runs of the dispatcher path draw from these substreams.
        streams = {
            variant: create_policy(variant, "svc", rng, dispatchers=3).stream_name()
            for variant in DISPATCH_VARIANTS
        }
        assert streams == {
            "jiq": "routing:stale_jiq:svc",
            "ewma": "routing:stale_ewma:svc",
            "p2c": "routing:stale_p2c:svc",
        }

    def test_variants_tuple_matches_policies(self):
        assert DISPATCH_VARIANTS == ("jiq", "ewma", "p2c")

    def test_scenario_id_carries_dispatch_topology(self):
        spec = _replicated_spec("p2c", dispatchers=4, dispatch_staleness_s=0.5)
        assert "/dispatchers=4:p2c@0.5" in spec.scenario_id

    def test_dispatchers_1_leaves_scenario_id_unchanged(self):
        plain = pinned_families()["single_none"]
        assert plain.scenario_id == plain.with_overrides(dispatchers=1).scenario_id

    def test_dispatchers_and_routing_are_mutually_exclusive(self):
        spec = _replicated_spec("jiq", routing="ewma_latency")
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_scenario(spec)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch variant"):
            run_scenario(_replicated_spec("jiq", dispatch_variant="nope"))


# ---------------------------------------------------------------------------
# Stale-view machinery (unit level)
# ---------------------------------------------------------------------------

class TestDispatcherViews:
    @pytest.fixture
    def replicas(self, cluster, cpu_profile):
        return cluster.deploy_service(cpu_profile, replicas=3)

    def test_constructor_validates(self, rng):
        with pytest.raises(ValueError, match="dispatchers"):
            create_policy("jiq", "svc", rng, dispatchers=0)
        with pytest.raises(ValueError, match="staleness_s"):
            create_policy("p2c", "svc", rng, staleness_s=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            create_policy("ewma", "svc", rng, alpha=0.0)

    def test_arrivals_rotate_over_dispatchers(self, rng, replicas):
        policy = create_policy("p2c", "cpu-service", rng, dispatchers=3, staleness_s=0.25)
        for expected in (1, 2, 0, 1):
            policy.select(replicas)
            busiest = max(policy._views, key=lambda v: sum(v.in_flight.values()))
            # Each arrival lands on the next dispatcher's view (via its
            # optimistic local increment), round-robin.
            assert sum(busiest.in_flight.values()) >= 1
        assert policy._arrivals == 4

    def test_zero_staleness_refreshes_every_arrival(self, rng, replicas):
        policy = create_policy(
            "ewma", "cpu-service", rng, dispatchers=1, staleness_s=0.0
        )
        policy.select(replicas)
        view = policy._views[0]
        first = view.last_refresh_s
        replicas[0].engine.run_until(0.5)
        policy.select(replicas)
        assert view.last_refresh_s == replicas[0].engine.now != first

    def test_view_stays_stale_within_window(self, rng, replicas):
        policy = create_policy(
            "ewma", "cpu-service", rng, dispatchers=1, staleness_s=10.0
        )
        policy.select(replicas)
        view = policy._views[0]
        # True load changes, but the view must not see it until refresh.
        replicas[2].submit(SpanWork(_noop))
        replicas[2].submit(SpanWork(_noop))
        assert view.in_flight.get(replicas[2], 0) == 0
        assert policy.select(replicas) is not replicas[0]  # own increment seen

    def test_optimistic_local_increment(self, rng, replicas):
        policy = create_policy(
            "ewma", "cpu-service", rng, dispatchers=1, staleness_s=10.0
        )
        first = policy.select(replicas)
        # The dispatcher saw its own send: the same replica cannot win the
        # next tie (equal EWMA, equal snapshot load, but +1 local).
        second = policy.select(replicas)
        assert second is not first

    def test_jiq_enrolls_idle_replica_with_one_dispatcher(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng, dispatchers=2, staleness_s=0.25)
        policy.observe_completion(replicas[0], 5.0)
        enrolled = [view for view in policy._views if replicas[0] in view.idle]
        assert len(enrolled) == 1

    def test_jiq_first_sight_seeds_idle_queues(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng, dispatchers=2, staleness_s=0.25)
        picks = {policy.select(replicas) for _ in range(3)}
        assert picks == set(replicas)  # all three idle tokens consumed

    def test_jiq_refresh_evicts_busy_enrollee(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng, dispatchers=1, staleness_s=0.0)
        policy.observe_completion(replicas[1], 5.0)
        replicas[1].submit(SpanWork(_noop))
        # Replica 1 heads the I-queue, but the arrival's refresh sees it busy.
        assert policy.select(replicas) is replicas[0]
        assert replicas[1] not in policy._views[0].idle

    def test_jiq_saturated_fallback_is_seed_deterministic(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng, dispatchers=2, staleness_s=0.25)
        twin = create_policy(
            "jiq", "cpu-service", type(rng)(rng.seed), dispatchers=2, staleness_s=0.25
        )
        for _ in range(3):  # drain both seeded idle-token sets while idle
            policy.select(replicas)
            twin.select(replicas)
        for instance in replicas:
            instance.submit(SpanWork(_noop))
        picks = [policy.select(replicas).replica_index for _ in range(10)]
        assert set(picks) <= {0, 1, 2}
        assert picks == [twin.select(replicas).replica_index for _ in range(10)]

    def test_p2c_prefers_less_loaded_stale_probe(self, rng, replicas):
        policy = create_policy("p2c", "cpu-service", rng, dispatchers=1, staleness_s=0.0)
        replicas[0].submit(SpanWork(_noop))
        replicas[0].submit(SpanWork(_noop))
        replicas[1].submit(SpanWork(_noop))
        replicas[1].submit(SpanWork(_noop))
        for _ in range(20):
            choice = policy.select(replicas)
            assert choice in replicas


# ---------------------------------------------------------------------------
# Determinism tier 1: dispatchers=1 is byte-identical to the classic router
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(pinned_families()))
def test_dispatchers1_is_byte_identical_to_classic(family):
    spec = pinned_families()[family]
    classic = _fingerprint(run_scenario(spec))
    via_dispatchers1 = _fingerprint(run_scenario(spec.with_overrides(dispatchers=1)))
    assert via_dispatchers1 == classic


# ---------------------------------------------------------------------------
# Determinism tier 2: dispatchers >= 2 is repeat- and mode-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", DISPATCH_VARIANTS)
def test_dispatcher_repeat_runs_are_identical(variant):
    spec = _replicated_spec(variant)
    assert _fingerprint(run_scenario(spec)) == _fingerprint(run_scenario(spec))


def test_dispatcher_variants_actually_differ():
    # The three variants must be distinct policies, not aliases: on a
    # replicated scenario at this load their routed outcomes diverge.
    prints = {
        variant: _fingerprint(run_scenario(_replicated_spec(variant)))
        for variant in DISPATCH_VARIANTS
    }
    assert len(set(prints.values())) == len(DISPATCH_VARIANTS)


#: ``summary()`` and processed-event count of the 4 s replicated runs with
#: three dispatchers, per rule.  Any change to a rule's picks, its RNG
#: draws or its feedback moves these.
THREE_DISPATCHER_PINS = {
    "jiq": (
        {
            "completed": 182.0,
            "dropped": 0.0,
            "mean_mitigation_time_s": 0.0,
            "mean_requested_cpu": 224.0,
            "p50_ms": 46.86391097533371,
            "p99_ms": 66.81972262062118,
            "violation_rate": 0.0,
            "violations": 0.0,
        },
        2682,
    ),
    "p2c": (
        {
            "completed": 182.0,
            "dropped": 0.0,
            "mean_mitigation_time_s": 0.0,
            "mean_requested_cpu": 224.0,
            "p50_ms": 46.240410580436155,
            "p99_ms": 66.73900756522313,
            "violation_rate": 0.0,
            "violations": 0.0,
        },
        2682,
    ),
    "ewma": (
        {
            "completed": 182.0,
            "dropped": 0.0,
            "mean_mitigation_time_s": 0.0,
            "mean_requested_cpu": 224.0,
            "p50_ms": 46.21571306812639,
            "p99_ms": 68.39551146099708,
            "violation_rate": 0.0,
            "violations": 0.0,
        },
        2682,
    ),
}


@pytest.mark.parametrize("variant", DISPATCH_VARIANTS)
def test_three_dispatcher_runs_match_pins(variant):
    spec = _replicated_spec(variant, duration_s=4.0)
    harness = ExperimentHarness.from_spec(spec)
    result = harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    summary, events = THREE_DISPATCHER_PINS[variant]
    assert result.summary() == summary
    assert harness.engine.processed_events == events


def test_dispatcher_sweep_serial_and_parallel_identical():
    specs = [
        _replicated_spec("jiq", seed=1, duration_s=4.0),
        _replicated_spec("p2c", seed=2, duration_s=4.0),
    ]
    serial = [outcome.as_dict() for outcome in run_sweep(specs, workers=1)]
    parallel = [outcome.as_dict() for outcome in run_sweep(specs, workers=2)]
    assert serial == parallel


def test_multi_tenant_dispatchers_repeat_identical():
    spec = pinned_families()["multi_tenant"].with_overrides(
        dispatchers=2, dispatch_variant="ewma"
    )
    assert _fingerprint(run_scenario(spec)) == _fingerprint(run_scenario(spec))
