"""Tests for the pluggable request-routing subsystem (:mod:`repro.routing`)."""

from __future__ import annotations

import json

import pytest

from repro.cluster.cluster import TenantClusterView
from repro.cluster.instance import ServiceProfile, SpanWork
from repro.cluster.orchestrator import Orchestrator
from repro.experiments.harness import ExperimentHarness
from repro.experiments.routing import (
    routed_tenants,
    routing_interference_spec,
    run_routing,
)
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.experiments.sweep import expand_grid, run_sweep
from repro.routing import (
    DEFAULT_POLICY,
    RequestRouter,
    RoutingPolicy,
    available_policies,
    create_policy,
    register_policy,
    resolve_policy_name,
)

BUILTIN_POLICIES = {
    "least_in_flight",
    "round_robin",
    "random",
    "power_of_two_choices",
    "ewma_latency",
    "join_the_idle_queue",
}


def _noop(*args):
    pass


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestPolicyRegistry:
    def test_builtin_policies_registered(self):
        assert BUILTIN_POLICIES <= set(available_policies())

    def test_default_policy_is_least_in_flight(self):
        assert DEFAULT_POLICY == "least_in_flight"

    def test_aliases_resolve(self):
        assert resolve_policy_name("p2c") == "power_of_two_choices"
        assert resolve_policy_name("jiq") == "join_the_idle_queue"
        assert resolve_policy_name("rr") == "round_robin"
        assert resolve_policy_name("ewma") == "ewma_latency"
        assert resolve_policy_name("least_loaded") == "least_in_flight"
        assert resolve_policy_name("default") == "least_in_flight"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_policy_name("does-not-exist")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("round_robin")(RoutingPolicy)
        with pytest.raises(ValueError, match="already registered"):
            register_policy("brand-new", aliases=("jiq",))(RoutingPolicy)

    def test_create_policy_sets_canonical_name(self, rng):
        policy = create_policy("p2c", "svc", rng)
        assert policy.name == "power_of_two_choices"
        assert policy.service_name == "svc"


# ---------------------------------------------------------------------------
# Individual policies (unit level)
# ---------------------------------------------------------------------------

class TestPolicies:
    @pytest.fixture
    def replicas(self, cluster, cpu_profile):
        return cluster.deploy_service(cpu_profile, replicas=3)

    def test_round_robin_cycles_in_index_order(self, rng, replicas):
        policy = create_policy("round_robin", "cpu-service", rng)
        picks = [policy.select(replicas) for _ in range(6)]
        assert [p.replica_index for p in picks] == [0, 1, 2, 0, 1, 2]

    def test_round_robin_order_independent_of_list_order(self, rng, replicas):
        policy = create_policy("round_robin", "cpu-service", rng)
        shuffled = [replicas[2], replicas[0], replicas[1]]
        picks = [policy.select(shuffled) for _ in range(3)]
        assert [p.replica_index for p in picks] == [0, 1, 2]

    def test_random_is_seed_deterministic(self, rng, replicas):
        first = create_policy("random", "cpu-service", rng)
        second = create_policy("random", "cpu-service", type(rng)(rng.seed))
        a = [first.select(replicas).replica_index for _ in range(20)]
        b = [second.select(replicas).replica_index for _ in range(20)]
        assert a == b
        assert set(a) <= {0, 1, 2}

    def test_p2c_prefers_less_loaded_probe(self, rng, replicas):
        policy = create_policy("p2c", "cpu-service", rng)
        replicas[0].submit(SpanWork(_noop))
        replicas[0].submit(SpanWork(_noop))
        replicas[1].submit(SpanWork(_noop))
        replicas[1].submit(SpanWork(_noop))
        # Replica 2 is strictly less loaded: any probe pair containing it
        # must select it, and no pick may fall outside the replica set.
        for _ in range(30):
            choice = policy.select(replicas)
            assert choice in replicas
            if choice is not replicas[2]:
                # The two probes were drawn among the loaded pair; both
                # carry equal load so the tie-break picks the lower index.
                assert choice is replicas[0]

    def test_p2c_single_replica_needs_no_draw(self, rng, replicas):
        policy = create_policy("p2c", "cpu-service", rng)
        assert policy.select(replicas[:1]) is replicas[0]

    def test_ewma_avoids_slow_replica(self, rng, replicas):
        policy = create_policy("ewma", "cpu-service", rng)
        for _ in range(5):
            policy.observe_completion(replicas[0], 100.0)
            policy.observe_completion(replicas[1], 5.0)
            policy.observe_completion(replicas[2], 5.0)
        assert policy.select(replicas) is replicas[1]

    def test_ewma_weighs_outstanding_load(self, rng, replicas):
        policy = create_policy("ewma", "cpu-service", rng)
        for instance in replicas:
            policy.observe_completion(instance, 10.0)
        replicas[0].submit(SpanWork(_noop))
        assert policy.select(replicas) is replicas[1]

    def test_ewma_alpha_validated(self, rng):
        with pytest.raises(ValueError, match="alpha"):
            create_policy("ewma", "cpu-service", rng, alpha=0.0)

    def test_jiq_serves_idle_replicas_in_seed_order(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng)
        picks = [policy.select(replicas).replica_index for _ in range(3)]
        assert picks == [0, 1, 2]

    def test_jiq_requeues_on_idle_completion(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng)
        for _ in range(3):
            policy.select(replicas)  # drain the seeded idle queue
        policy.observe_completion(replicas[1], 4.0)  # replica 1 idles
        assert policy.select(replicas) is replicas[1]

    def test_jiq_skips_queued_replica_that_got_busy(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng)
        policy.observe_completion(replicas[0], 4.0)
        policy.select(replicas)  # seeds 1, 2 as idle too; pops 0
        replicas[1].submit(SpanWork(_noop))
        assert policy.select(replicas) is replicas[2]

    def test_jiq_saturated_falls_back_to_seeded_random(self, rng, replicas):
        policy = create_policy("jiq", "cpu-service", rng)
        for instance in replicas:
            instance.submit(SpanWork(_noop))
        picks = [policy.select(replicas).replica_index for _ in range(10)]
        assert set(picks) <= {0, 1, 2}
        # Same seed, same saturation -> identical fallback draws.
        twin = create_policy("jiq", "cpu-service", type(rng)(rng.seed))
        assert picks == [twin.select(replicas).replica_index for _ in range(10)]


# ---------------------------------------------------------------------------
# Router behaviour over the cluster
# ---------------------------------------------------------------------------

class TestRequestRouter:
    def test_default_policy_routes_least_in_flight(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        instances[0].submit(SpanWork(_noop))
        assert cluster.router.default_policy == "least_in_flight"
        assert cluster.route("cpu-service") is instances[1]

    def test_route_missing_service_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.route("missing")

    def test_set_default_policy_revalidates_name(self, cluster):
        with pytest.raises(ValueError, match="unknown routing policy"):
            cluster.set_routing_policy("nope")

    def test_per_service_override_beats_default(self, cluster, cpu_profile, memory_profile):
        cluster.deploy_service(cpu_profile, replicas=2)
        cluster.deploy_service(memory_profile, replicas=2)
        cluster.set_routing_policy("random")
        cluster.set_routing_policy("round_robin", service="cpu-service")
        assert cluster.router.policy_name_for("cpu-service") == "round_robin"
        assert cluster.router.policy_name_for("memory-service") == "random"

    def test_decision_counts_recorded(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile, replicas=2)
        cluster.set_routing_policy("round_robin")
        for _ in range(4):
            cluster.route("cpu-service")
        counts = cluster.router.decisions_for("cpu-service")
        assert counts == {"cpu-service#0": 2, "cpu-service#1": 2}

    def test_policy_change_takes_effect_immediately(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile, replicas=2)
        # Idle replicas: least-in-flight always ties to #0.
        cluster.route("cpu-service")
        cluster.route("cpu-service")
        assert cluster.router.policy_name_for("cpu-service") == "least_in_flight"
        cluster.set_routing_policy("round_robin")
        assert cluster.router.policy_name_for("cpu-service") == "round_robin"
        cluster.route("cpu-service")
        cluster.route("cpu-service")
        assert cluster.router.decisions_for("cpu-service") == {
            "cpu-service#0": 3,
            "cpu-service#1": 1,
        }

    def test_completion_listeners_feed_policy(self, cluster, cpu_profile, engine):
        cluster.deploy_service(cpu_profile, replicas=2)
        cluster.set_routing_policy("ewma")
        cluster.route("cpu-service")  # instantiates the policy
        instance = cluster.replicas_of("cpu-service")[0]
        instance.submit(SpanWork(_noop))
        engine.run_until(5.0)
        # Replica 0's observed latency now loses to replica 1's cold prior;
        # without the feedback the idle tie would go to replica 0.
        assert cluster.route("cpu-service") is cluster.replicas_of("cpu-service")[1]

    @pytest.mark.parametrize(
        "policy, feeds",
        [
            ("least_in_flight", False),
            ("round_robin", False),
            ("random", False),
            ("power_of_two_choices", False),
            ("join_the_idle_queue", True),
            ("ewma_latency", True),
        ],
    )
    def test_completion_listener_only_where_policy_reads_it(self, monkeypatch, policy, feeds):
        calls = []
        original = RequestRouter._dispatch_completion

        def counting(router, instance, latency_ms):
            calls.append(instance)
            original(router, instance, latency_ms)

        monkeypatch.setattr(RequestRouter, "_dispatch_completion", counting)
        spec = ScenarioSpec(
            application="hotel_reservation", seed=0, duration_s=3.0, load_rps=20.0,
            routing=policy, replicas={"frontend": 2},
        )
        result = run_scenario(spec)
        assert result.summary()["completed"] > 0
        assert bool(calls) is feeds

    def test_scale_out_replica_feeds_the_policy(self, cluster, cpu_profile, engine, rng):
        cluster.deploy_service(cpu_profile, replicas=1)
        cluster.set_routing_policy("jiq")
        cluster.route("cpu-service")  # instantiates the policy and its listeners
        Orchestrator(cluster, engine, rng).scale_out("cpu-service")
        engine.run_until(engine.now + 30.0)  # cold-start actuation delay
        fresh = cluster.instance_by_name("cpu-service#1")
        assert cluster.router._dispatch_completion in fresh.completion_listeners
        cluster.set_routing_policy("least_in_flight", service="cpu-service")
        cluster.route("cpu-service")
        Orchestrator(cluster, engine, rng).scale_out("cpu-service")
        engine.run_until(engine.now + 30.0)
        assert not cluster.instance_by_name("cpu-service#2").completion_listeners

    def test_fresh_replica_does_not_inherit_dead_namesakes_state(
        self, cluster, cpu_profile, engine, rng
    ):
        """Scale-in then scale-out reuses the ``service#index`` name; the
        fresh replica must start with clean policy state (EWMA and JIQ key
        by instance identity, not by name)."""
        cluster.deploy_service(cpu_profile, replicas=2)
        cluster.set_routing_policy("ewma")
        policy = cluster.router.policy_for("cpu-service")
        doomed = cluster.instance_by_name("cpu-service#1")
        policy.observe_completion(doomed, 10_000.0)  # terrible history
        policy.observe_completion(cluster.instance_by_name("cpu-service#0"), 5.0)
        orchestrator = Orchestrator(cluster, engine, rng)
        orchestrator.scale_in("cpu-service")
        orchestrator.scale_out("cpu-service")
        engine.run_until(engine.now + 30.0)
        reborn = cluster.instance_by_name("cpu-service#1")
        assert reborn is not doomed
        # No inherited EWMA: the fresh namesake's cold prior beats #0's
        # 5 ms, where the dead namesake's 10 s history would lose to it.
        assert policy.select(cluster.replicas_of("cpu-service")) is reborn
        # JIQ: the fresh namesake is unknown, so it seeds the idle queue.
        jiq = create_policy("jiq", "cpu-service", rng)
        jiq.observe_completion(doomed, 5.0)
        picks = {jiq.select(cluster.replicas_of("cpu-service")) for _ in range(2)}
        assert reborn in picks


class TestRouterScaleEvents:
    """Orchestrator actions must be visible to the router immediately."""

    @pytest.mark.parametrize(
        "policy",
        sorted(BUILTIN_POLICIES),
    )
    def test_scale_in_never_routes_to_removed_replica(
        self, cluster, cpu_profile, engine, rng, policy
    ):
        """A removed replica must never be selected again — including by
        stateful policies whose idle queues / tables may still name it."""
        cluster.deploy_service(cpu_profile, replicas=3)
        cluster.set_routing_policy(policy)
        orchestrator = Orchestrator(cluster, engine, rng)
        # In-flight traffic on every replica (and listener installation).
        for _ in range(4):
            cluster.route("cpu-service").submit(SpanWork(_noop))
        removed = cluster.instance_by_name("cpu-service#2")
        orchestrator.scale_in("cpu-service")
        assert removed not in cluster.replicas_of("cpu-service")
        # Let the removed replica's in-flight work finish: its completion
        # still fires (e.g. re-enqueueing it as idle for JIQ) and must be
        # ignored by routing from now on.
        engine.run_until(engine.now + 5.0)
        live = set(cluster.replicas_of("cpu-service"))
        for _ in range(20):
            choice = cluster.route("cpu-service")
            assert choice in live
            assert choice is not removed

    def test_scale_out_is_immediately_routable(self, cluster, cpu_profile, engine, rng):
        cluster.deploy_service(cpu_profile, replicas=1)
        cluster.set_routing_policy("round_robin")
        cluster.route("cpu-service")
        orchestrator = Orchestrator(cluster, engine, rng)
        orchestrator.scale_out("cpu-service")
        engine.run_until(engine.now + 30.0)  # cold-start actuation delay
        assert len(cluster.replicas_of("cpu-service")) == 2
        picks = {cluster.route("cpu-service").name for _ in range(4)}
        assert picks == {"cpu-service#0", "cpu-service#1"}


# ---------------------------------------------------------------------------
# Tenant scoping
# ---------------------------------------------------------------------------

class TestTenantRouting:
    @pytest.fixture
    def two_tenants(self, cluster):
        alpha_profile = ServiceProfile(name="alpha/api", base_service_time_ms=2.0)
        beta_profile = ServiceProfile(name="beta/api", base_service_time_ms=2.0)
        cluster.deploy_service(alpha_profile, replicas=2, tenant="alpha")
        cluster.deploy_service(beta_profile, replicas=2, tenant="beta")
        return (
            TenantClusterView(cluster, "alpha"),
            TenantClusterView(cluster, "beta"),
        )

    def test_view_never_selects_foreign_replicas(self, two_tenants):
        alpha, beta = two_tenants
        for _ in range(8):
            assert alpha.route("alpha/api").container.tenant == "alpha"
        with pytest.raises(KeyError, match="not owned"):
            alpha.route("beta/api")
        with pytest.raises(KeyError, match="not owned"):
            beta.route("alpha/api")

    def test_per_tenant_policies_coexist(self, two_tenants, cluster):
        alpha, beta = two_tenants
        alpha.set_routing_policy("round_robin")
        assert cluster.router.policy_name_for("alpha/api") == "round_robin"
        assert cluster.router.policy_name_for("beta/api") == "least_in_flight"
        assert alpha.route("alpha/api").replica_index == 0
        assert beta.route("beta/api").replica_index == 0
        # Round-robin keeps cycling for alpha (one decision already made
        # above) while beta stays least-loaded.
        picks = [alpha.route("alpha/api").replica_index for _ in range(4)]
        assert picks == [1, 0, 1, 0]
        assert [beta.route("beta/api").replica_index for _ in range(2)] == [0, 0]

    def test_view_cannot_configure_foreign_service(self, two_tenants):
        alpha, _ = two_tenants
        with pytest.raises(KeyError, match="not owned"):
            alpha.set_routing_policy("random", service="beta/api")

    def test_reconfiguring_one_tenant_preserves_neighbour_state(
        self, two_tenants, cluster
    ):
        """Changing tenant a's policy must not wipe tenant b's learned
        routing state (EWMA tables, cursors) mid-run."""
        alpha, beta = two_tenants
        beta.set_routing_policy("ewma")
        beta_policy = cluster.router.policy_for("beta/api")
        beta_policy.observe_completion(cluster.instance_by_name("beta/api#0"), 50.0)
        alpha.set_routing_policy("round_robin")
        assert cluster.router.policy_for("beta/api") is beta_policy
        cluster.set_routing_policy("random")  # new cluster default
        assert cluster.router.policy_for("beta/api") is beta_policy
        assert cluster.router.policy_name_for("alpha/api") == "round_robin"


class TestCachedPolicyInvalidation:
    """``route`` reads each service's cached policy; every write that changes
    what a service resolves to must drop exactly the affected entries."""

    @pytest.fixture
    def mid_run(self, cluster, engine):
        """Four two-replica services, each routed under an EWMA policy that
        has learned from completed spans before the reconfiguration."""
        for name, tenant in [
            ("plain", None), ("pinned", None), ("alpha/api", "alpha"), ("beta/api", "beta"),
        ]:
            cluster.deploy_service(ServiceProfile(name=name), replicas=2, tenant=tenant)
        cluster.set_routing_policy("ewma")
        cluster.set_routing_policy("ewma", service="pinned")
        cluster.set_routing_policy("ewma", tenant="alpha")
        for service in cluster.services():
            cluster.route(service).submit(SpanWork(_noop))  # the idle tie: #0
        engine.run_until(1.0)
        policies = {s: cluster.router.policy_for(s) for s in cluster.services()}
        for service in policies:
            # Learned: #0's observed latency loses to #1's cold prior.
            assert cluster.route(service).replica_index == 1
        return policies

    @staticmethod
    def _round_robin_picks(cluster, service):
        return [cluster.route(service).replica_index for _ in range(4)]

    @staticmethod
    def _kept(cluster, policies, services):
        return all(cluster.router.policy_for(s) is policies[s] for s in services)

    def test_default_policy(self, cluster, mid_run):
        cluster.set_routing_policy("round_robin")
        # plain and beta/api resolve to the default; pinned and alpha do not.
        assert self._round_robin_picks(cluster, "plain") == [0, 1, 0, 1]
        assert self._round_robin_picks(cluster, "beta/api") == [0, 1, 0, 1]
        assert self._kept(cluster, mid_run, ["pinned", "alpha/api"])

    def test_tenant_policy(self, cluster, mid_run):
        cluster.set_routing_policy("round_robin", tenant="alpha")
        assert self._round_robin_picks(cluster, "alpha/api") == [0, 1, 0, 1]
        assert self._kept(cluster, mid_run, ["plain", "pinned", "beta/api"])

    def test_service_policy(self, cluster, mid_run):
        cluster.set_routing_policy("round_robin", service="plain")
        assert self._round_robin_picks(cluster, "plain") == [0, 1, 0, 1]
        assert self._kept(cluster, mid_run, ["pinned", "alpha/api", "beta/api"])

    def test_tenant_reassignment(self, cluster, mid_run):
        cluster.set_routing_policy("round_robin", tenant="gamma")
        # A scale-out through deploy_service keeps the tenant and the policy.
        cluster.deploy_service(ServiceProfile(name="beta/api"))
        assert self._kept(cluster, mid_run, ["beta/api"])
        cluster.deploy_service(ServiceProfile(name="beta/api"), tenant="gamma")
        assert cluster.router.policy_name_for("beta/api") == "round_robin"
        assert self._round_robin_picks(cluster, "beta/api") == [0, 1, 2, 3]
        assert self._kept(cluster, mid_run, ["plain", "pinned", "alpha/api"])


# ---------------------------------------------------------------------------
# Spec / harness threading
# ---------------------------------------------------------------------------

class TestSpecThreading:
    def test_spec_routing_configures_cluster_default(self):
        spec = ScenarioSpec(
            application="hotel_reservation", seed=0, duration_s=5.0, routing="p2c"
        )
        harness = ExperimentHarness.from_spec(spec)
        assert harness.cluster.router.default_policy == "power_of_two_choices"

    def test_spec_unknown_routing_rejected_at_build(self):
        spec = ScenarioSpec(application="hotel_reservation", routing="nope")
        with pytest.raises(ValueError, match="unknown routing policy"):
            ExperimentHarness.from_spec(spec)

    def test_spec_replica_overrides_applied(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=0,
            duration_s=5.0,
            replicas={"frontend": 4},
        )
        harness = ExperimentHarness.from_spec(spec)
        assert len(harness.cluster.replicas_of("frontend")) == 4

    def test_spec_replica_override_unknown_service_rejected(self):
        spec = ScenarioSpec(
            application="hotel_reservation", seed=0, replicas={"not-a-service": 2}
        )
        with pytest.raises(ValueError, match="unknown service"):
            ExperimentHarness.from_spec(spec)

    def test_tenant_routing_and_replicas(self):
        spec = ScenarioSpec(
            seed=0,
            duration_s=5.0,
            cluster_nodes=(2, 0),
            tenants=[
                TenantSpec(
                    name="a",
                    application="hotel_reservation",
                    load_rps=5.0,
                    routing="round_robin",
                    replicas={"frontend": 3},
                ),
                TenantSpec(name="b", application="hotel_reservation", load_rps=5.0),
            ],
        )
        harness = ExperimentHarness.from_spec(spec)
        router = harness.cluster.router
        assert router.policy_name_for("a/frontend") == "round_robin"
        assert router.policy_name_for("b/frontend") == "least_in_flight"
        assert len(harness.cluster.replicas_of("a/frontend")) == 3
        assert len(harness.cluster.replicas_of("b/frontend")) == 2

    def test_scenario_id_mentions_routing_only_when_set(self):
        plain = ScenarioSpec(application="a", controller="c", seed=4, load_rps=10.0, duration_s=5.0)
        routed = plain.with_overrides(routing="jiq")
        assert plain.scenario_id == "a/c/seed=4/load=10/duration=5"
        assert routed.scenario_id == "a/c/seed=4/load=10/duration=5/routing=jiq"

    def test_default_routing_matches_explicit_least_in_flight(self):
        base = ScenarioSpec(
            application="hotel_reservation", seed=2, duration_s=8.0, load_rps=20.0
        )
        implicit = run_scenario(base)
        explicit = run_scenario(base.with_overrides(routing="least_in_flight"))
        assert implicit.summary() == explicit.summary()

    def test_every_span_routed_by_spec_policy(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=0,
            duration_s=4.0,
            load_rps=10.0,
            routing="round_robin",
        )
        harness = ExperimentHarness.from_spec(spec)
        harness.run(duration_s=4.0)
        router = harness.cluster.router
        traces = harness.tenants[0].coordinator.store.completed_traces()
        assert traces
        spans = [span for trace in traces for span in trace.spans]
        for span in spans:
            assert router.policy_name_for(span.service) == "round_robin"
            assert router.decision_counts[span.service][span.instance] > 0
        decisions = sum(sum(c.values()) for c in router.decision_counts.values())
        assert decisions >= len(spans)


# ---------------------------------------------------------------------------
# Sweeps, experiments, CLI
# ---------------------------------------------------------------------------

class TestRoutingSweep:
    def test_grid_shape_policy_major(self):
        specs = expand_grid(
            routed_tenants,
            {
                "policy": ("least_in_flight", "jiq"),
                "controller": ("none", "aimd"),
                "count": (1, 2),
            },
            duration_s=5.0,
        )
        assert len(specs) == 8
        assert [s.routing for s in specs] == (
            ["least_in_flight"] * 4 + ["join_the_idle_queue"] * 4
        )
        assert all(s.tenants for s in specs)
        assert {len(s.tenants) for s in specs} == {1, 2}
        assert all(t.replicas for s in specs for t in s.tenants)

    def test_serial_matches_parallel(self):
        specs = expand_grid(
            routed_tenants,
            {
                "policy": ("least_in_flight", "round_robin", "p2c", "ewma"),
                "controller": ("none", "aimd"),
            },
            duration_s=5.0,
            load_rps=10.0,
        )
        assert len(specs) == 8
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert [o.scenario_id for o in serial] == [o.scenario_id for o in parallel]
        for left, right in zip(serial, parallel):
            assert left.summary == right.summary
            assert left.tenant_summaries == right.tenant_summaries

    def test_interference_preset_shows_p99_gap(self):
        """Acceptance: a policy pair with a measurable P99 gap under the
        aggressor_victim interference preset (routing is the only change)."""
        outcomes = {}
        for policy in ("random", "ewma_latency"):
            spec = routing_interference_spec(policy, seed=0, duration_s=20.0)
            result = run_scenario(spec)
            outcomes[policy] = result.tenant_results["victim"].summary()
        gap = outcomes["random"]["p99_ms"] / outcomes["ewma_latency"]["p99_ms"]
        assert gap > 1.2, f"expected a measurable victim P99 gap, got {gap:.3f}x"

    def test_run_routing_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown routing preset"):
            run_routing(preset="nope")


class TestRoutingCLI:
    def test_run_routing_subcommand(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "routing.json"
        code = main([
            "run", "routing",
            "--set", "preset=anomaly",
            "--set", "policies=['least_in_flight', 'round_robin']",
            "--set", "duration_s=5",
            "--set", "load_rps=10",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["policies"]) == {"least_in_flight", "round_robin"}
        assert payload["p99_spread"] >= 1.0

    def test_sweep_routing_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "routed_tenants",
            "--grid", "policy=least_in_flight,jiq",
            "--set", "controller=none",
            "--set", "seed=0",
            "--set", "load_rps=8",
            "--set", "duration_s=4",
            "--set", "application=hotel_reservation",
            "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert {row["routing"] for row in rows} == {
            "least_in_flight",
            "join_the_idle_queue",
        }

    def test_sweep_unknown_routing_fails_fast(self, capsys):
        from repro.cli import main

        # Scenario-resolution errors exit 2 with a clean message instead
        # of an uncaught traceback.
        assert main(["sweep", "routed_tenants", "--grid", "policy=bogus"]) == 2
        assert "unknown routing policy" in capsys.readouterr().err
