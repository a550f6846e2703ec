"""Multi-tenant runtime tests: placement, scoping, determinism, interference."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import TenantClusterView
from repro.cluster.container import Container
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import Resource, ResourceLimits
from repro.cluster.scheduler import PlacementPolicy, Scheduler
from repro.experiments.harness import ExperimentHarness
from repro.experiments.interference import (
    aggressor_victim,
    identical_tenants,
    noisy_neighbor_ramp,
    run_interference,
)
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.experiments.sweep import expand_grid, run_sweep
from repro.metrics.slo import SLOTracker, merge_slo_trackers


def _two_tenant_spec(**overrides) -> ScenarioSpec:
    base = dict(
        seed=3,
        duration_s=10.0,
        cluster_nodes=(2, 0),
        tenants=[
            TenantSpec(name="alpha", application="hotel_reservation", load_rps=10.0),
            TenantSpec(name="beta", application="hotel_reservation", load_rps=10.0),
        ],
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# Scheduler placement under co-location
# ---------------------------------------------------------------------------

class TestTenantPlacement:
    @pytest.fixture
    def nodes(self):
        return [Node(NodeSpec(name=f"n{i}")) for i in range(4)]

    def test_tenant_anti_affinity_prefers_exclusive_nodes(self, nodes):
        nodes[0].add_container(Container("a/svc", tenant="a"))
        nodes[1].add_container(Container("a/other", tenant="a"))
        scheduler = Scheduler(PlacementPolicy.TENANT_ANTI_AFFINITY)
        chosen = scheduler.place(nodes, None, service_name="b/svc", tenant="b")
        assert chosen in (nodes[2], nodes[3])

    def test_tenant_anti_affinity_ignores_untenanted_containers(self, nodes):
        for node in nodes[1:]:
            node.add_container(Container("x/svc", tenant="x"))
        nodes[0].add_container(Container("shared-infra"))  # untenanted: neutral
        scheduler = Scheduler(PlacementPolicy.TENANT_ANTI_AFFINITY)
        assert scheduler.place(nodes, None, tenant="y") is nodes[0]

    def test_tenant_anti_affinity_degrades_when_unavoidable(self, nodes):
        for node in nodes:
            node.add_container(Container("x/svc", tenant="x"))
        scheduler = Scheduler(PlacementPolicy.TENANT_ANTI_AFFINITY)
        assert scheduler.place(nodes, None, tenant="y") in nodes

    def test_node_quota_restricts_to_occupied_nodes(self, nodes):
        scheduler = Scheduler(node_quotas={"a": 2})
        placed = []
        for index in range(6):
            node = scheduler.place(nodes, None, tenant="a")
            node.add_container(Container(f"a/svc{index}", tenant="a"))
            placed.append(node.name)
        assert len(set(placed)) == 2

    def test_node_quota_wins_over_fit(self, nodes):
        scheduler = Scheduler(node_quotas={"a": 1})
        first = scheduler.place(nodes, None, tenant="a")
        first.add_container(
            Container("a/fat", tenant="a", limits=ResourceLimits.from_kwargs(cpu=64.0))
        )
        # Nothing fits on the quota node any more; the quota still wins.
        chosen = scheduler.place(nodes, ResourceLimits.from_kwargs(cpu=32.0), tenant="a")
        assert chosen is first

    def test_quota_does_not_apply_to_other_tenants(self, nodes):
        scheduler = Scheduler(node_quotas={"a": 1})
        a_node = scheduler.place(nodes, None, tenant="a")
        a_node.add_container(Container("a/svc", tenant="a"))
        b_nodes = set()
        for index in range(4):
            node = scheduler.place(nodes, None, tenant="b")
            node.add_container(Container(f"b/svc{index}", tenant="b"))
            b_nodes.add(node.name)
        assert len(b_nodes) > 1

    def test_placement_is_deterministic_per_seed(self):
        def placement_map(seed):
            spec = _two_tenant_spec(seed=seed, placement="tenant_anti_affinity")
            harness = ExperimentHarness.from_spec(spec)
            return {
                container.instance.name: container.node.name
                for container in harness.cluster.all_containers()
            }

        assert placement_map(5) == placement_map(5)

    def test_tenant_anti_affinity_with_quotas_separates_tenants(self):
        # Anti-affinity alone cannot isolate tenants: the first tenant
        # legitimately spreads over every (then-empty) node.  Bounding each
        # tenant's footprint with a node quota gives later tenants
        # foreign-free nodes to prefer, yielding disjoint placements.
        spec = _two_tenant_spec(cluster_nodes=(4, 0), placement="tenant_anti_affinity")
        spec.tenants[0] = spec.tenants[0].with_overrides(node_quota=2)
        spec.tenants[1] = spec.tenants[1].with_overrides(node_quota=2)
        harness = ExperimentHarness.from_spec(spec)
        per_node_tenants = [
            {c.tenant for c in node.containers}
            for node in harness.cluster.nodes
            if node.containers
        ]
        assert all(len(tenants) == 1 for tenants in per_node_tenants)

    def test_node_quota_enforced_end_to_end(self):
        spec = _two_tenant_spec(cluster_nodes=(4, 0))
        spec.tenants[0] = spec.tenants[0].with_overrides(node_quota=1)
        harness = ExperimentHarness.from_spec(spec)
        alpha_nodes = {
            c.node.name for c in harness.cluster.all_containers() if c.tenant == "alpha"
        }
        assert len(alpha_nodes) == 1


# ---------------------------------------------------------------------------
# Tenant-scoped cluster view and identity tagging
# ---------------------------------------------------------------------------

class TestTenantScoping:
    @pytest.fixture(scope="class")
    def harness(self):
        spec = _two_tenant_spec()
        spec.tenants[0] = spec.tenants[0].with_overrides(controller="aimd")
        return ExperimentHarness.from_spec(spec)

    def test_services_are_namespaced_per_tenant(self, harness):
        services = harness.cluster.services()
        assert all(s.startswith(("alpha/", "beta/")) for s in services)
        assert harness.cluster.services(tenant="alpha") == [
            s for s in services if s.startswith("alpha/")
        ]
        assert harness.cluster.tenants() == ["alpha", "beta"]

    def test_containers_and_telemetry_carry_tenant(self, harness):
        containers = harness.cluster.all_containers()
        assert {c.tenant for c in containers} == {"alpha", "beta"}
        sample = harness.telemetry.sample_container(containers[0])
        assert sample.tenant == containers[0].tenant

    def test_view_scopes_queries(self, harness):
        view = TenantClusterView(harness.cluster, "alpha")
        assert all(c.tenant == "alpha" for c in view.all_containers())
        assert view.services() == harness.cluster.services(tenant="alpha")
        with pytest.raises(KeyError):
            view.route(harness.cluster.services(tenant="beta")[0])
        total = harness.cluster.total_requested_cpu()
        assert view.total_requested_cpu() < total

    def test_view_deploy_tags_tenant(self, harness):
        view = harness.tenant("alpha").view
        service = view.services()[0]
        before = len(view.replicas_of(service))
        instances = view.deploy_service(view.profile_of(service), replicas=1)
        assert instances[0].container.tenant == "alpha"
        assert len(view.replicas_of(service)) == before + 1

    def test_traces_and_spans_tagged_with_tenant(self, harness):
        result = harness.run(duration_s=5.0)
        for tenant in ("alpha", "beta"):
            traces = harness.tenant(tenant).coordinator.store.completed_traces()
            assert traces, f"tenant {tenant} completed no requests"
            assert all(t.tenant == tenant for t in traces)
            assert all(s.tenant == tenant for t in traces for s in t.spans)
        assert set(result.tenant_results) == {"alpha", "beta"}

    def test_controller_only_acts_on_its_tenant(self):
        spec = _two_tenant_spec(duration_s=25.0)
        spec.tenants[0] = spec.tenants[0].with_overrides(
            controller="aimd", controller_kwargs={"control_interval_s": 5.0}
        )
        harness = ExperimentHarness.from_spec(spec)
        beta_limits_before = {
            c.id: c.limits[Resource.CPU]
            for c in harness.cluster.all_containers()
            if c.tenant == "beta"
        }
        harness.run(duration_s=25.0)
        alpha = harness.tenant("alpha")
        assert alpha.controller is not None and alpha.controller.rounds_executed > 0
        assert harness.tenant("beta").controller is None
        beta_limits_after = {
            c.id: c.limits[Resource.CPU]
            for c in harness.cluster.all_containers()
            if c.tenant == "beta"
        }
        assert beta_limits_after == beta_limits_before

    def test_slo_scale_and_overrides(self):
        spec = _two_tenant_spec()
        spec.tenants[0] = spec.tenants[0].with_overrides(
            slo_scale=0.5, slo_latency_ms={"search-hotel": 42.0}
        )
        harness = ExperimentHarness.from_spec(spec)
        alpha_slos = harness.tenant("alpha").coordinator.slo_latency_ms
        beta_slos = harness.tenant("beta").coordinator.slo_latency_ms
        for request_type, value in alpha_slos.items():
            if request_type == "search-hotel":
                assert value == 42.0
            else:
                assert value == pytest.approx(0.5 * beta_slos[request_type])

    def test_duplicate_tenant_names_rejected(self):
        spec = _two_tenant_spec()
        spec.tenants[1] = spec.tenants[1].with_overrides(name="alpha")
        with pytest.raises(ValueError, match="already deployed"):
            ExperimentHarness.from_spec(spec)


# ---------------------------------------------------------------------------
# Single-tenant compatibility and merged accounting
# ---------------------------------------------------------------------------

class TestSingleTenantCompatibility:
    def test_single_tenant_spec_stays_untenanted(self):
        harness = ExperimentHarness.from_spec(
            ScenarioSpec(application="hotel_reservation", seed=1, load_rps=10.0)
        )
        assert len(harness.tenants) == 1
        assert harness.tenants[0].tenant_id is None
        assert all(c.tenant is None for c in harness.cluster.all_containers())
        assert "nginx" not in harness.cluster.services()  # hotel app, no namespacing
        result = harness.run(duration_s=5.0)
        assert result.tenant_results == {}
        assert result.slo.completed > 0

    def test_untenanted_result_is_flat(self):
        spec = ScenarioSpec(
            application="hotel_reservation",
            seed=1,
            duration_s=4.0,
            load_rps=10.0,
            admission="survival_kit",
        )
        result = run_scenario(spec)
        assert result.per_tenant_summary() == {}
        assert "submitted" in result.admission  # the one gate's snapshot, not keyed

    def test_one_named_tenant_result_is_keyed(self):
        spec = ScenarioSpec(
            seed=1,
            duration_s=4.0,
            admission="survival_kit",
            tenants=[TenantSpec(name="solo", application="hotel_reservation", load_rps=10.0)],
        )
        result = run_scenario(spec)
        assert list(result.per_tenant_summary()) == ["solo"]
        assert list(result.admission) == ["solo"]
        assert "submitted" in result.admission["solo"]
        assert result.tenant_results["solo"].requested_cpu_samples

    def test_single_tenant_campaign_builder_receives_the_tenant(self):
        seen = []
        spec = ScenarioSpec(application="hotel_reservation", seed=1, campaign_builder=seen.append)
        harness = ExperimentHarness.from_spec(spec)
        assert seen == [harness.tenants[0]]

    def test_untenanted_tenant_must_be_alone(self):
        harness = ExperimentHarness.from_spec(ScenarioSpec(application="hotel_reservation"))
        with pytest.raises(ValueError, match="only tenant"):
            harness.add_tenant(TenantSpec(name="extra", application="hotel_reservation"))

    def test_merge_slo_trackers(self):
        a = SLOTracker({"x": 100.0}, completed=3, violations=1, dropped=1)
        a.latencies_ms = [10.0, 20.0, 150.0]
        b = SLOTracker({"x": 50.0, "y": 80.0}, completed=2, violations=0, dropped=0)
        b.latencies_ms = [5.0, 8.0]
        merged = merge_slo_trackers([a, b])
        assert (merged.completed, merged.violations, merged.dropped) == (5, 1, 1)
        assert merged.latencies_ms == [10.0, 20.0, 150.0, 5.0, 8.0]
        assert merged.slo_latency_ms == {"x": 50.0, "y": 80.0}

    def test_merged_result_sums_tenants(self):
        result = run_scenario(_two_tenant_spec())
        per_tenant = result.per_tenant_summary()
        assert result.slo.completed == sum(
            s["completed"] for s in per_tenant.values()
        )
        assert result.application == "alpha/hotel_reservation+beta/hotel_reservation"


# ---------------------------------------------------------------------------
# Determinism and interference (the acceptance criteria)
# ---------------------------------------------------------------------------

class TestMultiTenantDeterminism:
    def test_rerun_is_bit_identical(self):
        spec = _two_tenant_spec()
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.summary() == second.summary()
        assert first.per_tenant_summary() == second.per_tenant_summary()

    def test_serial_matches_parallel_sweep(self):
        specs = expand_grid(
            identical_tenants,
            {"count": (1, 2)},
            duration_s=8.0,
            load_rps=15.0,
            controller="none",
            cluster_nodes=(2, 0),
        )
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert [o.scenario_id for o in serial] == [o.scenario_id for o in parallel]
        for left, right in zip(serial, parallel):
            assert left.summary == right.summary
            assert left.tenant_summaries == right.tenant_summaries

    def test_tenant_sweep_outcome_rows(self):
        outcome = run_sweep(
            expand_grid(identical_tenants, {"count": (2,)}, duration_s=5.0, load_rps=10.0),
            workers=1,
        )[0]
        row = outcome.as_dict()
        assert row["tenant_count"] == 2
        assert set(row["tenants"]) == {"t0", "t1"}
        assert "p99_ms" in row


class TestInterference:
    def test_colocation_degrades_victim_tail(self):
        """Criterion (b): co-location must measurably hurt the victim.

        The aggressor combines a moderate load with resource anomalies on
        its own services; the injected node pressure lands on the shared
        node, so the victim's tail collapses only when co-located (the
        noisy-neighbour failure mode, at simulation-friendly cost).
        """
        spec = aggressor_victim(
            victim_load_rps=15.0,
            aggressor_load_rps=60.0,
            aggressor_anomaly_rate_per_s=0.3,
            duration_s=20.0,
            seed=3,
            cluster_nodes=(1, 0),
        )
        result = run_interference(spec=spec)
        victim = result.tenants["victim"]
        assert victim.p99_factor > 1.1, (
            f"expected measurable interference, got p99_factor={victim.p99_factor}"
        )
        assert victim.colocated["p50_ms"] > victim.isolated["p50_ms"]

    def test_presets_build_multi_tenant_specs(self):
        for spec in (
            aggressor_victim(),
            noisy_neighbor_ramp(),
            identical_tenants(3),
        ):
            assert spec.tenants
            names = [t.name for t in spec.tenants]
            assert len(names) == len(set(names))

    def test_identical_tenants_requires_positive_count(self):
        with pytest.raises(ValueError):
            identical_tenants(0)
