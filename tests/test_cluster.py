"""Unit tests for the cluster (deployment, placement, aggregate queries)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.instance import SpanWork
from repro.cluster.node import NodeSpec
from repro.cluster.resources import Resource, ResourceLimits


class TestTopology:
    def test_default_cluster_has_fifteen_nodes(self, cluster):
        assert len(cluster.nodes) == 15

    def test_default_architecture_mix(self, cluster):
        architectures = [node.architecture for node in cluster.nodes]
        assert architectures.count("x86") == 9
        assert architectures.count("ppc64") == 6

    def test_node_by_name(self, cluster):
        node = cluster.node_by_name("x86-0")
        assert node.name == "x86-0"

    def test_node_by_name_missing_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.node_by_name("nope")

    def test_custom_node_specs(self, engine, rng):
        cluster = Cluster(engine, rng, node_specs=[NodeSpec(name="solo")])
        assert len(cluster.nodes) == 1

    def test_total_capacity_sums_nodes(self, cluster):
        total = cluster.total_capacity()
        single = cluster.nodes[0].capacity
        assert total[Resource.CPU] == pytest.approx(single[Resource.CPU] * 15)


class TestDeployment:
    def test_deploy_creates_replicas(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=3)
        assert len(instances) == 3
        assert len(cluster.replicas_of("cpu-service")) == 3

    def test_replica_names_are_indexed(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        assert instances[0].name == "cpu-service#0"
        assert instances[1].name == "cpu-service#1"

    def test_services_lists_deployed(self, cluster, cpu_profile, memory_profile):
        cluster.deploy_service(cpu_profile)
        cluster.deploy_service(memory_profile)
        assert set(cluster.services()) == {"cpu-service", "memory-service"}

    def test_profile_of_deployed_service(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile)
        assert cluster.profile_of("cpu-service") is cpu_profile

    def test_deploy_with_custom_limits(self, cluster, cpu_profile):
        limits = ResourceLimits.from_kwargs(cpu=2.0, memory_bandwidth=5.0)
        instance = cluster.deploy_service(cpu_profile, limits=limits)[0]
        assert instance.container.limits[Resource.CPU] == 2.0

    def test_deploy_pinned_to_node(self, cluster, cpu_profile):
        node = cluster.node_by_name("ppc64-0")
        instance = cluster.deploy_service(cpu_profile, node=node)[0]
        assert instance.container.node is node

    def test_placement_spreads_across_nodes(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=10)
        used_nodes = {instance.container.node.name for instance in instances}
        assert len(used_nodes) > 1

    def test_instance_by_name(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile, replicas=2)
        instance = cluster.instance_by_name("cpu-service#1")
        assert instance.replica_index == 1

    def test_instance_by_name_missing_raises(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile)
        with pytest.raises(KeyError):
            cluster.instance_by_name("cpu-service#9")

    def test_remove_instance(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        cluster.remove_instance(instances[1])
        assert len(cluster.replicas_of("cpu-service")) == 1
        assert instances[1].container.node is None

    def test_all_containers_counts_every_replica(self, cluster, cpu_profile, memory_profile):
        cluster.deploy_service(cpu_profile, replicas=2)
        cluster.deploy_service(memory_profile, replicas=3)
        assert len(cluster.all_containers()) == 5


class TestLoadBalancing:
    def test_pick_replica_requires_deployment(self, cluster):
        with pytest.raises(KeyError):
            cluster.route("missing")

    def test_pick_replica_prefers_least_loaded(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        instances[0].submit(SpanWork(lambda *a: None))
        instances[0].submit(SpanWork(lambda *a: None))
        assert cluster.route("cpu-service") is instances[1]

    def test_pick_replica_breaks_ties_by_lowest_replica_index(self, cluster, cpu_profile):
        """Equal in-flight counts must resolve by replica index, not by the
        replica list's internal ordering (which depends on deploy history)."""
        instances = cluster.deploy_service(cpu_profile, replicas=3)
        # Perturb the bookkeeping order: the tie-break must not follow it.
        cluster._replicas["cpu-service"].reverse()
        assert cluster.route("cpu-service") is instances[0]
        instances[0].submit(SpanWork(lambda *a: None))
        assert cluster.route("cpu-service") is instances[1]

    def test_route_counts_decision_under_resolved_policy(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        instances[0].submit(SpanWork(lambda *a: None))
        assert cluster.route("cpu-service") is instances[1]
        assert cluster.router.policy_name_for("cpu-service") == "least_in_flight"
        assert cluster.router.decision_counts["cpu-service"] == {"cpu-service#1": 1}


class TestAggregateMetrics:
    def test_total_requested_cpu(self, cluster, cpu_profile):
        limits = ResourceLimits.from_kwargs(cpu=2.0)
        cluster.deploy_service(cpu_profile, replicas=3, limits=limits)
        assert cluster.total_requested_cpu() == pytest.approx(6.0)

    def test_cluster_cpu_utilization_zero_when_idle(self, cluster, cpu_profile):
        cluster.deploy_service(cpu_profile)
        assert cluster.cluster_cpu_utilization() == pytest.approx(0.0, abs=1e-6)

    def test_cluster_cpu_utilization_bounded(self, cluster, cpu_profile):
        instances = cluster.deploy_service(cpu_profile, replicas=2)
        for instance in instances:
            for index in range(10):
                instance.submit(SpanWork(lambda *a: None))
        utilization = cluster.cluster_cpu_utilization()
        assert 0.0 <= utilization <= 1.0
