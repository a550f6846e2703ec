"""Unit tests for the application model and benchmark catalog."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.apps.catalog import (
    APPLICATIONS,
    build_application,
    hotel_reservation,
    media_service,
    social_network,
    train_ticket,
)
from repro.apps.graph import (
    CallEdge,
    CallPattern,
    RequestType,
    ServiceGraph,
    cache_profile,
    database_profile,
    frontend_profile,
    logic_profile,
)
from repro.cluster.resources import Resource


class TestServiceGraph:
    def test_add_service_and_lookup(self):
        graph = ServiceGraph("app")
        graph.add_service(logic_profile("svc"))
        assert "svc" in graph.services

    def test_returned_mappings_cannot_mutate_the_graph(self):
        graph = ServiceGraph("app")
        graph.add_service(frontend_profile("fe"))
        graph.add_request_type(RequestType(name="r", entry_service="fe"))
        with pytest.raises(TypeError):
            graph.services["ghost"] = graph.services["fe"]
        with pytest.raises(TypeError):
            del graph.request_types["r"]
        assert list(graph.services) == ["fe"]
        assert list(graph.request_types) == ["r"]
        # The views are live: a later registration shows through them.
        types = graph.request_types
        graph.add_request_type(RequestType(name="s", entry_service="fe"))
        assert sorted(types) == ["r", "s"]

    def test_duplicate_service_rejected(self):
        graph = ServiceGraph("app")
        graph.add_service(logic_profile("svc"))
        with pytest.raises(ValueError):
            graph.add_service(logic_profile("svc"))

    def test_request_type_with_unknown_service_rejected(self):
        graph = ServiceGraph("app")
        graph.add_service(frontend_profile("fe"))
        request = RequestType(name="r", entry_service="fe", call_plan=[CallEdge("ghost")])
        with pytest.raises(ValueError):
            graph.add_request_type(request)

    def test_request_type_services_deduplicated(self):
        request = RequestType(
            name="r",
            entry_service="fe",
            call_plan=[CallEdge("a", children=[CallEdge("b")]), CallEdge("a")],
        )
        assert request.services() == ["fe", "a", "b"]

    def test_request_mix_normalized(self):
        graph = ServiceGraph("app")
        graph.add_service(frontend_profile("fe"))
        graph.add_request_type(RequestType(name="a", entry_service="fe", weight=1.0))
        graph.add_request_type(RequestType(name="b", entry_service="fe", weight=3.0))
        mix = dict(graph.request_mix())
        assert mix["a"] == pytest.approx(0.25)
        assert mix["b"] == pytest.approx(0.75)

    def test_request_mix_requires_weights(self):
        graph = ServiceGraph("app")
        with pytest.raises(ValueError):
            graph.request_mix()

    def test_validate_requires_request_types(self):
        graph = ServiceGraph("app")
        graph.add_service(frontend_profile("fe"))
        with pytest.raises(ValueError):
            graph.validate()

    def test_dependency_graph_edges(self):
        graph = ServiceGraph("app")
        graph.add_service(frontend_profile("fe"))
        graph.add_service(logic_profile("logic"))
        graph.add_request_type(
            RequestType(name="r", entry_service="fe", call_plan=[CallEdge("logic")])
        )
        dependency = graph.dependency_graph()
        assert dependency.has_edge("fe", "logic")

    def test_call_edge_walk_is_depth_first(self):
        edge = CallEdge("a", children=[CallEdge("b", children=[CallEdge("c")]), CallEdge("d")])
        assert [e.callee for e in edge.walk()] == ["a", "b", "c", "d"]


class TestProfiles:
    def test_cache_profile_memory_sensitive(self):
        profile = cache_profile("memcached")
        assert profile.resource_weights[Resource.MEMORY_BANDWIDTH] > profile.resource_weights[Resource.CPU]

    def test_database_profile_disk_sensitive(self):
        profile = database_profile("mongo")
        assert profile.resource_weights[Resource.DISK_IO] > 0.5

    def test_frontend_profile_network_sensitive(self):
        profile = frontend_profile("nginx")
        assert profile.resource_weights[Resource.NETWORK] > 0.5

    def test_logic_profile_cpu_dominant(self):
        assert logic_profile("svc").dominant_resource() is Resource.CPU


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_applications_validate(self, name):
        app = build_application(name)
        app.validate()

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_applications_are_acyclic(self, name):
        app = build_application(name)
        assert nx.is_directed_acyclic_graph(app.dependency_graph())

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_applications_have_three_request_types(self, name):
        app = build_application(name)
        assert len(app.request_types) >= 3

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_applications_have_background_workflows(self, name):
        """Every app exercises all three workflow patterns (paper §3.2)."""
        app = build_application(name)
        patterns = set()
        for request_type in app.request_types.values():
            for edge in request_type.call_plan:
                for nested in edge.walk():
                    patterns.add(nested.pattern)
        assert patterns == {CallPattern.SEQUENTIAL, CallPattern.PARALLEL, CallPattern.BACKGROUND}

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_applications_have_positive_slos(self, name):
        app = build_application(name)
        assert all(rt.slo_latency_ms > 0 for rt in app.request_types.values())

    def test_unknown_application_raises(self):
        with pytest.raises(KeyError):
            build_application("nope")

    def test_social_network_has_compose_post(self):
        app = social_network()
        assert "post-compose" in app.request_types
        assert "composePost" in app.services

    def test_social_network_service_count(self):
        # The modelled subset carries the load-bearing services of the
        # 36-microservice original (frontends, logic, caches, stores).
        assert len(social_network().services) >= 20

    def test_media_service_has_review_flow(self):
        app = media_service()
        assert "compose-review" in app.request_types

    def test_hotel_reservation_has_search(self):
        app = hotel_reservation()
        assert "search-hotel" in app.request_types

    def test_train_ticket_has_payment(self):
        app = train_ticket()
        assert "ticket-payment" in app.request_types

    def test_all_four_benchmarks_registered(self):
        assert set(APPLICATIONS) == {
            "social_network",
            "media_service",
            "hotel_reservation",
            "train_ticket",
        }
