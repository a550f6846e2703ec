"""Unit tests for the application model and benchmark catalog."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

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


def _app(*request_types):
    """An application of exactly the services its request types name."""
    graph = ServiceGraph("app")
    for service in dict.fromkeys(s for rt in request_types for s in rt.services()):
        graph.add_service(logic_profile(service))
    for request_type in request_types:
        graph.add_request_type(request_type)
    return graph


def _plan_edges(request_types):
    """Every (caller, callee) pair the call plans contain."""
    edges = set()

    def visit(caller, calls):
        for edge in calls:
            edges.add((caller, edge.callee))
            visit(edge.callee, edge.children)

    for request_type in request_types:
        visit(request_type.entry_service, request_type.call_plan)
    return edges


def _has_cycle(edges):
    """Brute-force oracle: drop services with no callees left until none is."""
    edges = set(edges)
    while edges:
        callers = {caller for caller, _ in edges}
        into_sinks = {(caller, callee) for caller, callee in edges if callee not in callers}
        if not into_sinks:
            return True
        edges -= into_sinks
    return False


_SERVICES = [f"s{i}" for i in range(6)]
_call_edges = st.recursive(
    st.builds(CallEdge, st.sampled_from(_SERVICES)),
    lambda children: st.builds(
        CallEdge, st.sampled_from(_SERVICES), children=st.lists(children, max_size=3)
    ),
    max_leaves=6,
)
_request_types = st.lists(
    st.tuples(st.sampled_from(_SERVICES), st.lists(_call_edges, max_size=3)),
    min_size=1,
    max_size=4,
).map(lambda plans: [RequestType(f"r{i}", entry, plan) for i, (entry, plan) in enumerate(plans)])


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
        assert graph.dependency_graph() == {"fe": ["logic"], "logic": []}

    def test_call_edge_walk_is_depth_first(self):
        edge = CallEdge("a", children=[CallEdge("b", children=[CallEdge("c")]), CallEdge("d")])
        assert [e.callee for e in edge.walk()] == ["a", "b", "c", "d"]


class TestCycleCheck:
    def _assert_cycle(self, graph, cycle):
        message = f"application 'app' has a cyclic dependency: {cycle}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph.validate()

    def test_cycle_across_request_types(self):
        graph = _app(
            RequestType("r1", "A", [CallEdge("B")]),
            RequestType("r2", "B", [CallEdge("A")]),
        )
        self._assert_cycle(graph, "A -> B -> A")

    def test_cycle_nested_in_one_plan(self):
        plan = [CallEdge("B", children=[CallEdge("C", children=[CallEdge("A")])])]
        self._assert_cycle(_app(RequestType("r", "A", plan)), "A -> B -> C -> A")

    def test_self_call_is_a_cycle(self):
        self._assert_cycle(_app(RequestType("r", "fe", [CallEdge("fe")])), "fe -> fe")

    def test_diamond_is_acyclic(self):
        plan = [
            CallEdge("B", children=[CallEdge("D")]),
            CallEdge("C", children=[CallEdge("D")]),
        ]
        _app(RequestType("r", "A", plan)).validate()

    @given(_request_types)
    @settings(max_examples=200, deadline=None)
    def test_validate_raises_exactly_on_a_cycle(self, request_types):
        graph = _app(*request_types)
        edges = _plan_edges(request_types)
        dependency = graph.dependency_graph()
        assert {(a, b) for a, callees in dependency.items() for b in callees} == edges
        try:
            graph.validate()
        except ValueError as error:
            assert _has_cycle(edges)
            cycle = str(error).split(": ", 1)[1].split(" -> ")
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert len(set(cycle)) == len(cycle) - 1
            assert set(zip(cycle, cycle[1:])) <= edges
        else:
            assert not _has_cycle(edges)


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
        assert not _has_cycle(_plan_edges(app.request_types.values()))

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
