"""Catalog of the four benchmark applications.

These graphs model the applications used in the paper's evaluation:

* **Social Network** (DeathStarBench): broadcast-style social network with
  post-compose, read-timeline, and follow-user request types.  The
  post-compose call plan mirrors Fig. 2: nginx fans out to media services
  (video, image, text, userTag, uniqueID, urlShorten) in parallel, then
  composePost persists the post and triggers writeTimeline in the
  background.
* **Media Service** (DeathStarBench): movie reviewing/rating/streaming.
* **Hotel Reservation** (DeathStarBench): search, recommend, and reserve.
* **Train-Ticket Booking**: ticket enquiry, reservation, and payment.

The topologies are faithful to the published service counts in spirit
(36/38/15/41 unique services respectively, here modelled with the subset of
services that carry the load-bearing behaviour plus generic replicas of the
remaining tiers), and every application exercises the three workflow
patterns the critical-path extractor must distinguish.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.apps.graph import (
    CallEdge,
    CallPattern,
    RequestType,
    ServiceGraph,
    background_profile,
    cache_profile,
    database_profile,
    frontend_profile,
    logic_profile,
    media_profile,
)


def _storage_pair(graph: ServiceGraph, prefix: str) -> None:
    """Register a memcached + mongodb storage pair for a logical store."""
    graph.add_service(cache_profile(f"{prefix}-memcached"))
    graph.add_service(database_profile(f"{prefix}-mongodb"))


def _storage_calls(prefix: str) -> CallEdge:
    """Cache-then-database sequential access pattern for a store."""
    return CallEdge(
        callee=f"{prefix}-memcached",
        pattern=CallPattern.SEQUENTIAL,
        children=[CallEdge(callee=f"{prefix}-mongodb", pattern=CallPattern.SEQUENTIAL)],
    )


# ---------------------------------------------------------------------------
# Social Network
# ---------------------------------------------------------------------------

def social_network() -> ServiceGraph:
    """DeathStarBench Social Network (post-compose, read-timeline, follow)."""
    graph = ServiceGraph("social_network")

    graph.add_service(frontend_profile("nginx"), replicas=2)
    graph.add_service(media_profile("video", base_ms=14.0))
    graph.add_service(media_profile("image", base_ms=10.0))
    graph.add_service(logic_profile("text", base_ms=6.0, cv=0.6))
    graph.add_service(logic_profile("userTag", base_ms=5.0))
    graph.add_service(logic_profile("uniqueID", base_ms=2.0, cv=0.15))
    graph.add_service(logic_profile("urlShorten", base_ms=3.0))
    graph.add_service(logic_profile("composePost", base_ms=12.0, cv=0.2))
    graph.add_service(logic_profile("userInfo", base_ms=4.0))
    graph.add_service(logic_profile("readTimeline", base_ms=7.0))
    graph.add_service(logic_profile("recommender", base_ms=9.0))
    graph.add_service(logic_profile("followUser", base_ms=5.0))
    graph.add_service(logic_profile("search", base_ms=8.0))
    graph.add_service(background_profile("writeTimeline", base_ms=18.0))
    graph.add_service(background_profile("writeGraph", base_ms=10.0))
    _storage_pair(graph, "post-storage")
    _storage_pair(graph, "user-timeline")
    _storage_pair(graph, "social-graph")
    _storage_pair(graph, "user")
    _storage_pair(graph, "media")

    compose_children = [
        CallEdge("uniqueID", CallPattern.PARALLEL),
        CallEdge("video", CallPattern.PARALLEL, children=[_storage_calls("media")]),
        CallEdge("image", CallPattern.PARALLEL),
        CallEdge("text", CallPattern.PARALLEL, children=[CallEdge("urlShorten", CallPattern.SEQUENTIAL)]),
        CallEdge("userTag", CallPattern.PARALLEL, children=[_storage_calls("user")]),
        CallEdge(
            "composePost",
            CallPattern.SEQUENTIAL,
            children=[
                _storage_calls("post-storage"),
                CallEdge(
                    "writeTimeline",
                    CallPattern.BACKGROUND,
                    children=[_storage_calls("user-timeline")],
                ),
                CallEdge("writeGraph", CallPattern.BACKGROUND),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="post-compose",
            entry_service="nginx",
            call_plan=compose_children,
            slo_latency_ms=200.0,
            weight=0.4,
        )
    )

    read_children = [
        CallEdge(
            "readTimeline",
            CallPattern.SEQUENTIAL,
            children=[
                _storage_calls("user-timeline"),
                CallEdge("userInfo", CallPattern.PARALLEL, children=[_storage_calls("user")]),
                _storage_calls("post-storage"),
            ],
        ),
        CallEdge("recommender", CallPattern.PARALLEL, children=[_storage_calls("social-graph")]),
    ]
    graph.add_request_type(
        RequestType(
            name="read-timeline",
            entry_service="nginx",
            call_plan=read_children,
            slo_latency_ms=150.0,
            weight=0.5,
        )
    )

    follow_children = [
        CallEdge(
            "followUser",
            CallPattern.SEQUENTIAL,
            children=[
                _storage_calls("social-graph"),
                CallEdge("writeGraph", CallPattern.BACKGROUND),
            ],
        ),
        CallEdge("search", CallPattern.PARALLEL, children=[_storage_calls("user")]),
    ]
    graph.add_request_type(
        RequestType(
            name="follow-user",
            entry_service="nginx",
            call_plan=follow_children,
            slo_latency_ms=120.0,
            weight=0.1,
        )
    )

    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# Media Service
# ---------------------------------------------------------------------------

def media_service() -> ServiceGraph:
    """DeathStarBench Media Service (review, rent/stream, rate)."""
    graph = ServiceGraph("media_service")

    graph.add_service(frontend_profile("nginx-web"), replicas=2)
    graph.add_service(logic_profile("composeReview", base_ms=10.0, cv=0.3))
    graph.add_service(logic_profile("reviewStorage", base_ms=6.0))
    graph.add_service(logic_profile("userReview", base_ms=5.0))
    graph.add_service(logic_profile("movieReview", base_ms=5.0))
    graph.add_service(logic_profile("movieId", base_ms=3.0, cv=0.15))
    graph.add_service(logic_profile("movieInfo", base_ms=6.0))
    graph.add_service(logic_profile("plot", base_ms=4.0))
    graph.add_service(logic_profile("rating", base_ms=4.0, cv=0.5))
    graph.add_service(logic_profile("userService", base_ms=4.0))
    graph.add_service(media_profile("videoStreaming", base_ms=20.0))
    graph.add_service(logic_profile("castInfo", base_ms=5.0))
    graph.add_service(background_profile("analytics", base_ms=25.0))
    _storage_pair(graph, "review")
    _storage_pair(graph, "movie")
    _storage_pair(graph, "user-profile")
    _storage_pair(graph, "rating-store")

    compose_review = [
        CallEdge("movieId", CallPattern.PARALLEL, children=[_storage_calls("movie")]),
        CallEdge("userService", CallPattern.PARALLEL, children=[_storage_calls("user-profile")]),
        CallEdge("rating", CallPattern.PARALLEL, children=[_storage_calls("rating-store")]),
        CallEdge(
            "composeReview",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("reviewStorage", CallPattern.SEQUENTIAL, children=[_storage_calls("review")]),
                CallEdge("userReview", CallPattern.PARALLEL),
                CallEdge("movieReview", CallPattern.PARALLEL),
                CallEdge("analytics", CallPattern.BACKGROUND),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="compose-review",
            entry_service="nginx-web",
            call_plan=compose_review,
            slo_latency_ms=250.0,
            weight=0.35,
        )
    )

    browse = [
        CallEdge(
            "movieInfo",
            CallPattern.SEQUENTIAL,
            children=[
                _storage_calls("movie"),
                CallEdge("plot", CallPattern.PARALLEL),
                CallEdge("castInfo", CallPattern.PARALLEL),
                CallEdge("rating", CallPattern.PARALLEL, children=[_storage_calls("rating-store")]),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="browse-movie",
            entry_service="nginx-web",
            call_plan=browse,
            slo_latency_ms=150.0,
            weight=0.45,
        )
    )

    stream = [
        CallEdge("userService", CallPattern.SEQUENTIAL, children=[_storage_calls("user-profile")]),
        CallEdge(
            "videoStreaming",
            CallPattern.SEQUENTIAL,
            children=[_storage_calls("movie"), CallEdge("analytics", CallPattern.BACKGROUND)],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="stream-movie",
            entry_service="nginx-web",
            call_plan=stream,
            slo_latency_ms=300.0,
            weight=0.2,
        )
    )

    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# Hotel Reservation
# ---------------------------------------------------------------------------

def hotel_reservation() -> ServiceGraph:
    """DeathStarBench Hotel Reservation (search, recommend, reserve)."""
    graph = ServiceGraph("hotel_reservation")

    graph.add_service(frontend_profile("frontend"), replicas=2)
    graph.add_service(logic_profile("search", base_ms=8.0, cv=0.4))
    graph.add_service(logic_profile("geo", base_ms=5.0))
    graph.add_service(logic_profile("rate", base_ms=5.0, cv=0.5))
    graph.add_service(logic_profile("recommendation", base_ms=7.0))
    graph.add_service(logic_profile("profile", base_ms=4.0))
    graph.add_service(logic_profile("reservation", base_ms=9.0, cv=0.3))
    graph.add_service(logic_profile("user", base_ms=3.0))
    graph.add_service(background_profile("notify", base_ms=15.0))
    _storage_pair(graph, "geo-store")
    _storage_pair(graph, "rate-store")
    _storage_pair(graph, "profile-store")
    _storage_pair(graph, "reservation-store")

    search_plan = [
        CallEdge(
            "search",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("geo", CallPattern.PARALLEL, children=[_storage_calls("geo-store")]),
                CallEdge("rate", CallPattern.PARALLEL, children=[_storage_calls("rate-store")]),
            ],
        ),
        CallEdge("profile", CallPattern.SEQUENTIAL, children=[_storage_calls("profile-store")]),
    ]
    graph.add_request_type(
        RequestType(
            name="search-hotel",
            entry_service="frontend",
            call_plan=search_plan,
            slo_latency_ms=150.0,
            weight=0.55,
        )
    )

    recommend_plan = [
        CallEdge(
            "recommendation",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("profile", CallPattern.SEQUENTIAL, children=[_storage_calls("profile-store")]),
                CallEdge("rate", CallPattern.PARALLEL, children=[_storage_calls("rate-store")]),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="recommend",
            entry_service="frontend",
            call_plan=recommend_plan,
            slo_latency_ms=120.0,
            weight=0.25,
        )
    )

    reserve_plan = [
        CallEdge("user", CallPattern.SEQUENTIAL),
        CallEdge(
            "reservation",
            CallPattern.SEQUENTIAL,
            children=[
                _storage_calls("reservation-store"),
                CallEdge("notify", CallPattern.BACKGROUND),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="reserve",
            entry_service="frontend",
            call_plan=reserve_plan,
            slo_latency_ms=200.0,
            weight=0.2,
        )
    )

    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# Train-Ticket Booking
# ---------------------------------------------------------------------------

def train_ticket() -> ServiceGraph:
    """Train-Ticket booking service (enquiry, reservation, payment)."""
    graph = ServiceGraph("train_ticket")

    graph.add_service(frontend_profile("gateway"), replicas=2)
    graph.add_service(logic_profile("travel", base_ms=10.0, cv=0.4))
    graph.add_service(logic_profile("route", base_ms=6.0))
    graph.add_service(logic_profile("trainType", base_ms=3.0))
    graph.add_service(logic_profile("ticketInfo", base_ms=7.0, cv=0.5))
    graph.add_service(logic_profile("basicInfo", base_ms=4.0))
    graph.add_service(logic_profile("seat", base_ms=6.0, cv=0.5))
    graph.add_service(logic_profile("order", base_ms=9.0, cv=0.3))
    graph.add_service(logic_profile("preserve", base_ms=12.0, cv=0.3))
    graph.add_service(logic_profile("price", base_ms=3.0))
    graph.add_service(logic_profile("payment", base_ms=8.0))
    graph.add_service(logic_profile("insidePayment", base_ms=5.0))
    graph.add_service(logic_profile("security", base_ms=4.0))
    graph.add_service(logic_profile("contacts", base_ms=3.0))
    graph.add_service(logic_profile("stationFood", base_ms=5.0))
    graph.add_service(logic_profile("consign", base_ms=5.0))
    graph.add_service(background_profile("notification", base_ms=20.0))
    _storage_pair(graph, "order-store")
    _storage_pair(graph, "route-store")
    _storage_pair(graph, "user-store")
    _storage_pair(graph, "payment-store")

    enquiry_plan = [
        CallEdge(
            "travel",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("route", CallPattern.PARALLEL, children=[_storage_calls("route-store")]),
                CallEdge("trainType", CallPattern.PARALLEL),
                CallEdge(
                    "ticketInfo",
                    CallPattern.SEQUENTIAL,
                    children=[
                        CallEdge("basicInfo", CallPattern.SEQUENTIAL),
                        CallEdge("price", CallPattern.PARALLEL),
                        CallEdge("seat", CallPattern.PARALLEL, children=[_storage_calls("order-store")]),
                    ],
                ),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="ticket-enquiry",
            entry_service="gateway",
            call_plan=enquiry_plan,
            slo_latency_ms=250.0,
            weight=0.5,
        )
    )

    reserve_plan = [
        CallEdge("security", CallPattern.SEQUENTIAL, children=[_storage_calls("user-store")]),
        CallEdge("contacts", CallPattern.PARALLEL),
        CallEdge(
            "preserve",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("ticketInfo", CallPattern.SEQUENTIAL, children=[CallEdge("basicInfo", CallPattern.SEQUENTIAL)]),
                CallEdge("seat", CallPattern.SEQUENTIAL, children=[_storage_calls("order-store")]),
                CallEdge("order", CallPattern.SEQUENTIAL, children=[_storage_calls("order-store")]),
                CallEdge("stationFood", CallPattern.PARALLEL),
                CallEdge("consign", CallPattern.PARALLEL),
                CallEdge("notification", CallPattern.BACKGROUND),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="ticket-reserve",
            entry_service="gateway",
            call_plan=reserve_plan,
            slo_latency_ms=400.0,
            weight=0.3,
        )
    )

    payment_plan = [
        CallEdge(
            "payment",
            CallPattern.SEQUENTIAL,
            children=[
                CallEdge("insidePayment", CallPattern.SEQUENTIAL, children=[_storage_calls("payment-store")]),
                CallEdge("order", CallPattern.SEQUENTIAL, children=[_storage_calls("order-store")]),
                CallEdge("notification", CallPattern.BACKGROUND),
            ],
        ),
    ]
    graph.add_request_type(
        RequestType(
            name="ticket-payment",
            entry_service="gateway",
            call_plan=payment_plan,
            slo_latency_ms=300.0,
            weight=0.2,
        )
    )

    graph.validate()
    return graph


#: Registry used by the experiment harness to instantiate applications by name.
APPLICATIONS: Dict[str, Callable[[], ServiceGraph]] = {
    "social_network": social_network,
    "media_service": media_service,
    "hotel_reservation": hotel_reservation,
    "train_ticket": train_ticket,
}


class UnknownApplicationError(KeyError, ValueError):
    """An application name missing from :data:`APPLICATIONS`.

    A ``KeyError`` for registry lookups and a ``ValueError`` like the
    other unknown-name errors (controllers, scopes, routing policies), so
    the CLI reports it as one clean line.
    """

    def __str__(self) -> str:
        return str(self.args[0])


def build_application(name: str) -> ServiceGraph:
    """Build one of the four benchmark applications by name."""
    if name not in APPLICATIONS:
        raise UnknownApplicationError(
            f"unknown application {name!r}; choose from {sorted(APPLICATIONS)}"
        )
    return APPLICATIONS[name]()
