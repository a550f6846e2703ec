"""Outside-in per-layer host-time attribution for one simulator run.

:class:`LayerTracer` measures where a run spends host time without any
instrumentation inside ``src/repro``.  While active it replaces a fixed set
of public entry points (class attributes) with timing wrappers and restores
the originals on exit:

* each entry point in :data:`ENTRY_POINTS` becomes a span of its layer;
* every event callback whose name :func:`event_layer` recognises becomes a
  root span of that layer, through a wrapped ``SimulationEngine.schedule``.

Spans nest on one stack, so a layer's *self* time excludes the time of the
spans it calls into.  Time outside every span (heap push/pop, the event
loop, unnamed callbacks) is left to the caller to attribute to ``sim`` as
the remainder of the run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.admission.gate import AdmissionGate
from repro.apps.runtime import ApplicationRuntime
from repro.cluster.instance import MicroserviceInstance
from repro.cluster.node import Node
from repro.cluster.orchestrator import Orchestrator
from repro.controllers.manager import ControllerManager
from repro.core.rl.ddpg import DDPGAgent
from repro.core.svm import IncrementalSVM
from repro.metrics.slo import SLOTracker
from repro.routing.router import RequestRouter
from repro.sim.engine import SimulationEngine
from repro.tracing.coordinator import TracingCoordinator

#: Every layer the tracer reports, named after ``src/repro`` module paths.
LAYERS: Tuple[str, ...] = (
    "sim",
    "workload",
    "admission",
    "apps",
    "routing",
    "cluster.instance",
    "cluster.node",
    "tracing",
    "metrics",
    "cluster.telemetry",
    "experiments",
    "anomaly",
    "cluster.orchestrator",
    "controllers",
    "controllers.stages",
    "core.rl",
    "core.svm",
)

#: Public methods timed as spans: (class, method names, layer).
ENTRY_POINTS: Tuple[Tuple[type, Tuple[str, ...], str], ...] = (
    (RequestRouter, ("route",), "routing"),
    (MicroserviceInstance, ("submit",), "cluster.instance"),
    (Node, ("contention_factors",), "cluster.node"),
    (
        TracingCoordinator,
        ("begin_trace", "record_span", "complete_trace", "drop_trace", "has_slo_violation"),
        "tracing",
    ),
    (SLOTracker, ("observe",), "metrics"),
    (ApplicationRuntime, ("submit_request",), "apps"),
    (AdmissionGate, ("submit",), "admission"),
    (Orchestrator, ("set_resource_limit", "scale_out", "scale_in"), "cluster.orchestrator"),
    (ControllerManager, ("pull",), "controllers.stages"),
    (DDPGAgent, ("act", "train_step"), "core.rl"),
    (IncrementalSVM, ("partial_fit", "classify"), "core.svm"),
)

#: Event-name prefixes whose callbacks become root spans of a layer.
EVENT_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("workload-arrival", "workload"),
    ("span-finish:", "apps"),
    ("telemetry-sample", "cluster.telemetry"),
    ("harness-sample", "experiments"),
    ("anomaly-", "anomaly"),
    ("partition:", "cluster.orchestrator"),
    ("scale-out:", "cluster.orchestrator"),
    ("admission-", "admission"),
)


def event_layer(name: str) -> Optional[str]:
    """The layer owning events called ``name`` (None leaves them to ``sim``)."""
    if name.endswith("-control"):
        return "controllers"
    for prefix, layer in EVENT_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


class LayerTracer:
    """Context manager that attributes host time to layers while active.

    ``self_s[layer]`` is the layer's self time in seconds and
    ``calls[layer]`` its span count, both accumulated since the last
    :meth:`clear`.  ``sim`` is never filled here (see the module docstring).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        self._saved: List[Tuple[type, str, object]] = []

    def clear(self) -> None:
        """Zero every accumulator (spans still open keep running)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def _span(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def _traced_schedule(self, schedule: Callable) -> Callable:
        span = self._span
        layers: Dict[str, Optional[str]] = {}

        def traced_schedule(engine, at, callback, *, priority=0, name=""):
            if name in layers:
                layer = layers[name]
            else:
                layer = layers[name] = event_layer(name)
            if layer is not None:
                callback = span(layer, callback)
            return schedule(engine, at, callback, priority=priority, name=name)

        return traced_schedule

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def __enter__(self) -> "LayerTracer":
        try:
            for cls, names, layer in ENTRY_POINTS:
                for name in names:
                    self._patch(cls, name, self._span(layer, cls.__dict__[name]))
            schedule = SimulationEngine.__dict__["schedule"]
            self._patch(SimulationEngine, "schedule", self._traced_schedule(schedule))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)
