"""Discrete-event simulation substrate used by the FIRM reproduction.

The paper evaluates FIRM on a physical Kubernetes cluster; here every
experiment runs on a deterministic discrete-event simulation.  The package
provides:

* :class:`repro.sim.engine.SimulationEngine` -- a classic event-queue /
  virtual-clock engine with support for scheduled callbacks, recurring
  processes, and run-until semantics.
* :class:`repro.sim.events.Event` -- the scheduled-work unit.
* :class:`repro.sim.rng.SeededRNG` -- a thin wrapper over
  :class:`numpy.random.Generator` with named substreams so that independent
  subsystems (workload, anomalies, service times) draw from decoupled,
  reproducible streams.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventOrderError
from repro.sim.rng import SeededRNG

__all__ = [
    "SimulationEngine",
    "Event",
    "EventOrderError",
    "SeededRNG",
]
