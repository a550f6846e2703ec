"""A fixed pure-Python workload that gauges how fast the host runs Python.

Other tenants of a shared host slow every process on it, by up to 1.9x, in
spells that last from a fraction of a second to minutes.  Each firmbench run
times this probe before and after every build and every slice, so that two
probes share each build's or slice's spell, and :func:`at_reference_speed`
scales the build's or slice's host time by how much slower than
``REFERENCE_S`` those probes ran: a slice timed while the host ran slow then
reads as on the reference host.  The probe imports nothing from
``src/repro``, so no change to the simulator can change what it measures.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

#: The probe's usual time on the host the bounds in BENCHMARK.json were
#: measured on, while no other tenant slowed it (see bench/README.md).
REFERENCE_S = 0.00105

#: While other tenants slow the probe by a factor f, they slow the simulator
#: by about f ** SLOWDOWN_EXPONENT: fitted over pairs of runs of one seed, on
#: firm_colocated (0.83-0.86) and steady (0.83), see bench/README.md.
SLOWDOWN_EXPONENT = 0.85


class _Job:
    __slots__ = ("key", "size", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.size = 1.0 + key % 13
        self.total = 0.0


def _event_loop(events: int = 1000, keys: int = 1000) -> float:
    """A small discrete-event loop: heap, slotted objects, dicts, floats."""
    jobs = [_Job(key) for key in range(keys)]
    queue = []
    totals = {}
    now = 0.0
    state = 12345
    for seq in range(events):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        job = jobs[state % keys]
        heapq.heappush(queue, (now + job.size * 0.001, seq, job))
        if len(queue) > 64:
            now, _, done = heapq.heappop(queue)
            done.total += now
            totals[done.key] = totals.get(done.key, 0.0) + done.size
    return now


def probe_s() -> float:
    """Host seconds of one run of the fixed event loop (about 1 ms).

    The collector is held off while the probe runs, so that it never
    charges the probe with a collection of the simulator's heap; the probe
    frees all it allocates, so the simulator's collections stay as they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _event_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: List[float], probe_s: List[float]) -> List[float]:
    """Each host time as on the reference host.

    ``probe_s`` holds one more probe time than ``seconds``: ``probe_s[i]``
    and ``probe_s[i + 1]`` were timed right before and right after
    ``seconds[i]``, and their mean gauges the host's speed during it.
    """
    return [
        time_s * (REFERENCE_S / ((before + after) / 2.0)) ** SLOWDOWN_EXPONENT
        for time_s, before, after in zip(seconds, probe_s, probe_s[1:])
    ]
