"""A small but complete discrete-event simulation engine.

The engine maintains a virtual clock and a priority queue of
:class:`~repro.sim.events.Event` objects.  All substrates of the FIRM
reproduction (cluster, workload generators, anomaly injector, controllers)
schedule work on a shared engine so that request execution, telemetry
sampling, and control actions interleave exactly as they would in wall-clock
time on a real cluster.

Performance notes
-----------------
The engine is the innermost loop of every experiment, so the hot path is
deliberately allocation-light:

* the heap stores plain ``(time, priority, seq, event)`` tuples, so
  ``heapq`` compares C-level floats/ints and never calls back into Python
  rich comparisons (``seq`` is unique, making the event object itself
  unreachable by the comparison);
* :meth:`run_until` and :meth:`run` inline the pop/execute loop instead of
  delegating to :meth:`step`, avoiding one extra frame per event;
* cancelled events are counted as they are cancelled and the heap is
  compacted once they outnumber the live events, so a workload that
  cancels heavily cannot degrade pop cost for everyone else.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event, EventOrderError

#: Queue entry: ``(time, priority, seq, event)``.
_QueueEntry = Tuple[float, int, int, Event]

#: Heaps smaller than this are never compacted — rebuilding a tiny heap
#: costs more than skipping its cancelled entries on pop.
_COMPACTION_MIN_QUEUE = 64


class SimulationEngine:
    """Event-queue simulator with a floating-point virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(1.0, lambda eng: fired.append(eng.now))
    >>> engine.run_until(2.0)
    >>> fired
    [1.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_QueueEntry] = []
        self._processed = 0
        self._stopped = False
        self._cancelled_in_queue = 0
        self._trace_hooks: List[Callable[[Event], None]] = []

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued.

        Contract: cancelled events do **not** count — they are dead weight
        awaiting removal (lazily on pop, or eagerly when the heap is
        compacted), not schedulable work.  ``pending_events == 0`` therefore
        means the simulation has nothing left to do even if the internal
        heap still holds cancelled entries.
        """
        return len(self._queue) - self._cancelled_in_queue

    # -------------------------------------------------------------- scheduling
    def schedule(
        self,
        time: float,
        callback: Callable[["SimulationEngine"], Any],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Raises
        ------
        EventOrderError
            If ``time`` is earlier than the current clock.
        """
        if time < self._now:
            raise EventOrderError(
                f"cannot schedule event {name!r} at t={time:.6f}; clock is at {self._now:.6f}"
            )
        event = Event(time=float(time), priority=priority, callback=callback, name=name)
        event._engine = self
        event._in_queue = True
        heapq.heappush(self._queue, (event.time, priority, event.seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[["SimulationEngine"], Any],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (must be >= 0)."""
        if delay < 0:
            raise EventOrderError(f"negative delay {delay!r} for event {name!r}")
        return self.schedule(self._now + delay, callback, priority=priority, name=name)

    def schedule_recurring(
        self,
        interval: float,
        callback: Callable[["SimulationEngine"], Any],
        *,
        start: Optional[float] = None,
        priority: int = 0,
        name: str = "",
        until: Optional[float] = None,
    ) -> Event:
        """Schedule ``callback`` every ``interval`` seconds.

        The returned event is the *first* occurrence; cancelling it stops the
        whole recurrence.  Subsequent occurrences inherit the cancellation
        flag from a small closure-held state cell.
        """
        if interval <= 0:
            raise ValueError(f"recurring interval must be positive, got {interval}")
        state: Dict[str, Any] = {"cancelled": False, "current": None}
        first_time = self._now + interval if start is None else start

        def _tick(engine: "SimulationEngine") -> None:
            if state["cancelled"]:
                return
            callback(engine)
            next_time = engine.now + interval
            if until is not None and next_time > until:
                return
            inner = engine.schedule(next_time, _tick, priority=priority, name=name)
            state["current"] = inner

        event = self.schedule(first_time, _tick, priority=priority, name=name)
        state["current"] = event

        def _cancel_chain() -> None:
            state["cancelled"] = True
            current = state["current"]
            if current is not None and current is not event:
                current.cancel()

        event._on_cancel = _cancel_chain
        return event

    # ------------------------------------------------------------------ hooks
    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook invoked (with the event) after every executed event."""
        self._trace_hooks.append(hook)

    # ---------------------------------------------------------- cancellation
    def _note_cancelled(self, event: Event) -> None:
        """Record one cancellation; compact the heap when dead weight wins.

        Called by :meth:`Event.cancel`.  Once cancelled entries exceed half
        the queue (and the queue is big enough for compaction to pay off),
        the heap is rebuilt with only live events so pop cost stays
        proportional to real work.
        """
        if not event._in_queue:
            return
        self._cancelled_in_queue += 1
        queue_size = len(self._queue)
        if (
            queue_size >= _COMPACTION_MIN_QUEUE
            and self._cancelled_in_queue * 2 > queue_size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap and re-heapify.

        The queue is compacted **in place** (slice assignment, not
        rebinding): cancellation can happen inside an event callback while
        ``run_until``/``run``/``step`` hold a local alias to the queue
        list, and a rebound list would leave the running loop draining a
        stale heap — executing events twice and corrupting the
        cancellation count.
        """
        live = [entry for entry in self._queue if not entry[3].cancelled]
        for entry in self._queue:
            event = entry[3]
            if event.cancelled:
                event._in_queue = False
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    # -------------------------------------------------------------------- run
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[3]
            event._in_queue = False
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._now = event.time
            if event.callback is not None:
                event.callback(self)
            self._processed += 1
            for hook in self._trace_hooks:
                hook(event)
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time`` (inclusive).

        Events scheduled exactly at ``end_time`` are executed; the clock is
        left at ``end_time`` even if the queue drains earlier.
        """
        if end_time < self._now:
            raise EventOrderError(
                f"run_until({end_time}) is in the past; clock at {self._now}"
            )
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        hooks = self._trace_hooks
        while queue and not self._stopped:
            head = queue[0]
            event = head[3]
            if event.cancelled:
                heappop(queue)
                event._in_queue = False
                self._cancelled_in_queue -= 1
                continue
            if head[0] > end_time:
                break
            heappop(queue)
            event._in_queue = False
            self._now = event.time
            callback = event.callback
            if callback is not None:
                callback(self)
            self._processed += 1
            if hooks:
                for hook in hooks:
                    hook(event)
        if end_time > self._now:
            self._now = end_time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains or ``max_events`` events have executed."""
        self._stopped = False
        count = 0
        while self._queue and not self._stopped:
            if max_events is not None and count >= max_events:
                break
            if self.step():
                count += 1

    def stop(self) -> None:
        """Request the current ``run``/``run_until`` loop to stop after this event."""
        self._stopped = True

    # ------------------------------------------------------------------ misc
    def clear(self) -> None:
        """Drop all pending events (the clock is preserved)."""
        for entry in self._queue:
            entry[3]._in_queue = False
        self._queue.clear()
        self._cancelled_in_queue = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationEngine(now={self._now:.3f}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )
