"""SeededRNG-driven reservoir sampling (Algorithm R, Vitter 1985).

Keeps a uniform random sample of a stream in a fixed-capacity buffer: the
first ``capacity`` items are admitted outright, and from then on the
``n``-th item replaces a uniformly chosen resident with probability
``capacity / n``.  Randomness comes from one named
:class:`~repro.sim.rng.SeededRNG` substream cursor, so retention decisions
are a pure function of ``(seed, offer order)`` — repeated runs retain the
same traces, whether they run in this process or in a sweep worker.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

from repro.sim.rng import StreamCursor

T = TypeVar("T")


class ReservoirSampler(Generic[T]):
    """Fixed-capacity uniform sample of an unbounded stream.

    Parameters
    ----------
    capacity:
        Number of items retained.
    cursor:
        Uniform-draw cursor from a named SeededRNG substream; one draw is
        consumed per offer beyond capacity (none before the reservoir
        fills, so small streams are retained exactly and draw-free).
    """

    def __init__(self, capacity: int, cursor: StreamCursor) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._cursor = cursor
        self.items: List[T] = []
        #: Total items offered so far (the stream length ``n``).
        self.offered = 0

    def offer(self, item: T) -> Optional[T]:
        """Offer one item; return the item displaced by it, if any.

        Returns ``None`` when the item was admitted without displacing
        anything (reservoir still filling), the displaced resident when
        the item replaced one, or ``item`` itself when it was rejected —
        so the caller can release whatever the reservoir no longer holds.
        """
        self.offered += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return None
        slot = int(self._cursor.next_uniform() * self.offered)
        if slot < self.capacity:
            displaced = self.items[slot]
            self.items[slot] = item
            return displaced
        return item

    def __len__(self) -> int:
        return len(self.items)
