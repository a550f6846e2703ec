"""The structured event journal: a bounded flight recorder of run events.

Every instrumented component appends typed records — controller scale
decisions, routing picks, anomaly inject/clear, detector verdicts,
SLO-violation window transitions — to one
per-run :class:`EventJournal`.  The journal is a fixed-capacity ring
(``collections.deque(maxlen=...)``): recording is O(1), memory is
bounded regardless of run length, and under pressure the *oldest*
records are evicted first, which is exactly the flight-recorder
semantics (the recent past explains the present).

Records are plain tuples in memory and plain dicts at the export
boundary (:meth:`EventJournal.as_dicts`), so they cross process
boundaries and serialize to JSONL without any class machinery.  Each
record carries ``(t, seq, kind, source, data)``; ``seq`` is the append
order, which breaks ties between records at the same virtual time.
"""

from __future__ import annotations

import json
from collections import deque
from typing import List, Sequence

__all__ = [
    "EventJournal",
    "read_journal_jsonl",
    "write_journal_jsonl",
]

#: Default ring capacity: generously above what the pinned scenarios
#: produce, small enough that a runaway hot-path recorder stays bounded.
DEFAULT_CAPACITY = 65536


class EventJournal:
    """Bounded ring buffer of typed run-event records.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are evicted first.
    """

    __slots__ = ("capacity", "_records", "_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._records: deque = deque(maxlen=self.capacity)
        self._seq = 0

    def record(self, time_s: float, kind: str, source: str, **data) -> None:
        """Append one typed record (O(1); evicts the oldest when full)."""
        self._seq += 1
        self._records.append((time_s, self._seq, kind, source, data))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def recorded(self) -> int:
        """Total records ever appended (``recorded - len`` were evicted)."""
        return self._seq

    @property
    def evicted(self) -> int:
        """Records lost to ring eviction."""
        return self._seq - len(self._records)

    def as_dicts(self) -> List[dict]:
        """Export retained records as JSON-ready dicts (time order)."""
        return [
            {
                "t": time_s,
                "seq": seq,
                "kind": kind,
                "source": source,
                "data": data,
            }
            for time_s, seq, kind, source, data in self._records
        ]


def write_journal_jsonl(records: Sequence[dict], path: str) -> None:
    """Flush exported records to ``path`` as JSON Lines (one per record)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")


def read_journal_jsonl(path: str) -> List[dict]:
    """Load a journal JSONL file back into record dicts."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
