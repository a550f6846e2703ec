"""Fixed-size ring-buffer windowed statistics.

Every structure here follows one pattern: virtual time is divided into
``bucket_s``-wide buckets, a ring of ``buckets`` slots holds one
associative aggregate per bucket, and a slot is lazily reset when a new
bucket id hashes onto it — so updates are O(1), memory is O(buckets), and
a windowed query merges at most ``ceil(window / bucket_s) + 1`` slots.
Window edges are bucket-aligned: a query for the last ``duration_s``
seconds covers every bucket overlapping ``[now - duration_s, now]``, which
over-includes by up to one bucket width — the documented accuracy tradeoff
of constant-memory telemetry.

Three aggregates cover every consumer:

* :class:`WindowedCounter` — per-bucket event counts (arrival rates and
  request composition);
* :class:`WindowedHistogram` — per-bucket sparse
  :class:`~repro.telemetry.histogram.LogHistogram` bins (windowed latency
  quantiles, congestion intensity);
* :class:`WindowedCoMoments` — per-bucket ``(n, Σx, Σy, Σxx, Σyy, Σxy)``
  so a windowed Pearson correlation (the extractor's relative-importance
  feature) is computed incrementally without retaining sample pairs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.telemetry.histogram import DEFAULT_GAMMA, DEFAULT_MIN_VALUE, LogHistogram


class _Ring:
    """Shared bucket-id arithmetic for the ring structures."""

    __slots__ = ("bucket_s", "buckets", "_ids")

    def __init__(self, bucket_s: float, buckets: int) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        self.bucket_s = float(bucket_s)
        self.buckets = int(buckets)
        self._ids: List[int] = [-1] * self.buckets

    def _bucket_id(self, time_s: float) -> int:
        return int(time_s // self.bucket_s)

    def _window_ids(self, now: float, duration_s: float) -> range:
        """Bucket ids overlapping ``[now - duration_s, now]``, ring-clamped."""
        end = self._bucket_id(now)
        start = self._bucket_id(now - duration_s)
        start = max(start, end - self.buckets + 1)
        return range(start, end + 1)


class WindowedCounter(_Ring):
    """Ring-buffered event counts (arrival-rate and composition queries)."""

    __slots__ = ("_count",)

    def __init__(self, bucket_s: float = 0.5, buckets: int = 128) -> None:
        super().__init__(bucket_s, buckets)
        self._count = [0] * self.buckets

    def add(self, time_s: float, weight: int = 1) -> None:
        bucket = self._bucket_id(time_s)
        slot = bucket % self.buckets
        if self._ids[slot] != bucket:
            self._ids[slot] = bucket
            self._count[slot] = 0
        self._count[slot] += weight

    def window_count(self, now: float, duration_s: float) -> int:
        total = 0
        for bucket in self._window_ids(now, duration_s):
            slot = bucket % self.buckets
            if self._ids[slot] == bucket:
                total += self._count[slot]
        return total


class WindowedHistogram(_Ring):
    """Ring of sparse log-histogram bins: windowed quantiles in O(1) memory.

    Each bucket holds a sparse ``{bin_index: count}`` dict sharing one
    fixed bin geometry, so a windowed quantile merges a handful of small
    dicts and walks the combined bins — no sample retention, no per-query
    list rebuilds.
    """

    __slots__ = ("gamma", "min_value", "_inv_log_gamma", "_bins", "_count")

    def __init__(
        self,
        bucket_s: float = 1.0,
        buckets: int = 32,
        gamma: float = DEFAULT_GAMMA,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> None:
        super().__init__(bucket_s, buckets)
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        self.gamma = float(gamma)
        self.min_value = float(min_value)
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self._bins: List[Dict[int, int]] = [dict() for _ in range(self.buckets)]
        self._count = [0] * self.buckets

    def add(self, time_s: float, x: float) -> None:
        bucket = self._bucket_id(time_s)
        slot = bucket % self.buckets
        if self._ids[slot] != bucket:
            self._ids[slot] = bucket
            self._bins[slot] = {}
            self._count[slot] = 0
        if x <= self.min_value:
            index = 0
        else:
            index = 1 + int(math.log(x / self.min_value) * self._inv_log_gamma)
        bins = self._bins[slot]
        bins[index] = bins.get(index, 0) + 1
        self._count[slot] += 1

    def window_count(self, now: float, duration_s: float) -> int:
        total = 0
        for bucket in self._window_ids(now, duration_s):
            slot = bucket % self.buckets
            if self._ids[slot] == bucket:
                total += self._count[slot]
        return total

    def _merged_window(self, now: float, duration_s: float) -> Tuple[Dict[int, int], int]:
        merged: Dict[int, int] = {}
        total = 0
        for bucket in self._window_ids(now, duration_s):
            slot = bucket % self.buckets
            if self._ids[slot] != bucket:
                continue
            total += self._count[slot]
            for index, count in self._bins[slot].items():
                merged[index] = merged.get(index, 0) + count
        return merged, total

    def _bin_value(self, index: int) -> float:
        if index <= 0:
            return self.min_value
        return self.min_value * self.gamma ** (index - 0.5)

    def quantile(self, q: float, now: float, duration_s: float) -> float:
        """Windowed nearest-rank quantile (``q`` in percent; 0.0 if empty)."""
        merged, total = self._merged_window(now, duration_s)
        if total == 0:
            return 0.0
        rank = int(math.ceil(q / 100.0 * total))
        rank = min(max(rank, 1), total)
        cumulative = 0
        for index in sorted(merged):
            cumulative += merged[index]
            if cumulative >= rank:
                return self._bin_value(index)
        return self._bin_value(max(merged))  # pragma: no cover - unreachable

    def quantiles(self, qs: Tuple[float, ...], now: float, duration_s: float) -> List[float]:
        """Several windowed quantiles from one merged bin walk."""
        merged, total = self._merged_window(now, duration_s)
        if total == 0:
            return [0.0 for _ in qs]
        ranks = [min(max(int(math.ceil(q / 100.0 * total)), 1), total) for q in qs]
        order = sorted(range(len(qs)), key=lambda i: ranks[i])
        answers = [0.0] * len(qs)
        cumulative = 0
        position = 0
        for index in sorted(merged):
            cumulative += merged[index]
            while position < len(order) and cumulative >= ranks[order[position]]:
                answers[order[position]] = self._bin_value(index)
                position += 1
            if position == len(order):
                break
        return answers


class WindowedCoMoments(_Ring):
    """Ring-buffered bivariate co-moments for windowed Pearson correlation.

    Each bucket accumulates ``(n, Σx, Σy, Σxx, Σyy, Σxy)``; a windowed
    correlation merges the buckets and evaluates the closed form — the
    extractor's relative-importance feature without per-request alignment
    scans.
    """

    __slots__ = ("_moments",)

    def __init__(self, bucket_s: float = 1.0, buckets: int = 32) -> None:
        super().__init__(bucket_s, buckets)
        self._moments: List[List[float]] = [
            [0.0] * 6 for _ in range(self.buckets)
        ]

    def add(self, time_s: float, x: float, y: float) -> None:
        bucket = self._bucket_id(time_s)
        slot = bucket % self.buckets
        moments = self._moments[slot]
        if self._ids[slot] != bucket:
            self._ids[slot] = bucket
            moments[0] = moments[1] = moments[2] = 0.0
            moments[3] = moments[4] = moments[5] = 0.0
        moments[0] += 1.0
        moments[1] += x
        moments[2] += y
        moments[3] += x * x
        moments[4] += y * y
        moments[5] += x * y

    def window_count(self, now: float, duration_s: float) -> int:
        total = 0.0
        for bucket in self._window_ids(now, duration_s):
            slot = bucket % self.buckets
            if self._ids[slot] == bucket:
                total += self._moments[slot][0]
        return int(total)

    def pearson(self, now: float, duration_s: float) -> float:
        """Windowed Pearson correlation (0.0 for degenerate windows)."""
        n = sx = sy = sxx = syy = sxy = 0.0
        for bucket in self._window_ids(now, duration_s):
            slot = bucket % self.buckets
            if self._ids[slot] != bucket:
                continue
            moments = self._moments[slot]
            n += moments[0]
            sx += moments[1]
            sy += moments[2]
            sxx += moments[3]
            syy += moments[4]
            sxy += moments[5]
        if n < 2.0:
            return 0.0
        var_x = sxx - sx * sx / n
        var_y = syy - sy * sy / n
        if var_x <= 0.0 or var_y <= 0.0:
            return 0.0
        covariance = sxy - sx * sy / n
        correlation = covariance / math.sqrt(var_x * var_y)
        return max(-1.0, min(1.0, correlation))
