"""A t-digest quantile sketch (merging-digest variant).

:class:`~repro.telemetry.p2.P2Quantile` is O(1) but tracks one quantile
per estimator; the :class:`~repro.telemetry.histogram.LogHistogram`'s
relative-error guarantee is fixed by the bucket geometry.  The t-digest
(Dunning & Ertl, "Computing extremely accurate quantiles using
t-digests") keeps a bounded set of weighted centroids whose sizes shrink
toward the distribution's tails, giving tight relative accuracy at any
quantile, extreme ones included.  Digests can also be merged — fold
another digest's centroids in and re-compress.

This is the fully deterministic *merging* variant: values buffer until
the buffer fills, then one sorted sweep merges buffer and centroids
under the ``k1`` scale-function size limit.  No randomness is involved,
so for a fixed insertion order the digest — and every quantile read from
it — is bit-reproducible.  That is the contract the observability
registry's histograms rely on (:mod:`repro.obs.registry`).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

__all__ = ["TDigest", "merge_tdigests"]


class TDigest:
    """Streaming quantile sketch with deterministic merging.

    Parameters
    ----------
    compression:
        The ``delta`` parameter bounding the centroid count (roughly
        ``2 * compression`` centroids after compression).  100 keeps
        p99 within a fraction of a percent of exact on the latency
        distributions the simulator produces while holding ~200 floats.
    buffer_size:
        Incoming values buffered between compressions; larger buffers
        amortize the O(n log n) sweep, smaller ones bound staleness.
    """

    __slots__ = (
        "compression",
        "buffer_size",
        "_means",
        "_weights",
        "_buffer",
        "count",
        "total",
        "_min",
        "_max",
    )

    def __init__(self, compression: float = 100.0, buffer_size: int = 512) -> None:
        if compression < 10:
            raise ValueError(f"compression must be >= 10, got {compression}")
        self.compression = float(compression)
        self.buffer_size = int(buffer_size)
        #: Compressed centroids, ascending by mean.
        self._means: List[float] = []
        self._weights: List[float] = []
        #: Uncompressed ``(value, weight)`` arrivals.
        self._buffer: List[Tuple[float, float]] = []
        #: Total observation count (sum of weights).
        self.count = 0.0
        #: Sum of all observed values (weighted).
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------- ingestion
    def add(self, value: float, weight: float = 1.0) -> None:
        """Observe ``value`` with the given weight."""
        if weight <= 0:
            return
        value = float(value)
        self._buffer.append((value, float(weight)))
        self.count += weight
        self.total += value * weight
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self._buffer) >= self.buffer_size:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        """Fold ``other``'s observations into this digest (other unchanged).

        Merging is deterministic: the same sequence of merges always
        produces the same centroids.  It is not bit-associative (like any
        t-digest), but the quantile error bound holds for every grouping,
        so the merge order only needs to be *fixed*, not free.
        """
        if other.count <= 0:
            return
        for mean, weight in zip(other._means, other._weights):
            self._buffer.append((mean, weight))
        self._buffer.extend(other._buffer)
        self.count += other.count
        self.total += other.total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        self._compress()

    def copy(self) -> "TDigest":
        """An independent deep copy."""
        clone = TDigest(self.compression, self.buffer_size)
        clone._means = list(self._means)
        clone._weights = list(self._weights)
        clone._buffer = list(self._buffer)
        clone.count = self.count
        clone.total = self.total
        clone._min = self._min
        clone._max = self._max
        return clone

    # ----------------------------------------------------------- compression
    def _k(self, q: float) -> float:
        """The ``k1`` scale function: tail-concentrating centroid budget."""
        return self.compression / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    def _k_inv(self, k: float) -> float:
        limit = self.compression / 4.0
        k = max(-limit, min(limit, k))
        return (math.sin(2.0 * math.pi * k / self.compression) + 1.0) / 2.0

    def _compress(self) -> None:
        if not self._buffer and len(self._means) <= 2 * self.compression:
            return
        items = sorted(
            list(zip(self._means, self._weights)) + self._buffer,
            key=lambda pair: pair[0],
        )
        self._buffer = []
        self._means = []
        self._weights = []
        if not items:
            return
        total = sum(weight for _, weight in items)
        cum = 0.0  # weight fully merged into flushed centroids
        cur_mean, cur_weight = items[0]
        q_limit = self._k_inv(self._k(0.0) + 1.0) * total
        for mean, weight in items[1:]:
            if cum + cur_weight + weight <= q_limit:
                # Weighted incremental mean keeps the sweep single-pass.
                cur_weight += weight
                cur_mean += (mean - cur_mean) * (weight / cur_weight)
            else:
                self._means.append(cur_mean)
                self._weights.append(cur_weight)
                cum += cur_weight
                q_limit = self._k_inv(self._k(cum / total) + 1.0) * total
                cur_mean, cur_weight = mean, weight
        self._means.append(cur_mean)
        self._weights.append(cur_weight)

    # --------------------------------------------------------------- queries
    @property
    def mean(self) -> float:
        """Mean of all observed values (exact, not sketched)."""
        return self.total / self.count if self.count > 0 else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in ``[0, 1]``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._compress()
        if self.count <= 0 or not self._means:
            return 0.0
        if len(self._means) == 1:
            return self._means[0]
        target = q * self.count
        # Centroid i covers ranks centred at cum_i + w_i / 2; interpolate
        # linearly between adjacent centres, anchored at min/max.
        cum = 0.0
        prev_center = 0.0
        prev_mean = self._min if self._min is not None else self._means[0]
        for mean, weight in zip(self._means, self._weights):
            center = cum + weight / 2.0
            if target < center:
                span = center - prev_center
                if span <= 0:
                    return mean
                frac = (target - prev_center) / span
                return prev_mean + (mean - prev_mean) * frac
            prev_center = center
            prev_mean = mean
            cum += weight
        return self._max if self._max is not None else self._means[-1]

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (count, sum, headline quantiles)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TDigest(count={self.count:g}, centroids={len(self._means)}, "
            f"compression={self.compression:g})"
        )


def merge_tdigests(digests: Iterable[Optional["TDigest"]]) -> Optional["TDigest"]:
    """Fold digests in the given (fixed) order; None entries are skipped.

    Returns None when every entry is None — the same None-safe contract
    as :func:`repro.telemetry.digest.merge_telemetry_digests`.
    """
    merged: Optional[TDigest] = None
    for digest in digests:
        if digest is None:
            continue
        if merged is None:
            merged = digest.copy()
        else:
            merged.merge(digest)
    return merged
