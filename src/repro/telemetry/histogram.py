"""Fixed-geometric-bin log histogram: the *mergeable* quantile sketch.

Values are counted into bins whose edges grow geometrically by ``gamma``,
so a value is never misplaced by more than half a bin — a bounded
*relative* error of about ``sqrt(gamma) - 1`` on any quantile, at any
scale, with no per-sample retention.  The bins are sparse (a plain
``{bin_index: count}`` dict), so an idle stream costs nothing.

Because the state is a bag of integer counters keyed by a *fixed* bin
geometry, merging two histograms is bin-wise addition — exactly
associative and commutative on counts, min, and max (the float ``sum``
field is associative up to float rounding).  Windowed histograms fold
their ring buckets this way, and a multi-tenant run folds its tenants'
latency digests (:mod:`repro.telemetry.digest`).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Default geometric growth factor: quantile relative error ~ ±4%.
DEFAULT_GAMMA = 1.08

#: Default smallest resolvable value (milliseconds in latency use).
DEFAULT_MIN_VALUE = 0.01


class LogHistogram:
    """Sparse geometric-bin histogram with exactly-mergeable counts.

    Parameters
    ----------
    gamma:
        Bin-edge growth factor (> 1).  Bin ``i`` (for ``i >= 1``) covers
        ``[min_value * gamma**(i-1), min_value * gamma**i)``; bin 0
        collects everything at or below ``min_value`` (including zeros
        and negatives, which latency streams do not produce but telemetry
        glitches might).
    min_value:
        Lower resolution bound; values below it are indistinguishable.
    """

    __slots__ = ("gamma", "min_value", "_inv_log_gamma", "counts", "count",
                 "total", "min", "max")

    def __init__(
        self, gamma: float = DEFAULT_GAMMA, min_value: float = DEFAULT_MIN_VALUE
    ) -> None:
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.gamma = float(gamma)
        self.min_value = float(min_value)
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------ feed
    def bin_index(self, x: float) -> int:
        """The bin a value falls into."""
        if x <= self.min_value:
            return 0
        return 1 + int(math.log(x / self.min_value) * self._inv_log_gamma)

    def add(self, x: float, weight: int = 1) -> None:
        """Count one observation (or ``weight`` identical ones)."""
        index = self.bin_index(x)
        self.counts[index] = self.counts.get(index, 0) + weight
        self.count += weight
        self.total += x * weight
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, values: Sequence[float]) -> None:
        """Count a batch of observations."""
        for value in values:
            self.add(value)

    # ----------------------------------------------------------------- query
    def bin_value(self, index: int) -> float:
        """Representative (geometric-midpoint) value of a bin."""
        if index <= 0:
            return self.min_value
        return self.min_value * self.gamma ** (index - 0.5)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (``q`` in percent, 0..100).

        Returns 0.0 for an empty histogram.  The answer is the
        representative value of the bin containing the target rank,
        clamped into the exact observed ``[min, max]`` envelope so the
        extremes never overshoot the data.
        """
        if self.count == 0:
            return 0.0
        rank = int(math.ceil(q / 100.0 * self.count))
        rank = min(max(rank, 1), self.count)
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= rank:
                return min(max(self.bin_value(index), self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def mean(self) -> float:
        """Exact stream mean (the sum is tracked exactly, not binned)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    # ----------------------------------------------------------------- merge
    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram into this one (bin-wise addition).

        Both histograms must share the same bin geometry; merging is
        exactly associative and commutative on the integer state.
        """
        if other.gamma != self.gamma or other.min_value != self.min_value:
            raise ValueError("cannot merge histograms with different bin geometry")
        counts = self.counts
        for index, count in other.counts.items():
            counts[index] = counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def copy(self) -> "LogHistogram":
        """An independent copy (used when folding digests non-destructively)."""
        clone = LogHistogram(gamma=self.gamma, min_value=self.min_value)
        clone.counts = dict(self.counts)
        clone.count = self.count
        clone.total = self.total
        clone.min = self.min
        clone.max = self.max
        return clone

    # --------------------------------------------------------------- pickling
    def __getstate__(self):
        return (self.gamma, self.min_value, self.counts, self.count,
                self.total, self.min, self.max)

    def __setstate__(self, state) -> None:
        (gamma, min_value, counts, count, total, minimum, maximum) = state
        self.gamma = gamma
        self.min_value = min_value
        self._inv_log_gamma = 1.0 / math.log(gamma)
        self.counts = counts
        self.count = count
        self.total = total
        self.min = minimum
        self.max = maximum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogHistogram(count={self.count}, bins={len(self.counts)}, "
            f"p50={self.quantile(50.0):.3g}, p99={self.quantile(99.0):.3g})"
        )
