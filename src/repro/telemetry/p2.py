"""The P² incremental quantile estimator (Jain & Chlamtac, 1985).

Estimates a single quantile of a stream in O(1) memory by maintaining five
markers — the minimum, the maximum, the target quantile, and the two
mid-quantiles between them — and nudging the middle markers toward their
desired positions with a piecewise-parabolic (hence "P squared") height
adjustment on every observation.  Until five observations have arrived the
estimator answers from the sorted buffer directly (linear interpolation,
matching ``numpy.percentile``), so small streams are exact.

The estimator is *not* mergeable (marker state is order-dependent), so it
serves per-container and per-stream summaries; run-level digests that
fold several streams use the
:class:`~repro.telemetry.histogram.LogHistogram`.
"""

from __future__ import annotations

from typing import List


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Parameters
    ----------
    quantile:
        Target quantile in ``(0, 1)``, e.g. ``0.99`` for p99.
    """

    __slots__ = ("quantile", "count", "_q", "_n", "_np", "_dn", "_initial")

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = float(quantile)
        self.count = 0
        p = self.quantile
        #: Marker heights / positions / desired positions (after init).
        self._q: List[float] = []
        self._n: List[float] = []
        self._np: List[float] = []
        self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        #: First five observations, buffered until the markers initialize.
        self._initial: List[float] = []

    # ------------------------------------------------------------------ feed
    def add(self, x: float) -> None:
        """Absorb one observation."""
        self.count += 1
        if self._q:
            self._update(float(x))
            return
        self._initial.append(float(x))
        if len(self._initial) == 5:
            self._initial.sort()
            self._q = list(self._initial)
            self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
            p = self.quantile
            self._np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            self._initial = []

    def _update(self, x: float) -> None:
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 5):
                if x < q[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        dn = self._dn
        for i in range(5):
            np_[i] += dn[i]
        for i in range(1, 4):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, sign)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    # ----------------------------------------------------------------- query
    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation).

        Exact (numpy-compatible linear interpolation over the sorted
        buffer) below five observations; the P² middle-marker height
        afterwards.
        """
        if self._q:
            return self._q[2]
        if not self._initial:
            return 0.0
        data = sorted(self._initial)
        rank = self.quantile * (len(data) - 1)
        low = int(rank)
        high = min(low + 1, len(data) - 1)
        frac = rank - low
        return data[low] * (1.0 - frac) + data[high] * frac
